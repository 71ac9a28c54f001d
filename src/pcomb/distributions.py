"""Discrete test-statistic models and sided discrete p-value distributions.

A discrete p-value takes values in an increasing atom sequence
0 = F_0 < F_1 < ... < F_m = 1 with masses p_i = F_i - F_{i-1}.  The atoms
come from a test-statistic null distribution and the side of the
alternative: left-sided p-values are the cdf values P(X <= x), right-sided
ones are the upper-tail probabilities P(X >= x) sorted ascending, and
two-sided ones group outcomes from least likely upward, summing the masses
of probability ties into a single atom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy import stats

FAMILIES = ("binomial", "poisson", "negative-binomial", "geometric",
            "hypergeometric", "noncentral-hypergeometric", "custom")
SIDES = ("left", "right", "two")

# Residual upper-tail mass below this threshold is folded into the last
# atom so the truncated pmf still sums to one exactly.
TAIL_EPS = 1e-14
# Relative tolerance for grouping probability ties in the two-sided
# construction; exact ties drift apart in the last bits for symmetric
# designs computed in floating point.
TIE_RTOL = 1e-12
ATOM_TOL = 1e-12
CUSTOM_PMF_TOL = 1e-9
# A named family whose support would hold more points than this is refused
# before it is built (Poisson at rate 1e9 would need 7.45 GiB).
SUPPORT_CAP = 10_000_000


@dataclass(frozen=True, eq=False)
class StatisticModel:
    """A discrete test-statistic null distribution on an explicit support.

    Parameters
    ----------
    family : str
        One of ``FAMILIES``.
    params : dict
        The named parameters the model was built from (empty for custom).
    support : ndarray of int
        Strictly increasing outcomes.
    pmf : ndarray of float
        Matching masses; nonnegative, summing to one within 1e-12.
    """

    family: str
    params: Mapping[str, float]
    support: np.ndarray
    pmf: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.int64)
        pmf = np.asarray(self.pmf, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "pmf", pmf)
        if support.ndim != 1 or pmf.shape != support.shape or support.size == 0:
            raise ValueError("support and pmf must be 1-D arrays of equal, nonzero length")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")
        if np.any(pmf <= 0.0):
            raise ValueError("pmf masses must be positive (zero-mass outcomes are dropped at build time)")
        if abs(pmf.sum() - 1.0) > ATOM_TOL:
            raise ValueError(f"pmf must sum to 1 within {ATOM_TOL}, got {pmf.sum()!r}")

    def cdf(self) -> np.ndarray:
        """Cumulative masses, with the final value forced to exactly 1."""
        F = np.cumsum(self.pmf)
        F[-1] = 1.0
        return F

    def index_of(self, x: int) -> int:
        i = int(np.searchsorted(self.support, x))
        if i >= self.support.size or self.support[i] != x:
            raise ValueError(f"observation {x!r} is not in the model support")
        return i

    def to_json(self) -> dict:
        if self.family == "custom":
            return {"family": "custom",
                    "support": self.support.tolist(),
                    "pmf": self.pmf.tolist()}
        return {"family": self.family, "params": dict(self.params)}

    @staticmethod
    def from_json(obj: Mapping) -> "StatisticModel":
        family = obj.get("family")
        if family == "custom":
            return make_statistic_model(
                "custom", {"support": obj["support"], "pmf": obj["pmf"]})
        return make_statistic_model(family, obj.get("params", {}))


@dataclass(frozen=True, eq=False)
class DiscretePValueDist:
    """Atoms F_1 < ... < F_m of a sided discrete p-value (F_m = 1).

    ``outcome_map`` maps a support index of the generating model to the
    atom index the outcome's p-value falls on; it is None for custom
    distributions, which carry no statistic model.
    """

    atoms: np.ndarray
    side: str
    model: StatisticModel | None = None
    outcome_map: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        atoms = np.array(self.atoms, dtype=float)  # copy: the tail atom is pinned below
        object.__setattr__(self, "atoms", atoms)
        if atoms.ndim != 1 or atoms.size == 0:
            raise ValueError("atoms must be a nonempty 1-D sequence")
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")
        if atoms[0] <= 0.0:
            raise ValueError("the first atom must be positive")
        if abs(atoms[-1] - 1.0) > ATOM_TOL:
            raise ValueError(f"the last atom must equal 1 within {ATOM_TOL}, got {atoms[-1]!r}")
        atoms[-1] = 1.0  # pin before the monotonicity check so a pinned
        # duplicate at the top is rejected as a zero-mass atom
        if np.any(np.diff(atoms) <= 0.0):
            raise ValueError("atoms must be strictly increasing (zero-mass atom)")

    @property
    def masses(self) -> np.ndarray:
        return np.diff(self.atoms, prepend=0.0)

    def __len__(self) -> int:
        return int(self.atoms.size)

    def atom_of(self, x: int) -> tuple[float, int]:
        """Atom value and index for an observed statistic ``x``."""
        if self.model is None or self.outcome_map is None:
            raise ValueError("this distribution has no statistic model attached")
        i = self.model.index_of(x)
        j = int(self.outcome_map[i])
        return float(self.atoms[j]), j

    def to_json(self) -> dict:
        return {"side": self.side, "F": self.atoms.tolist()}

    @staticmethod
    def from_json(obj: Mapping) -> "DiscretePValueDist":
        return custom_pvalue_distribution(obj["F"], obj["side"])


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _as_positive_int(params: Mapping, key: str, minimum: int = 1) -> int:
    _require(key in params, f"missing parameter {key!r}")
    v = params[key]
    _require(float(v) == int(v), f"{key} must be an integer, got {v!r}")
    v = int(v)
    _require(v >= minimum, f"{key} must be >= {minimum}, got {v}")
    return v


def _as_prob(params: Mapping, key: str) -> float:
    _require(key in params, f"missing parameter {key!r}")
    v = float(params[key])
    _require(0.0 < v < 1.0, f"{key} must be in (0, 1), got {v}")
    return v


def _check_support(lo: int, hi: int) -> None:
    size = hi - lo + 1
    _require(size <= SUPPORT_CAP,
             f"the support would have {size} points, more than the cap of {SUPPORT_CAP}")


def _support(lo: int, hi: int) -> np.ndarray:
    """The integers lo..hi, refused before any allocation above SUPPORT_CAP."""
    _check_support(lo, hi)
    return np.arange(lo, hi + 1)


def _truncated_counts(frozen, lo: int) -> tuple[np.ndarray, np.ndarray]:
    """Support and pmf of an unbounded count model, cut where the residual
    upper tail drops below TAIL_EPS; the residual is folded into the last
    atom so the masses sum to one exactly."""
    hi = int(frozen.isf(TAIL_EPS))
    # the walk below steps one point at a time: on a geometric at prob
    # 1e-12, isf lands about 10**9 points from the cut
    _check_support(lo, hi)
    while frozen.sf(hi) >= TAIL_EPS:
        hi += 1
    while hi > lo and frozen.sf(hi - 1) < TAIL_EPS:
        hi -= 1
    ks = _support(lo, hi)
    pmf = frozen.pmf(ks)
    pmf[-1] = frozen.sf(hi - 1)  # P(X >= hi): tail folded in
    return ks, pmf


def make_statistic_model(family: str, params: Mapping | None = None) -> StatisticModel:
    """Build a normalized, truncated StatisticModel for a named family.

    Parameter names: binomial ``trials, prob``; poisson ``rate``;
    negative-binomial ``successes, prob`` (support counts trials, matching
    the geometric convention); geometric ``prob`` (support 1, 2, ...);
    hypergeometric ``population, successes, draws``;
    noncentral-hypergeometric adds ``odds``; custom ``support, pmf``.
    """
    params = dict(params or {})
    if family == "binomial":
        n = _as_positive_int(params, "trials")
        theta = _as_prob(params, "prob")
        support = _support(0, n)
        pmf = stats.binom(n, theta).pmf(support)
        params = {"trials": n, "prob": theta}
    elif family == "poisson":
        _require("rate" in params, "missing parameter 'rate'")
        rate = float(params["rate"])
        _require(rate > 0.0, f"rate must be positive, got {rate}")
        support, pmf = _truncated_counts(stats.poisson(rate), 0)
        params = {"rate": rate}
    elif family == "geometric":
        p = _as_prob(params, "prob")
        support, pmf = _truncated_counts(stats.geom(p), 1)
        params = {"prob": p}
    elif family == "negative-binomial":
        r = _as_positive_int(params, "successes")
        p = _as_prob(params, "prob")
        fail, pmf = _truncated_counts(stats.nbinom(r, p), 0)
        support = fail + r  # number of trials until the r-th success
        params = {"successes": r, "prob": p}
    elif family == "hypergeometric":
        N = _as_positive_int(params, "population")
        K = _as_positive_int(params, "successes", minimum=0)
        m = _as_positive_int(params, "draws")
        _require(K <= N, f"successes must be <= population, got {K} > {N}")
        _require(m <= N, f"draws must be <= population, got {m} > {N}")
        lo, hi = max(0, m + K - N), min(m, K)
        support = _support(lo, hi)
        pmf = stats.hypergeom(N, K, m).pmf(support)
        params = {"population": N, "successes": K, "draws": m}
    elif family == "noncentral-hypergeometric":
        N = _as_positive_int(params, "population")
        K = _as_positive_int(params, "successes", minimum=0)
        m = _as_positive_int(params, "draws")
        _require("odds" in params, "missing parameter 'odds'")
        odds = float(params["odds"])
        _require(K <= N and m <= N, "successes and draws must be <= population")
        _require(odds > 0.0, f"odds must be positive, got {odds}")
        lo, hi = max(0, m + K - N), min(m, K)
        support = _support(lo, hi)
        pmf = stats.nchypergeom_fisher(N, K, m, odds).pmf(support)
        params = {"population": N, "successes": K, "draws": m, "odds": odds}
    elif family == "custom":
        _require("support" in params and "pmf" in params,
                 "custom models need 'support' and 'pmf'")
        support = np.asarray(params["support"], dtype=np.int64)
        pmf = np.asarray(params["pmf"], dtype=float)
        _require(support.shape == pmf.shape and support.ndim == 1,
                 "support and pmf must be 1-D arrays of equal length")
        _require(bool(np.all(pmf >= 0.0)), "custom pmf masses must be nonnegative")
        params = {}
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")

    # scipy pmfs drift from one by a few 1e-12 on large supports; a pmf
    # further off than CUSTOM_PMF_TOL is broken, not rounded
    total = pmf.sum()
    _require(abs(total - 1.0) <= CUSTOM_PMF_TOL,
             f"{family} pmf must sum to 1 within {CUSTOM_PMF_TOL}, got {total!r}")
    pmf = pmf / total  # renormalize so the atom invariants hold exactly

    # drop outcomes whose probability underflowed to exactly zero
    keep = pmf > 0.0
    support, pmf = support[keep], pmf[keep]
    return StatisticModel(family=family, params=params, support=support, pmf=pmf)


def _two_sided_grouping(pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and outcome->atom map for two-sided p-values.

    Outcomes are grouped from least likely upward; masses equal within
    TIE_RTOL form one tie group and contribute a single atom."""
    order = np.argsort(pmf, kind="stable")
    sorted_p = pmf[order]
    atoms = []
    outcome_map = np.empty(pmf.size, dtype=np.int64)
    total = 0.0
    i = 0
    while i < sorted_p.size:
        j = i
        while (j + 1 < sorted_p.size
               and sorted_p[j + 1] - sorted_p[i] <= TIE_RTOL * sorted_p[j + 1]):
            j += 1
        total += sorted_p[i:j + 1].sum()
        outcome_map[order[i:j + 1]] = len(atoms)
        atoms.append(total)
        i = j + 1
    atoms = np.asarray(atoms)
    atoms[-1] = 1.0
    return atoms, outcome_map


def pvalue_distribution(model: StatisticModel, side: str) -> DiscretePValueDist:
    """Sided discrete p-value distribution of a statistic model."""
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    m = model.pmf.size
    if side == "left":
        atoms = model.cdf()
        outcome_map = np.arange(m)
    elif side == "right":
        upper = np.cumsum(model.pmf[::-1])[::-1]  # P(X >= x_k)
        upper[0] = 1.0
        atoms = upper[::-1].copy()
        outcome_map = (m - 1) - np.arange(m)
        if atoms[-1] < 1.0 - ATOM_TOL:
            # the outcome with upper-tail probability one was truncated away
            atoms = np.append(atoms, 1.0)
    else:
        atoms, outcome_map = _two_sided_grouping(model.pmf)
    # cumulative rounding can overshoot 1 or repeat a value at double
    # precision; clip, then let coinciding p-values share one atom
    atoms, inverse = np.unique(np.minimum(atoms, 1.0), return_inverse=True)
    outcome_map = inverse[outcome_map]
    return DiscretePValueDist(atoms=atoms, side=side, model=model,
                              outcome_map=outcome_map)


def observed_pvalue(model: StatisticModel, side: str, x: int) -> tuple[float, int]:
    """The p-value atom (value, index) observation ``x`` maps to.

    Consistent with ``pvalue_distribution``: the returned value is an atom
    of that distribution."""
    return pvalue_distribution(model, side).atom_of(x)


def custom_pvalue_distribution(atom_sequence: Sequence[float], side: str) -> DiscretePValueDist:
    """Validated distribution from explicit atoms; carries no model, so
    ``atom_of`` is unavailable."""
    atoms = np.asarray(atom_sequence, dtype=float)
    return DiscretePValueDist(atoms=atoms, side=side)
