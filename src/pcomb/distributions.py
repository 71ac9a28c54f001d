"""Discrete test-statistic models and sided discrete p-value distributions.

A discrete p-value takes values in an increasing atom sequence
0 = F_0 < F_1 < ... < F_m = 1 with masses p_i = F_i - F_{i-1}.  The atoms
come from a test-statistic null distribution and the side of the
alternative: left-sided p-values are the cdf values P(X <= x), right-sided
ones are the upper-tail probabilities P(X >= x) sorted ascending, and
two-sided ones group outcomes from least likely upward, summing the masses
of probability ties into a single atom.

The named families are evaluated here on numpy and ``scipy.special``
alone; importing pcomb loads neither ``scipy.stats`` nor
``scipy.integrate``:

- hypergeometric and Fisher's noncentral hypergeometric: the ratios
  f(k+1)/f(k) multiplied outward from the mode and normalised (Liao &
  Rosen, The American Statistician 55, 2001); a mass k steps from the
  mode carries about k roundings, under 1e-14 relative on supports of a
  few hundred points;
- negative binomial: the same recurrence, with the tail
  P(X > k) = ``special.betaincc(r, k + 1, p)``, which is closer to the
  exact tail than ``special.nbdtrc`` (about 3e-12 relative off);
- Poisson: exp(xlogy(k, rate) - gammaln(k + 1) - rate), tail
  ``special.pdtrc``;
- geometric: (1 - p)^(k - 1) p, cdf -expm1(k log1p(-p)), sf
  exp(k log1p(-p));
- binomial: the boost pmf and cdf kernels that ``scipy.stats.binom``
  itself calls.  They are private scipy names, but a binomial recurrence
  moves the atoms in their last bits, and the Monte-Carlo output hashes
  those atoms at full precision.

Poisson, geometric and binomial masses are bit-identical to
``scipy.stats``.  The unbounded laws are cut where the upper tail drops
below TAIL_EPS, found by bisection from the law's mean, and a support
over SUPPORT_CAP points is refused before anything is allocated.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, NoReturn, Sequence

import numpy as np
from scipy import special
try:
    from scipy.special._ufuncs import _binom_cdf, _binom_pmf
except ImportError:
    import scipy
    raise ImportError(
        "pcomb needs scipy's private binomial kernels _binom_pmf and _binom_cdf "
        f"(checked on scipy 1.17.1), which the installed scipy {scipy.__version__} "
        "does not have") from None

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
        if (support[1:] <= support[:-1]).any():
            raise ValueError("support must be strictly increasing")
        total = float(pmf.sum())
        # a NaN or infinite mass makes the sum non-finite; only then is it looked for
        if not math.isfinite(total) and not np.isfinite(pmf).all():
            raise ValueError(f"pmf masses must be finite, got {reprlib.repr(pmf.tolist())}")
        if (pmf <= 0.0).any():
            raise ValueError("pmf masses must be positive (zero-mass outcomes are dropped at build time)")
        if abs(total - 1.0) > ATOM_TOL:
            raise ValueError(f"pmf must sum to 1 within {ATOM_TOL}, got {total!r}")

    def cdf(self) -> np.ndarray:
        """Cumulative masses, with the final value forced to exactly 1."""
        F = self.pmf.cumsum()
        F[-1] = 1.0
        return F

    def index_of(self, x: int) -> int:
        i = int(self.support.searchsorted(x))
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
        family = _json(obj, "object", "a model").get("family")
        if family == "custom":
            return make_statistic_model("custom", {k: _json_numbers(obj[k], f"the model's {k!r}")
                                                   for k in ("support", "pmf") if k in obj})
        return make_statistic_model(family, _json(obj.get("params", {}), "object",
                                                  f"the {family} params"))


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
        if not atoms[0] > 0.0:   # NaN fails too
            raise ValueError("the first atom must be positive")
        if abs(atoms[-1] - 1.0) > ATOM_TOL:
            raise ValueError(f"the last atom must equal 1 within {ATOM_TOL}, got {float(atoms[-1])!r}")
        atoms[-1] = 1.0  # pin before the monotonicity check so a pinned
        # duplicate at the top is rejected as a zero-mass atom
        if not (atoms[1:] > atoms[:-1]).all():   # NaN fails too
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
        obj = _json(obj, "object", "a p-value distribution", ("F", "side"))
        return custom_pvalue_distribution(_json_numbers(obj["F"], "the atoms 'F'"), obj["side"])


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


_JSON_TYPES = {"object": Mapping, "list": (list, tuple), "number": (int, float)}


def _json(value, kind: str, what: str, keys: Sequence[str] = ()):
    """``value``, which must be a JSON ``kind`` ("object", "list" or
    "number"; a bool is not a number) holding ``keys``.  A number must be
    finite, and the exact int/float comparison also refuses an integer too
    large for a float."""
    _require(isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool),
             f"{what} must be a JSON {kind}, got {reprlib.repr(value)}")
    _require(kind != "number" or abs(value) <= sys.float_info.max,
             f"{what} must be finite, got {reprlib.repr(value)}")
    for key in keys:
        _require(key in value, f"{what} needs the key {key!r}")
    return value


def _json_numbers(value, what: str) -> list:
    return [_json(v, "number", f"each entry of {what}") for v in _json(value, "list", what)]


def _param(params: Mapping, key: str) -> float:
    _require(key in params, f"missing parameter {key!r}")
    try:
        if isinstance(params[key], (bool, np.bool_)):  # float() would make it 0 or 1
            raise TypeError
        return float(params[key])
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} must be a finite number, got {reprlib.repr(params[key])}") from None


def _as_positive_int(params: Mapping, key: str, minimum: int = 1) -> int:
    # integrality is decided on the float, so the string '3.5' is refused
    # in the same words as the number 3.5
    f = _param(params, key)
    _require(math.isfinite(f) and f.is_integer(),
             f"{key} must be an integer, got {params[key]!r}")
    v = int(f)
    _require(v >= minimum, f"{key} must be >= {minimum}, got {v}")
    return v


def _as_prob(params: Mapping, key: str) -> float:
    v = _param(params, key)
    _require(0.0 < v < 1.0, f"{key} must be in (0, 1), got {v}")
    return v


def _as_positive_real(params: Mapping, key: str) -> float:
    v = _param(params, key)
    _require(0.0 < v < math.inf, f"{key} must be a positive finite number, got {v}")
    return v


def _refuse_support(points: str) -> NoReturn:
    raise ValueError(f"the support would have {points} points, more than the cap of {SUPPORT_CAP}")


def _support(lo: int, hi: int) -> np.ndarray:
    """The integers lo..hi, refused before any allocation above SUPPORT_CAP."""
    if hi - lo + 1 > SUPPORT_CAP:
        _refuse_support(str(hi - lo + 1))
    return np.arange(lo, hi + 1)


# ---------------------------------------------------------------------------
# pmf and tail kernels of the named families (also used by simulate)
# ---------------------------------------------------------------------------

def _poisson_pmf(k, rate: float):
    return np.exp(special.xlogy(k, rate) - special.gammaln(k + 1) - rate)


def _geom_pmf(k, p: float):
    return np.power(1.0 - p, k - 1) * p


def _geom_cdf(k, p: float):
    return -np.expm1(np.log1p(-p) * k)


def _geom_sf(k, p: float):
    return np.exp(k * np.log1p(-p))


def _nbinom_cdf(k, r: int, p: float):
    """P(X <= k) for X the failures before the r-th success."""
    return special.betainc(r, k + 1, p)


def _nbinom_sf(k, r: int, p: float):
    """P(X > k) for X the failures before the r-th success."""
    return special.betaincc(r, k + 1, p)


def _mode_anchored(ratios: np.ndarray) -> np.ndarray:
    """Masses f(0..n) from the decreasing ratios f(k+1)/f(k), summing to 1.

    The products run outward from the mode, so no partial product exceeds
    one and far tails underflow gradually to zero instead of overflowing."""
    mode = int(np.count_nonzero(ratios > 1.0))
    w = np.empty(ratios.size + 1)
    w[mode] = 1.0
    w[mode + 1:] = ratios[mode:].cumprod()
    w[:mode] = (1.0 / ratios[:mode][::-1]).cumprod()[::-1]
    return w / w.sum()


def _hypergeom_masses(N: int, K: int, m: int, odds: float,
                      lo: int, hi: int) -> np.ndarray:
    """Fisher's noncentral hypergeometric masses on lo..hi; odds 1 is the
    central law."""
    k = np.arange(lo, hi, dtype=float)
    return _mode_anchored((K - k) * (m - k) / ((k + 1.0) * (N - K - m + 1.0 + k)) * odds)


def _first(pred: Callable[[int], bool], lo: int, start: int) -> int:
    """The smallest k >= lo at which a monotone predicate turns true.

    The bracket doubles its distance from lo, beginning at ``start``, and is
    then bisected, so the predicate runs O(log k) times."""
    a, b = lo - 1, max(lo, start)
    while not pred(b):
        a, b = b, lo + 2 * (b - lo) + 1
    while b - a > 1:
        mid = (a + b) // 2
        a, b = (a, mid) if pred(mid) else (mid, b)
    return b


def _truncated_counts(sf: Callable, masses: Callable, lo: int,
                      mean: float) -> tuple[np.ndarray, np.ndarray]:
    """Support and pmf of an unbounded count law, cut at the first point hi
    whose residual upper tail sf(hi) drops below TAIL_EPS; the last point
    takes the mass P(X >= hi) so the masses sum to one.

    The cut is searched from the law's mean with O(log hi) tail calls and
    nothing allocated, so a support over SUPPORT_CAP is refused with its
    exact size.  A mean past 2**52 points, where doubles no longer step by
    one, is refused unsearched."""
    if not mean - lo < 2.0 ** 52:  # also refuses a NaN mean
        _refuse_support(f"over {mean - lo:.3g}")
    hi = _first(lambda k: sf(k) < TAIL_EPS, lo, math.ceil(mean))
    ks = _support(lo, hi)
    pmf = np.empty(ks.size)
    pmf[:-1] = masses(ks[:-1])
    pmf[-1] = sf(hi - 1) if hi > lo else 1.0
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
        pmf = _binom_pmf(support, n, theta)
        params = {"trials": n, "prob": theta}
    elif family == "poisson":
        rate = _as_positive_real(params, "rate")
        support, pmf = _truncated_counts(lambda k: special.pdtrc(k, rate),
                                         lambda ks: _poisson_pmf(ks, rate), 0, rate)
        params = {"rate": rate}
    elif family == "geometric":
        p = _as_prob(params, "prob")
        support, pmf = _truncated_counts(lambda k: _geom_sf(k, p),
                                         lambda ks: _geom_pmf(ks, p), 1, 1.0 / p)
        params = {"prob": p}
    elif family == "negative-binomial":
        r = _as_positive_int(params, "successes")
        p = _as_prob(params, "prob")
        fail, pmf = _truncated_counts(
            lambda k: _nbinom_sf(k, r, p),
            lambda ks: _mode_anchored((ks[:-1] + r) / (ks[:-1] + 1.0) * (1.0 - p)),
            0, r * (1.0 - p) / p)
        support = fail + r  # number of trials until the r-th success
        params = {"successes": r, "prob": p}
    elif family in ("hypergeometric", "noncentral-hypergeometric"):
        N = _as_positive_int(params, "population")
        K = _as_positive_int(params, "successes", minimum=0)
        m = _as_positive_int(params, "draws")
        _require(K <= N, f"successes must be <= population, got {K} > {N}")
        _require(m <= N, f"draws must be <= population, got {m} > {N}")
        odds = 1.0
        if family == "noncentral-hypergeometric":
            odds = _as_positive_real(params, "odds")
        lo, hi = max(0, m + K - N), min(m, K)
        support = _support(lo, hi)
        pmf = _hypergeom_masses(N, K, m, odds, lo, hi)
        params = {"population": N, "successes": K, "draws": m}
        if family == "noncentral-hypergeometric":
            params["odds"] = odds
    elif family == "custom":
        _require("support" in params and "pmf" in params,
                 "custom models need 'support' and 'pmf'")
        support = np.array(params["support"], dtype=np.int64)  # a copy: the model must not alias it
        pmf = np.asarray(params["pmf"], dtype=float)
        _require(support.shape == pmf.shape and support.ndim == 1,
                 "support and pmf must be 1-D arrays of equal length")
        _require(bool(np.all(pmf >= 0.0)), "custom pmf masses must be nonnegative")
        params = {}
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")

    # named pmfs drift from one by rounding, and the folded tail adds up to
    # TAIL_EPS; a pmf further off than CUSTOM_PMF_TOL is broken, not rounded
    total = float(pmf.sum())
    _require(abs(total - 1.0) <= CUSTOM_PMF_TOL,
             f"{family} pmf must sum to 1 within {CUSTOM_PMF_TOL}, got {total!r}")
    pmf = pmf / total  # renormalize so the atom invariants hold exactly

    # drop outcomes whose probability underflowed to exactly zero
    keep = pmf > 0.0
    if not keep.all():
        support, pmf = support[keep], pmf[keep]
    return StatisticModel(family=family, params=params, support=support, pmf=pmf)


def _two_sided_grouping(pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and outcome->atom map for two-sided p-values.

    Outcomes are grouped from least likely upward; a group takes every
    following mass within TIE_RTOL of its first one and contributes a
    single atom, the running sum of the group sums.

    A gap over TIE_RTOL between sorted neighbours always ends a group.
    A run between such gaps that spans no more than TIE_RTOL is one
    group; only a wider run, a chain of near ties, is split by walking
    it from each group's first element."""
    order = pmf.argsort(kind="stable")
    p = pmf[order]
    start = np.empty(p.size, dtype=bool)
    start[0] = True
    np.greater(p[1:] - p[:-1], TIE_RTOL * p[1:], out=start[1:])
    starts = start.nonzero()[0]
    group = start.cumsum() - 1
    chained = p - p[starts[group]] > TIE_RTOL * p
    if chained.any():
        runs = [*starts.tolist(), p.size]
        for r in set(group[chained].tolist()):
            i, end = runs[r], runs[r + 1]
            while i < end:
                j = i + 1
                while j < end and p[j] - p[i] <= TIE_RTOL * p[j]:
                    j += 1
                start[i] = True
                i = j
        starts = start.nonzero()[0]
        group = start.cumsum() - 1
    sizes = np.empty_like(starts)
    sizes[:-1] = starts[1:] - starts[:-1]
    sizes[-1] = p.size - starts[-1]
    sums = np.add.reduceat(p, starts)
    # reduceat adds left to right and np.sum pairwise after the first
    # element, so they agree on groups of one or two members only
    for k in (sizes > 2).nonzero()[0].tolist():
        sums[k] = p[starts[k]:starts[k] + sizes[k]].sum()
    outcome_map = np.empty(p.size, dtype=np.int64)
    outcome_map[order] = group
    atoms = sums.cumsum()
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
        atoms = model.pmf[::-1].cumsum()  # atoms[j] = P(X >= x_{m-1-j})
        atoms[-1] = 1.0
        outcome_map = (m - 1) - np.arange(m)
    else:
        atoms, outcome_map = _two_sided_grouping(model.pmf)
    # on every side the atoms are running sums of positive masses, the last
    # pinned to 1, so once clipped at 1 they never decrease: the values that
    # rounding repeats or pushes past 1 form runs, and each run shares its
    # first atom, which is what np.unique would keep
    atoms = np.minimum(atoms, 1.0)
    tied = atoms[1:] == atoms[:-1]
    if tied.any():
        first = np.concatenate(([True], ~tied))
        atoms = atoms[first]
        outcome_map = (first.cumsum() - 1)[outcome_map]
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
