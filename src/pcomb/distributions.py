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
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

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

from ._inputs import (INT64_MAX, _instance, _json, _refuse, _refuse_support, _require,
                      cap_support, integer, number, numbers, probability)

#: each family with the parameters it takes, all of them required
FAMILY_PARAMS = {"binomial": ("trials", "prob"), "poisson": ("rate",),
                 "negative-binomial": ("successes", "prob"), "geometric": ("prob",),
                 "hypergeometric": ("population", "successes", "draws"),
                 "noncentral-hypergeometric": ("population", "successes", "draws", "odds"),
                 "custom": ("support", "pmf")}
FAMILIES = tuple(FAMILY_PARAMS)
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
        Strictly increasing outcomes; read-only, as is ``pmf``.
    pmf : ndarray of float
        Matching masses; positive, summing to one within 1e-12.
    """

    family: str
    params: Mapping[str, float]
    support: np.ndarray
    pmf: np.ndarray

    def __post_init__(self):
        support = numbers(self.support, "support", integral=True).copy()
        pmf = numbers(self.pmf, "pmf", finite=False).copy()
        support.flags.writeable = pmf.flags.writeable = False   # copies: never the caller's
        self.__dict__.update(support=support, pmf=pmf)   # past the frozen __setattr__
        if pmf.shape != support.shape or support.size == 0:
            raise ValueError("support and pmf must be 1-D arrays of equal, nonzero length")
        _require((support[1:] > support[:-1]).all(), "support must be strictly increasing")
        total = float(pmf.sum())
        # a NaN or infinite mass makes the sum non-finite; only then is it looked for
        if not math.isfinite(total) and not np.isfinite(pmf).all():
            raise _refuse("pmf masses", "finite", pmf.tolist())
        if (pmf <= 0.0).any():
            raise ValueError("pmf masses must be positive (zero-mass outcomes are dropped at build time)")
        if abs(total - 1.0) > ATOM_TOL:
            raise ValueError(f"pmf must sum to 1 within {ATOM_TOL}, got {total!r}")

    def cdf(self) -> np.ndarray:
        """Cumulative masses, capped at 1 and ending at exactly 1."""
        return _closed(self.pmf.cumsum())

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
            return make_statistic_model("custom", {k: obj[k] for k in ("support", "pmf") if k in obj})
        return make_statistic_model(family, _json(obj.get("params", {}), "object",
                                                  f"the {family} params"))


@dataclass(frozen=True, eq=False)
class DiscretePValueDist:
    """Atoms F_1 < ... < F_m of a sided discrete p-value (F_m = 1).

    ``outcome_map`` maps a support index of the generating model to the
    atom index the outcome's p-value falls on; it is None for custom
    distributions, which carry no statistic model.  Both are read-only.
    """

    atoms: np.ndarray
    side: str
    model: StatisticModel | None = None
    outcome_map: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        atoms = numbers(self.atoms, "atoms").copy()  # the tail atom is pinned below
        object.__setattr__(self, "atoms", atoms)
        _require(atoms.size, "atoms must be a nonempty 1-D sequence")
        if self.side not in SIDES:
            raise _refuse("side", f"one of {SIDES}", self.side, repr)
        _require(atoms[0] > 0.0, "the first atom must be positive")   # NaN fails too
        if abs(atoms[-1] - 1.0) > ATOM_TOL:
            raise ValueError(f"the last atom must equal 1 within {ATOM_TOL}, got {float(atoms[-1])!r}")
        atoms[-1] = 1.0  # pin before the monotonicity check so a pinned
        # duplicate at the top is rejected as a zero-mass atom
        _require((atoms[1:] > atoms[:-1]).all(),   # NaN fails too
                 "atoms must be strictly increasing (zero-mass atom)")
        atoms.flags.writeable = False
        if self.outcome_map is not None:   # a copy, so the caller's stays writable
            object.__setattr__(self, "outcome_map", np.array(self.outcome_map))
            self.outcome_map.flags.writeable = False

    @property
    def masses(self) -> np.ndarray:
        return np.diff(self.atoms, prepend=0.0)

    def __len__(self) -> int:
        return int(self.atoms.size)

    def atom_of(self, x: int) -> tuple[float, int]:
        """Atom value and index for an observed statistic ``x``."""
        j = self._atom_index(integer(x, "an observation"))
        return float(self.atoms[j]), j

    def _atom_index(self, x: int) -> int:
        """Atom index of an observation already read as an int.

        A named family's support is a run of integers, so x sits at offset
        x - support[0]; a custom support, dropped zero-mass outcomes or an
        observation off the support miss that read and are searched."""
        if self.model is None or self.outcome_map is None:
            raise ValueError("this distribution has no statistic model attached")
        support = self.model.support
        i = x - support.item(0)
        if not (0 <= i < support.size and support.item(i) == x):
            i = int(support.searchsorted(x))
            if i >= support.size or support.item(i) != x:
                raise ValueError(f"observation {x!r} is not in the model support")
        return self.outcome_map.item(i)

    def to_json(self) -> dict:
        return {"side": self.side, "F": self.atoms.tolist()}

    @staticmethod
    def from_json(obj: Mapping) -> "DiscretePValueDist":
        obj = _json(obj, "object", "a p-value distribution", ("F", "side"))
        return custom_pvalue_distribution(numbers(obj["F"], "F"), obj["side"])


def _built(cls, **fields):
    """``cls`` holding ``fields`` unchecked: valid as built, their arrays read-only."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _closed(cum: np.ndarray) -> np.ndarray:
    """Running sums ``cum`` made a cdf in place: capped at 1, which rounding
    can overshoot by an ulp or two, and the last value exactly 1."""
    np.minimum(cum, 1.0, out=cum)
    cum[-1] = 1.0
    return cum


def _run_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The sum of each run of ``values`` from ``starts[k]`` (ascending from 0)
    to the next start, bit for bit the ``np.add.reduce`` of that run alone.

    A +0.0 goes in front of each run and one ``np.add.reduceat`` sums the
    runs: it starts a group from its first element, here the zero, and adds
    the pairwise sum of the rest, the order in which reduce sums a run from
    0.0 (checked on numpy 2.4.6; the tests pin the installed numpy)."""
    return _laid_sums(values, *_run_layout(values.size, starts))


def _run_layout(size: int, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_run_sums``' layout of ``size`` values in runs from ``starts``: each
    run's zero slot in the padded copy, and the mask of the value slots."""
    led = starts + np.arange(starts.size)
    slots = np.ones(size + starts.size, dtype=bool)
    slots[led] = False
    return led, slots


def _laid_sums(values: np.ndarray, led: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """``_run_sums`` over a layout from ``_run_layout``."""
    padded = np.zeros(slots.size)
    padded[slots] = values
    return np.add.reduceat(padded, led)


def _dist_entries(dists: list, name: str) -> list[DiscretePValueDist]:
    """``dists``, a list, once every entry is found to be a p-value distribution."""
    for i, d in enumerate(dists):
        if not isinstance(d, DiscretePValueDist):   # tested inline: this runs once per test
            _instance(d, DiscretePValueDist, f"{name}[{i}]", "a p-value distribution")
    return dists


def _support(lo: int, hi: int) -> np.ndarray:
    """The integers lo..hi, refused unallocated above SUPPORT_CAP or int64."""
    cap_support(hi - lo + 1)
    if hi > INT64_MAX:
        raise _refuse("support entries", "64-bit integers", hi, str)
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
        raise _refuse_support(f"over {mean - lo:.3g}")
    hi = _first(lambda k: sf(k) < TAIL_EPS, lo, math.ceil(mean))
    ks = _support(lo, hi)
    pmf = np.empty(ks.size)
    pmf[:-1] = masses(ks[:-1])
    pmf[-1] = sf(hi - 1) if hi > lo else 1.0
    return ks, pmf


def make_statistic_model(family: str, params: Mapping | None = None) -> StatisticModel:
    """Build a normalized, truncated StatisticModel for a named family.

    Each family takes exactly the parameters ``FAMILY_PARAMS`` lists, and
    each value goes through the input policy of ``pcomb._inputs``.  The
    negative-binomial support counts trials, as the geometric's (1, 2, ...)
    does."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    params = dict(params or {})
    takes = FAMILY_PARAMS[family]
    for key in params:
        _require(key in takes, f"the {family} model takes no parameter {key!r}")
    for key in takes:
        _require(key in params, f"the {family} model needs the parameter {key!r}")
    if family == "binomial":
        n = integer(params["trials"], "trials", 1)
        theta = probability(params["prob"], "prob")
        support = _support(0, n)
        pmf = _binom_pmf(support, n, theta)
        params = {"trials": n, "prob": theta}
    elif family == "poisson":
        rate = number(params["rate"], "rate", positive=True)
        support, pmf = _truncated_counts(lambda k: special.pdtrc(k, rate),
                                         lambda ks: _poisson_pmf(ks, rate), 0, rate)
        params = {"rate": rate}
    elif family == "geometric":
        p = probability(params["prob"], "prob")
        support, pmf = _truncated_counts(lambda k: _geom_sf(k, p),
                                         lambda ks: _geom_pmf(ks, p), 1, 1.0 / p)
        params = {"prob": p}
    elif family == "negative-binomial":
        r = integer(params["successes"], "successes", 1, INT64_MAX)
        p = probability(params["prob"], "prob")
        fail, pmf = _truncated_counts(
            lambda k: _nbinom_sf(k, r, p),
            lambda ks: _mode_anchored((ks[:-1] + r) / (ks[:-1] + 1.0) * (1.0 - p)),
            0, r * (1.0 - p) / p)
        support = _support(r, r + int(fail[-1]))  # trials until the r-th success
        params = {"successes": r, "prob": p}
    elif family in ("hypergeometric", "noncentral-hypergeometric"):
        N = integer(params["population"], "population", 1)
        K = integer(params["successes"], "successes", 0)
        m = integer(params["draws"], "draws", 1)
        for name, count in (("successes", K), ("draws", m)):
            if count > N:
                raise _refuse(name, "<= population", f"{count} > {N}", str)
        odds = number(params["odds"], "odds", positive=True) if "odds" in takes else 1.0
        lo, hi = max(0, m + K - N), min(m, K)
        support = _support(lo, hi)
        pmf = _hypergeom_masses(N, K, m, odds, lo, hi)
        params = dict(zip(takes, (N, K, m, odds)))
    else:
        support = numbers(params["support"], "support", integral=True)
        pmf = numbers(params["pmf"], "pmf")
        _require(support.shape == pmf.shape,
                 "support and pmf must be 1-D arrays of equal length")
        _require(bool(np.all(pmf >= 0.0)), "custom pmf masses must be nonnegative")
        params = {}

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
    if family == "custom":   # only a custom support is the caller's to check
        return StatisticModel(family=family, params=params, support=support, pmf=pmf)
    support.flags.writeable = pmf.flags.writeable = False
    return _built(StatisticModel, family=family, params=params, support=support, pmf=pmf)


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
    outcome_map = np.empty(p.size, dtype=np.int64)
    if start.all():   # tie-free: every outcome is a group of its own
        outcome_map[order] = np.arange(p.size)
        return _closed(p.cumsum()), outcome_map
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
    sums = _run_sums(p, starts)
    outcome_map[order] = group
    return _closed(sums.cumsum()), outcome_map


def pvalue_distribution(model: StatisticModel, side: str) -> DiscretePValueDist:
    """Sided discrete p-value distribution of a statistic model."""
    _instance(model, StatisticModel, "model", "a statistic model")
    if side not in SIDES:
        raise _refuse("side", f"one of {SIDES}", side, repr)
    m = model.pmf.size
    if side == "left":
        atoms = model.cdf()
        outcome_map = np.arange(m)
    elif side == "right":
        atoms = _closed(model.pmf[::-1].cumsum())  # atoms[j] = P(X >= x_{m-1-j})
        outcome_map = np.arange(m - 1, -1, -1)
    else:
        atoms, outcome_map = _two_sided_grouping(model.pmf)
    # on every side the atoms are closed running sums of positive masses,
    # so they never decrease: the values that rounding repeats or caps at 1
    # form runs, and keeping each run's first atom (as np.unique would)
    # leaves them valid as built
    tied = atoms[1:] == atoms[:-1]
    if tied.any():
        first = np.concatenate(([True], ~tied))
        atoms = atoms[first]
        outcome_map = (first.cumsum() - 1)[outcome_map]
    atoms.flags.writeable = outcome_map.flags.writeable = False
    return _built(DiscretePValueDist, atoms=atoms, side=side, model=model,
                  outcome_map=outcome_map)


def custom_pvalue_distribution(atom_sequence: Sequence[float], side: str) -> DiscretePValueDist:
    """Validated distribution from explicit atoms; carries no model, so
    ``atom_of`` is unavailable."""
    return DiscretePValueDist(atoms=atom_sequence, side=side)
