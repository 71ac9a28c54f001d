"""Monte-Carlo Type I error and power experiments, scenario generators,
the geometric likelihood-ratio comparator, an exact small-n convolution
oracle, and the embedded gene-level example.

Replication is deterministic and independent of the worker count: each
replicate draws from its own counter-based Philox substream, which
``_philox`` evaluates in numpy for a whole block of replicates at once; the
counter words that are constant along a row or a column stay that small
through the first rounds and are broadcast to full size only when the
rounds mix them.  A guide table per group (Chen & Asau 1974) turns each
uniform into its outcome index with one gather and one compare, and sends
only the few uniforms that land where cdf values crowd to
``searchsorted``; the indices are ``searchsorted``'s by construction.
Each replicate's score sums its tests strictly left to right, whatever
other methods run beside it, and the kernel reports aggregate integer
rejection counts, so neither the block size, the method set nor the
chunking of blocks over ``workers`` threads can change a single byte of
the output.  Threads overlap only inside numpy calls, which are short at
the default block size: on two cores the traced ``parallel_speedup`` of
``workers=2`` reads 0.81-0.93, a little slower than one worker.
"""

from __future__ import annotations

import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import _genedata, _philox
from .adjust import METHODS, AdjustedStatistic, adjust
from .combine import CombinedResult, combine_observations, surrogate
from .distributions import (DiscretePValueDist, _as_positive_int, _as_prob, _binom_cdf,
                            _first, _geom_cdf, _json, _json_numbers, _nbinom_cdf, _nbinom_sf,
                            _param, _require, custom_pvalue_distribution,
                            make_statistic_model, pvalue_distribution)

LRT_GEOMETRIC = "lrt-geometric"

GENERATOR_NAME = "philox"

#: cap on the materialized support size of the exact convolution
CONVOLUTION_CAP = 10_000_000
#: relative tolerance for merging equal convolution support values
CONVOLUTION_MERGE_RTOL = 1e-12
#: replicates x tests drawn at once by the replicate kernel; keeps its
#: temporaries (Philox lanes, uniforms, outcome indices, gathered scores)
#: near 1 MiB per thread.  2,000 replicates of the five methods at n = 100
#: took 12.8, 9.1, 9.0, 8.2 and 8.7 ms at 2^13 to 2^17 (median of 30, two
#: cores): 2^16 gains about 9% there at twice the temporaries
BLOCK_ELEMENTS = 1 << 15

SYNTHETIC_ATOMS = {
    # large mass 0.4 at the left, right, and center, and 0.3 at both ends
    "PL": np.arange(40, 101) / 100.0,
    "PR": np.concatenate([np.arange(1, 61), [100]]) / 100.0,
    "PC": np.concatenate([np.arange(1, 31), [70], np.arange(71, 101)]) / 100.0,
    "PS": np.concatenate([[30], np.arange(31, 71), [100]]) / 100.0,
}


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Group:
    """One distinct per-test design: a null p-value distribution plus the
    cdf of its outcomes under an alternative parameter."""

    dist: DiscretePValueDist
    alt_cdf_fn: object              # callable alt_param -> outcome cdf, or None

    @property
    def null_cdf(self) -> np.ndarray:
        """Outcome cdf under the null; model-less outcomes are the atoms."""
        return self.dist.atoms if self.dist.model is None else self.dist.model.cdf()

    @property
    def outcome_atoms(self) -> np.ndarray:
        """Atom index of each outcome; model-less outcomes are the atoms."""
        if self.dist.outcome_map is None:
            return np.arange(len(self.dist))
        return self.dist.outcome_map

    def cdf_for(self, alt_param) -> np.ndarray:
        if alt_param is None or self.alt_cdf_fn is None:
            return self.null_cdf
        return self.alt_cdf_fn(alt_param)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A sampling scenario: per-test null p-value distributions plus a
    one-parameter family of alternatives for the underlying statistic.

    A scenario constructor (or ``scenario_from_json``) checks each parameter
    by name (``trials`` and ``points`` must be integral) and builds ``_groups``,
    one per distinct per-test design, so a bad parameter never reaches a run.
    ``null_param`` is the alternative-parameter value that reproduces the
    null (None for the synthetic distributions, which have no statistic
    model and therefore no alternative).
    """

    kind: str
    name: str
    side: str | None
    params: Mapping
    null_param: float | None
    _groups: tuple[_Group, ...] = field(repr=False)

    def null_dists(self) -> tuple[DiscretePValueDist, ...]:
        """The distinct per-test null distributions (one per group)."""
        return tuple(g.dist for g in self._groups)

    def group_assignment(self, n: int) -> np.ndarray:
        """Group index of each of the n tests (cyclic for non-i.i.d.)."""
        return np.arange(n) % len(self._groups)

    def to_json(self) -> dict:
        side = {} if self.side is None else {"side": self.side}
        return {"kind": self.kind, **self.params, **side}


def synthetic_scenario(name: str) -> Scenario:
    if not isinstance(name, str) or name not in SYNTHETIC_ATOMS:
        raise ValueError(f"unknown synthetic distribution {name!r}; "
                         f"expected one of {tuple(SYNTHETIC_ATOMS)}")
    atoms = SYNTHETIC_ATOMS[name]
    group = _Group(custom_pvalue_distribution(atoms, "left"), None)
    return Scenario("synthetic", name, None, {"name": name}, None, (group,))


def binomial_scenario(theta0: float, trials: int = 5, side: str = "left") -> Scenario:
    given = {"theta0": theta0, "trials": trials}
    theta0, trials = _as_prob(given, "theta0"), _as_positive_int(given, "trials")
    model = make_statistic_model("binomial", {"trials": trials, "prob": theta0})

    def alt_cdf(theta, _support=model.support, _trials=trials):
        theta = float(theta)
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"alternative parameter gives theta={theta}, outside [0, 1]")
        F = _binom_cdf(_support, _trials, theta)
        F[-1] = 1.0
        return F

    return Scenario("binomial", f"binomial-theta{theta0:g}-{side}", side,
                    {"theta0": theta0, "trials": trials}, theta0,
                    (_Group(pvalue_distribution(model, side), alt_cdf),))


def _geometric_groups(p0s: Sequence[float], side: str, offset: bool) -> tuple[_Group, ...]:
    """One group per null parameter p0; the alternative parameter is p1
    itself, or with ``offset`` a common offset added to each p0."""
    groups = []
    for p0 in p0s:
        model = make_statistic_model("geometric", {"prob": p0})

        def alt_cdf(param, _support=model.support, _p0=p0):
            # i.i.d. scenarios sweep p1 directly; non-i.i.d. ones sweep a
            # common offset added to each test's null parameter
            p1 = _p0 + float(param) if offset else float(param)
            if not 0.0 < p1 < 1.0:
                raise ValueError(f"alternative parameter gives p1={p1}, outside (0, 1)")
            # alternatives heavier than the null truncation are censored
            # into the last support point (residual < the null tail cap
            # for the swept ranges)
            F = _geom_cdf(_support, p1)
            F[-1] = 1.0
            return F

        groups.append(_Group(pvalue_distribution(model, side), alt_cdf))
    return tuple(groups)


def geometric_scenario(p0: float, side: str) -> Scenario:
    p0 = _as_prob({"p0": p0}, "p0")
    return Scenario("geometric", f"geometric-p{p0:g}-{side}", side, {"p0": p0}, p0,
                    _geometric_groups([p0], side, offset=False))


def geometric_noniid_scenario(p0_set: Sequence[float] = (0.2, 0.5, 0.8),
                              side: str = "right") -> Scenario:
    """Independent non-identical geometric tests: null parameters cycle
    through ``p0_set``; the alternative parameter is a common offset added
    to every test's null parameter."""
    given = {f"p0_set[{i}]": p for i, p in enumerate(p0_set)}
    _require(given, "p0_set must be nonempty")
    p0_set = tuple(_as_prob(given, key) for key in given)
    return Scenario("geometric-noniid", f"geometric-noniid-{side}", side, {"p0_set": p0_set},
                    0.0, _geometric_groups(p0_set, side, offset=True))


def circular_scenario(points: int) -> Scenario:
    """Uniform sampling on ``points`` equispaced circle points (odd), with
    the exponential concentration alternative."""
    N = _param({"points": points}, "points")
    _require(N >= 3 and N % 2 == 1, f"points must be an odd integer >= 3, got {points}")
    N = int(N)
    half = (N + 1) // 2
    atoms = (2.0 * np.arange(half) + 1.0) / N
    tvals = np.arange(half)

    def alt_cdf(lam, _tvals=tvals, _N=N):
        # weights proportional to exp(-lambda t), doubled off the pole;
        # the normalizing constant is computed by direct summation
        lam = float(lam)
        if not 0.0 <= lam < math.inf:
            raise ValueError(f"alternative parameter gives lambda={lam}, outside [0, inf)")
        with np.errstate(over="ignore"):  # lambda t past the float range: exp gives 0
            w = np.exp(-lam * _tvals) * np.where(_tvals == 0, 1.0, 2.0)
        F = np.cumsum(w / w.sum())
        F[-1] = 1.0
        return F

    group = _Group(custom_pvalue_distribution(atoms, "right"), alt_cdf)
    return Scenario("circular", f"circular-{N}", None, {"points": N}, 0.0, (group,))


def scenario_from_json(obj: Mapping) -> Scenario:
    kind = _json(obj, "object", "a scenario").get("kind")

    def number(key, *default):
        return _json(obj.get(key, *default) if default else obj[key], "number",
                     f"the {kind} scenario's {key!r}")

    try:
        if kind == "synthetic":
            return synthetic_scenario(obj["name"])
        if kind == "binomial":
            return binomial_scenario(number("theta0"), number("trials", 5),
                                     obj.get("side", "left"))
        if kind == "geometric":
            return geometric_scenario(number("p0"), obj["side"])
        if kind == "geometric-noniid":
            p0_set = _json_numbers(obj.get("p0_set", (0.2, 0.5, 0.8)),
                                   f"the {kind} scenario's 'p0_set'")
            return geometric_noniid_scenario(p0_set, obj["side"])
        if kind == "circular":
            return circular_scenario(number("points"))
    except KeyError as exc:
        raise ValueError(f"{kind} scenario needs the key {exc.args[0]!r}") from None
    raise ValueError(f"unknown scenario kind {kind!r}")


# ---------------------------------------------------------------------------
# deterministic replication
# ---------------------------------------------------------------------------

class _GuideTable:
    """Outcome lookup on one group's cdf by a guide table (Chen & Asau 1974).

    The table splits [0, 1) into G = 2^k equal bins, G about four times the
    cdf's length and at most 2^14, and holds for bin j the number of cdf
    values below j/G.  A uniform u in bin j has at least that many below it,
    and one step forward (``cdf[idx] < u``) gives the exact count whenever
    the bin holds at most one cdf value.  Uniforms in crowded bins, such as
    a geometric tail's, are looked up by ``searchsorted`` instead."""

    def __init__(self, cdf: np.ndarray):
        # cumulative sums can overshoot 1 by an ulp or two; capped, the cdf
        # is nondecreasing, and no index moves since every u < 1
        self.cdf = np.minimum(cdf, 1.0)
        self.bins = 1 << min(14, (4 * self.cdf.size - 1).bit_length())
        edges = np.searchsorted(self.cdf, np.arange(self.bins + 1) / self.bins)
        self.table = edges[:-1]
        crowded = np.diff(edges) > 1
        self.crowded = crowded if crowded.any() else None

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """``np.searchsorted(cdf, u, side="left")``: the number of cdf values
        below each u in [0, 1)."""
        # u * G only shifts the exponent, so the bin index is exact
        j = (u * self.bins).astype(np.intp)
        idx = self.table.take(j)
        idx += self.cdf.take(idx) < u
        if self.crowded is not None:
            hard = self.crowded.take(j)
            if hard.any():
                idx[hard] = np.searchsorted(self.cdf, u[hard])
        return idx


class _Sampler:
    """Outcome lookup and test positions of each group, for n tests at one
    alternative parameter (None for the null)."""

    def __init__(self, scenario: Scenario, n: int, alt_param: float | None):
        self.n = n
        self.assign = scenario.group_assignment(n)
        # the assignment is cyclic, so slices (views, not copies) pick out
        # each group's tests
        ng = len(scenario._groups)
        self.group_pos = [slice(gi, None, ng) for gi in range(ng)]
        self.group_lookup = [_GuideTable(g.cdf_for(alt_param)) for g in scenario._groups]

    def outcomes(self, u: np.ndarray) -> list[np.ndarray]:
        """Outcome index of each group's tests, from uniforms whose last axis
        holds the n tests (one draw, or a block of replicates' draws): the
        number of the group's cdf values below each uniform, read from its
        guide table."""
        return [lookup(u[..., pos]) for lookup, pos in zip(self.group_lookup, self.group_pos)]


def _integer(what: str, value) -> int:
    """``value`` as an int; a bool, a float or any other non-integer would be
    truncated or fail deep inside a run, so it is refused here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def sample_pvalues(scenario: Scenario, rng: np.random.Generator, n: int,
                   alt_param: float | None = None) -> list[tuple[float, DiscretePValueDist]]:
    """Draw n observed p-values (with their null distributions).

    Under the null each p-value lands on atom i with mass p_i; under an
    alternative the statistic is drawn from the alternative model and
    mapped through the null model's sided p-value."""
    n = _integer("n", n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    if alt_param is not None and scenario.null_param is None:
        raise ValueError(f"scenario {scenario.name!r} has no alternative family")
    sampler = _Sampler(scenario, n, alt_param)
    out = [None] * n
    for g, pos, idx in zip(scenario._groups, sampler.group_pos, sampler.outcomes(rng.random(n))):
        for j, atom in zip(range(n)[pos], g.dist.atoms[g.outcome_atoms[idx]]):
            out[j] = (float(atom), g.dist)
    return out


@dataclass(frozen=True)
class ExperimentRow:
    scenario: str
    method: str
    n: int
    alt_param: float | None
    alpha: float
    reps: int
    rejections: int

    @property
    def proportion(self) -> float:
        return self.rejections / self.reps

    @property
    def mc_se(self) -> float:
        r = self.proportion
        return math.sqrt(r * (1.0 - r) / self.reps)


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ExperimentRow, ...]
    seed: int
    generator: str = GENERATOR_NAME

    def proportion(self, method: str, *, n: int | None = None,
                   alt_param: float | None = None) -> float:
        for r in self.rows:
            if (r.method == method and (n is None or r.n == n)
                    and (alt_param is None or r.alt_param == alt_param)):
                return r.proportion
        raise KeyError((method, n, alt_param))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("scenario,method,n,alt_param,alpha,reps,rejections,proportion,mc_se,seed\n")
        for r in self.rows:
            alt = "" if r.alt_param is None else f"{r.alt_param:.10g}"
            buf.write(f"{r.scenario},{r.method},{r.n},{alt},{r.alpha:.10g},"
                      f"{r.reps},{r.rejections},{r.proportion:.6f},"
                      f"{r.mc_se:.6f},{self.seed}\n")
        return buf.getvalue()


class _ConfigPrep(_Sampler):
    """Per-configuration sampling tables and rejection thresholds."""

    def __init__(self, scenario: Scenario, methods: Sequence[str], n: int,
                 alt_param: float | None, alpha: float):
        super().__init__(scenario, n, alt_param)
        groups = scenario._groups
        self.method_names = list(methods)

        score_rows, self.thresholds, self.upper = [], [], []
        for name in self.method_names:
            if name == LRT_GEOMETRIC:
                if scenario.kind != "geometric":
                    raise ValueError(f"{LRT_GEOMETRIC} is only defined for "
                                     f"i.i.d. geometric scenarios, not {scenario.kind!r}")
                score_rows.append([g.dist.model.support.astype(float) for g in groups])
                t, upper = _geometric_lrt_threshold(scenario, n, alpha)
                self.thresholds.append(t)
                self.upper.append(upper)
                continue
            adjusted = [adjust(name, g.dist) for g in groups]
            # z looked up directly by outcome index
            score_rows.append([adj.z[g.outcome_atoms] for adj, g in zip(adjusted, groups)])
            surr = surrogate(name, [adjusted[gi].variance for gi in self.assign])
            self.thresholds.append(surr.quantile(1.0 - alpha if surr.tail == "upper" else alpha))
            self.upper.append(surr.tail == "upper")

        # each group's score rows, one per method
        self.group_scores = list(zip(*score_rows))
        self.thresholds = np.asarray(self.thresholds)
        self.upper = np.asarray(self.upper, dtype=bool)


def _geometric_lrt_threshold(scenario: Scenario, n: int, alpha: float) -> tuple[float, bool]:
    """Conservative discrete threshold for the sum of n geometric trials.

    Right-sided p-values pair with alternatives p1 < p0 and reject large
    sums; left-sided ones reject small sums.  The threshold is the closest
    integer whose exact tail stays at or below alpha."""
    p0 = scenario.params["p0"]
    # the sum is n plus the failures X before the n-th success
    mean = math.ceil(n * (1.0 - p0) / p0)
    if scenario.side == "right":
        # reject X > k for the least k with P(X > k) <= alpha
        k = _first(lambda j: _nbinom_sf(j, n, p0) <= alpha, 0, mean)
        return float(n + k + 1), True
    # reject X < k for the least k with P(X <= k) > alpha
    k = _first(lambda j: _nbinom_cdf(j, n, p0) > alpha, 0, mean)
    return float(n + k - 1), False


def _block_scores(prep: _ConfigPrep, outcomes: list[np.ndarray]) -> np.ndarray:
    """Each method's combined statistic for a block of replicates, a
    (methods, replicates) array from each group's (replicates, tests)
    outcome indices.

    Every replicate adds its groups in turn, and within a group its tests
    strictly left to right: the reduction runs over the outer axis of a
    C-contiguous (tests, replicates) gather.  numpy merges away the size-one
    axis of a one-replicate block and would sum pairwise, so that block
    takes the last running sum instead."""
    scores = np.zeros((prep.thresholds.size, len(outcomes[0])))
    for group_scores, idx in zip(prep.group_scores, outcomes):
        if not idx.size:  # a group can have no tests when n is small
            continue
        idx = np.ascontiguousarray(idx.T)
        for row, total in zip(group_scores, scores):
            gathered = row[idx]
            total += (gathered.cumsum(axis=0)[-1] if len(total) == 1
                      else np.add.reduce(gathered, axis=0))
    return scores


def _run_config(prep: _ConfigPrep, reps: int, seed: int, config_index: int,
                workers: int) -> np.ndarray:
    nm = prep.thresholds.size
    block = max(1, BLOCK_ELEMENTS // prep.n)
    thresholds, upper = prep.thresholds[:, None], prep.upper[:, None]

    def chunk(lo: int, hi: int) -> np.ndarray:
        counts = np.zeros(nm, dtype=np.int64)
        for b0 in range(lo, hi, block):
            b1 = min(b0 + block, hi)
            # the uniforms are freed once the outcomes are drawn
            scores = _block_scores(prep, prep.outcomes(
                _philox.uniforms(seed, config_index, b0, b1, prep.n)))
            counts += np.where(upper, scores >= thresholds, scores <= thresholds).sum(axis=1)
        return counts

    # chunks start on block boundaries, so a run never has more threads
    # than blocks; the calling thread runs the first chunk itself
    blocks = -(-reps // block)
    step = -(-blocks // workers) * block
    bounds = [(lo, min(lo + step, reps)) for lo in range(0, reps, step)]
    if len(bounds) == 1:
        return chunk(0, reps)
    with ThreadPoolExecutor(max_workers=len(bounds) - 1) as pool:
        rest = pool.map(lambda b: chunk(*b), bounds[1:])
        counts = chunk(*bounds[0])
        for part in rest:
            counts += part
    return counts


def _experiment(scenario: Scenario, methods: Sequence[str], configs: Sequence[tuple],
                alpha: float, reps: int, seed: int, workers: int, grid_name: str,
                grid: Sequence) -> ExperimentReport:
    """Rejection counts of every method at each (n, alt_param) configuration;
    configuration i draws from Philox stream i.

    Settings that would otherwise fail deep inside a run, or be silently
    changed (seeds key Philox, which takes 128 bits; a fractional n or a
    bool would be truncated), are refused first."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    reps, seed = _integer("reps", reps), _integer("seed", seed)
    workers = _integer("workers", workers)
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps!r}")
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    if len(grid) == 0:
        raise ValueError(f"{grid_name} must be nonempty")
    if len(methods) == 0:
        raise ValueError("methods must name at least one method")
    configs = [(_integer("the number of tests n", n), alt) for n, alt in configs]
    for n, alt in configs:
        if n < 1:
            raise ValueError(f"the number of tests n must be >= 1, got {n!r}")
        for g in scenario._groups:
            g.cdf_for(alt)  # raises on a parameter outside the family's range
    rows = []
    for ci, (n, alt) in enumerate(configs):
        prep = _ConfigPrep(scenario, methods, n, alt, alpha)
        counts = _run_config(prep, reps, seed, ci, workers)
        rows.extend(ExperimentRow(scenario=scenario.name, method=m, n=prep.n, alt_param=alt,
                                  alpha=alpha, reps=reps, rejections=int(c))
                    for m, c in zip(methods, counts))
    return ExperimentReport(rows=tuple(rows), seed=seed)


def type1_experiment(scenario: Scenario, methods: Sequence[str], n_grid: Sequence[int],
                     alpha: float, reps: int, seed: int, workers: int = 1) -> ExperimentReport:
    """Null rejection proportions for each grid size and method."""
    return _experiment(scenario, methods, [(n, scenario.null_param) for n in n_grid],
                       alpha, reps, seed, workers, "n_grid", n_grid)


def power_experiment(scenario: Scenario, methods: Sequence[str], alt_grid: Sequence[float],
                     n: int, alpha: float, reps: int, seed: int,
                     workers: int = 1) -> ExperimentReport:
    """Rejection proportions across alternative-parameter values.

    ``methods`` may include the geometric likelihood-ratio comparator
    ``lrt-geometric`` for i.i.d. geometric scenarios.  At the grid point
    equal to the null parameter, power is the Type I error."""
    if scenario.null_param is None:
        raise ValueError(f"scenario {scenario.name!r} has no alternative family")
    return _experiment(scenario, methods, [(n, float(alt)) for alt in alt_grid],
                       alpha, reps, seed, workers, "alt_grid", alt_grid)


# ---------------------------------------------------------------------------
# exact convolution oracle
# ---------------------------------------------------------------------------

def _merge_support(values: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(values, kind="stable")
    v, w = values[order], masses[order]
    gaps = np.diff(v)
    tol = CONVOLUTION_MERGE_RTOL * np.maximum(np.abs(v[1:]), np.abs(v[:-1]))
    starts = np.concatenate(([0], np.flatnonzero(gaps > tol) + 1))
    group = np.repeat(np.arange(starts.size), np.diff(np.append(starts, v.size)))
    merged_w = np.bincount(group, weights=w)
    merged_v = np.bincount(group, weights=w * v) / merged_w
    return merged_v, merged_w


def exact_convolution(adjusted: AdjustedStatistic, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact support and masses of the n-fold sum of an adjusted statistic.

    Verification oracle; feasible only while the merged support stays
    under ``CONVOLUTION_CAP``.  Support values within 1e-12 relative are
    merged (mass-weighted)."""
    n = _integer("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    base_v = np.asarray(adjusted.z, dtype=float)
    base_w = np.asarray(adjusted.masses, dtype=float)
    values, masses = base_v.copy(), base_w.copy()
    for _ in range(n - 1):
        if values.size * base_v.size > CONVOLUTION_CAP:
            raise ValueError(f"convolution support would exceed {CONVOLUTION_CAP} points")
        values = (values[:, None] + base_v[None, :]).ravel()
        masses = (masses[:, None] * base_w[None, :]).ravel()
        values, masses = _merge_support(values, masses)
    return values, masses


# ---------------------------------------------------------------------------
# gene-level example
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneAssociationRow:
    gene: str
    side: str
    method: str
    statistic: float
    global_p: float


@dataclass(frozen=True)
class GeneExampleReport:
    rows: tuple[GeneAssociationRow, ...]

    def row(self, gene: str, side: str, method: str) -> GeneAssociationRow:
        for r in self.rows:
            if (r.gene, r.side, r.method) == (gene, side, method):
                return r
        raise KeyError((gene, side, method))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("gene,side,method,statistic,p\n")
        for r in self.rows:
            buf.write(f"{r.gene},{r.side},{r.method},{r.statistic:.6f},{r.global_p:.6f}\n")
        return buf.getvalue()

    def to_json(self) -> list:
        return [vars(r) for r in self.rows]


def gene_example() -> GeneExampleReport:
    """Gene-level association of the embedded case-control dataset.

    Each SNP's case-mutation count is tested against its hypergeometric
    null; per-gene p-values are combined for right-, left-, and two-sided
    alternatives with all five methods (2 genes x 3 sides x 5 methods)."""
    models = [make_statistic_model("hypergeometric",
                                   {"population": _genedata.POPULATION,
                                    "successes": _genedata.CASES,
                                    "draws": total})
              for total in _genedata.TOTAL_MUTATIONS]
    rows = []
    for gene, snp_idx in _genedata.GENES.items():
        observations = [_genedata.CASE_MUTATIONS[i] for i in snp_idx]
        for side in ("two", "right", "left"):
            dists = [pvalue_distribution(models[i], side) for i in snp_idx]
            for method in METHODS:
                res: CombinedResult = combine_observations(method, observations, dists)
                rows.append(GeneAssociationRow(gene=gene, side=side, method=method,
                                               statistic=res.statistic,
                                               global_p=res.global_p))
    return GeneExampleReport(rows=tuple(rows))
