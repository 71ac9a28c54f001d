"""Monte-Carlo Type I error and power experiments, scenario generators,
the geometric likelihood-ratio comparator, an exact small-n convolution
oracle, and the embedded gene-level example.

Replication is deterministic and independent of the worker count: each
configuration c reads one contiguous stream of numpy's ``PCG64DXSM``, seeded
by ``SeedSequence(seed, spawn_key=(c,))``, and replicate r takes doubles
[r n, (r + 1) n) of it, so a run can start at any replicate by ``advance``.
This stream is the generator ``"pcg64dxsm-stream"``; reports that say
``"philox-stream"`` or ``"philox"`` came from earlier Philox streams and
cannot be reproduced by this version.  A guide table per group (Chen & Asau
1974) turns each uniform into its outcome index with one gather and one
compare, and sends only the few uniforms that land where cdf values crowd to
``searchsorted``; the indices are ``searchsorted``'s by construction.  One
gather and one sum per group, from its (methods, outcomes) score table, give
a block's scores; each replicate sums its tests strictly left to right,
whatever other methods run beside it, and the kernel reports aggregate
integer rejection counts, so neither the block size, the method set nor the
chunking of blocks over ``workers`` threads can change a single byte of the
output.  Threads overlap only inside numpy calls, the uniform fill among
them; README gives the speed-ups ``workers`` has measured.
"""

from __future__ import annotations

import inspect
import io
import math
import os
import reprlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import _genedata, _special as special
from ._inputs import (INT64_MAX, SUPPORT_CAP, _instance, _json, _refuse, _require,
                      cap_support, integer, number, numbers, probability, sequence)
from .adjust import METHODS, AdjustedStatistic, adjust
from .combine import CombinedResult, combine_observations, surrogate
from .distributions import (DiscretePValueDist, _closed, _first, _geom_cdf,
                            _nbinom_cdf, _nbinom_sf, _support, custom_pvalue_distribution,
                            make_statistic_model, pvalue_distribution)

LRT_GEOMETRIC = "lrt-geometric"

GENERATOR_NAME = "pcg64dxsm-stream"

#: relative tolerance for merging equal convolution support values
CONVOLUTION_MERGE_RTOL = 1e-12
#: replicates x tests drawn at once by the replicate kernel; its uniforms,
#: outcome indices and score gather hold (methods + 2) x 256 KiB per thread.
#: 2,000 replicates of the five methods at n = 100 (circular-199) took 2.6,
#: 2.4, 2.4, 2.6 and 2.7 ms at 2^13 to 2^17 (best of three medians of 30,
#: two cores)
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
    alt_cdf_fn: object              # callable alt_param -> outcome running sums, or None

    @property
    def outcome_atoms(self) -> np.ndarray:
        """Atom index of each outcome; model-less outcomes are the atoms."""
        if self.dist.outcome_map is None:
            return np.arange(len(self.dist))
        return self.dist.outcome_map

    def cdf_for(self, alt_param) -> np.ndarray:
        """Outcome cdf under ``alt_param``, or under the null for None;
        model-less outcomes are the atoms, which are a cdf already."""
        if alt_param is None:
            return self.dist.atoms if self.dist.model is None else self.dist.model.cdf()
        return _closed(self.alt_cdf_fn(alt_param))


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
    theta0, trials = probability(theta0, "theta0"), integer(trials, "trials", 1)
    model = make_statistic_model("binomial", {"trials": trials, "prob": theta0})

    def alt_cdf(theta, _support=model.support, _trials=trials):
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"alternative parameter gives theta={theta}, outside [0, 1]")
        return special._binom_cdf(_support, _trials, theta)

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
            p1 = _p0 + param if offset else param
            if not 0.0 < p1 < 1.0:
                raise ValueError(f"alternative parameter gives p1={p1}, outside (0, 1)")
            # alternatives heavier than the null truncation are censored into
            # the last support point when ``cdf_for`` closes these sums
            # (residual < the null tail cap for the swept ranges)
            return _geom_cdf(_support, p1)

        groups.append(_Group(pvalue_distribution(model, side), alt_cdf))
    return tuple(groups)


def geometric_scenario(p0: float, side: str) -> Scenario:
    p0 = probability(p0, "p0")
    return Scenario("geometric", f"geometric-p{p0:g}-{side}", side, {"p0": p0}, p0,
                    _geometric_groups([p0], side, offset=False))


def geometric_noniid_scenario(p0_set: Sequence[float] = (0.2, 0.5, 0.8),
                              side: str = "right") -> Scenario:
    """Independent non-identical geometric tests: null parameters cycle
    through ``p0_set``; the alternative parameter is a common offset added
    to every test's null parameter."""
    p0_set = numbers(p0_set, "p0_set")
    _require(p0_set.size, "p0_set must be nonempty")
    p0_set = tuple(probability(p, f"p0_set[{i}]") for i, p in enumerate(p0_set.tolist()))
    return Scenario("geometric-noniid", f"geometric-noniid-{side}", side, {"p0_set": p0_set},
                    0.0, _geometric_groups(p0_set, side, offset=True))


def circular_scenario(points: int) -> Scenario:
    """Uniform sampling on ``points`` equispaced circle points (odd), with
    the exponential concentration alternative."""
    # exact, so an odd count past 2**53 stays odd; a fraction is not an odd integer
    N = integer(points, "points") if number(points, "points").is_integer() else 0
    if N < 3 or N % 2 == 0:
        raise _refuse("points", "an odd integer >= 3", points, str)
    tvals = _support(0, (N - 1) // 2)   # one atom per distance from the pole
    atoms = (2.0 * tvals + 1.0) / N

    def alt_cdf(lam, _tvals=tvals):
        # weights proportional to exp(-lambda t), doubled off the pole;
        # the normalizing constant is computed by direct summation
        if not 0.0 <= lam < math.inf:
            raise ValueError(f"alternative parameter gives lambda={lam}, outside [0, inf)")
        with np.errstate(over="ignore"):  # lambda t past the float range: exp gives 0
            w = np.exp(-lam * _tvals) * np.where(_tvals == 0, 1.0, 2.0)
        return np.cumsum(w / w.sum())

    group = _Group(custom_pvalue_distribution(atoms, "right"), alt_cdf)
    return Scenario("circular", f"circular-{N}", None, {"points": N}, 0.0, (group,))


_SCENARIO_KINDS = {"synthetic": synthetic_scenario, "binomial": binomial_scenario,
                   "geometric": geometric_scenario, "circular": circular_scenario,
                   "geometric-noniid": geometric_noniid_scenario}


def scenario_from_json(obj: Mapping) -> Scenario:
    """The scenario built by the constructor ``kind`` names, from the other
    keys; a key left out takes the constructor's default.  The constructor
    checks each value, the numbers by the input policy of ``pcomb._inputs``."""
    obj = _json(obj, "object", "a scenario")
    kind = obj.get("kind")
    build = _SCENARIO_KINDS.get(kind) if isinstance(kind, str) else None
    _require(build is not None, f"unknown scenario kind {kind!r}")
    params = inspect.signature(build).parameters
    args = {key: value for key, value in obj.items() if key != "kind"}
    for key in args:
        _require(key in params, f"the {kind} scenario takes no key {key!r}")
    for key, param in params.items():
        _require(key in args or param.default is not param.empty,
                 f"{kind} scenario needs the key {key!r}")
    return build(**args)


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
    a geometric tail's, are looked up by ``searchsorted`` instead.

    ``cdf`` is taken as given and must be closed as ``_Group.cdf_for``
    closes it: nondecreasing, at most 1 and ending at exactly 1."""

    def __init__(self, cdf: np.ndarray):
        self.cdf = cdf
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


def sample_pvalues(scenario: Scenario, rng: np.random.Generator, n: int,
                   alt_param: float | None = None) -> list[tuple[float, DiscretePValueDist]]:
    """Draw n observed p-values (with their null distributions).

    Under the null each p-value lands on atom i with mass p_i; under an
    alternative the statistic is drawn from the alternative model and
    mapped through the null model's sided p-value."""
    _instance(scenario, Scenario, "scenario", "a scenario")
    _require(callable(getattr(rng, "random", None)),
             f"rng must have a random(n) method, as a numpy Generator does, got {reprlib.repr(rng)}")
    n = integer(n, "n", 0, SUPPORT_CAP)
    if alt_param is not None:
        alt_param = number(alt_param, "alt_param", finite=False)
        if scenario.null_param is None:
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

    def to_json(self) -> dict:
        rows = [{**vars(r), "proportion": r.proportion, "mc_se": r.mc_se} for r in self.rows]
        return {"seed": self.seed, "generator": self.generator, "rows": rows}

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
    """Per-configuration sampling tables and rejection thresholds.  A lower-tail
    method's score rows and threshold are stored negated, so every method rejects
    on ``>=``; negation commutes with rounding, so the negated sums are -S exactly.
    Each method's adjustment per group (None for the LRT comparator) depends on
    neither n nor the alternative, so an experiment passes ``adjusted`` on."""

    def __init__(self, scenario: Scenario, methods: Sequence[str], n: int,
                 alt_param: float | None, alpha: float, adjusted: list | None = None):
        super().__init__(scenario, n, alt_param)
        groups = scenario._groups
        self.method_names = list(methods)
        self.adjusted = adjusted or [None if name == LRT_GEOMETRIC else
                                     [adjust(name, g.dist) for g in groups]
                                     for name in self.method_names]

        score_rows, thresholds = [], []
        for name, per_group in zip(self.method_names, self.adjusted):
            if per_group is None:
                if scenario.kind != "geometric" or scenario.side == "two":
                    raise ValueError(f"{LRT_GEOMETRIC} is only defined for one-sided i.i.d. "
                                     f"geometric scenarios, not {scenario.name!r}")
                rows = [g.dist.model.support.astype(float) for g in groups]
                t, upper = _geometric_lrt_threshold(scenario, n, alpha)
            else:
                # z looked up directly by outcome index
                rows = [adj.z[g.outcome_atoms] for adj, g in zip(per_group, groups)]
                surr = surrogate(name, np.array([adj.variance for adj in per_group])[self.assign])
                upper = surr.tail == "upper"
                t = surr.quantile(1.0 - alpha if upper else alpha)
            score_rows.append(rows if upper else [-row for row in rows])
            thresholds.append(t if upper else -t)

        # each group's signed scores, a C-contiguous (methods, outcomes) table
        self.group_tables = [np.array(rows) for rows in zip(*score_rows)]
        self.thresholds = np.asarray(thresholds)


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
    """Each method's signed statistic (S, or -S for a lower-tail method)
    for a block of replicates, a (methods, replicates) array from each
    group's (replicates, tests) outcome indices.

    Every replicate adds its groups in turn, and within a group its tests
    strictly left to right: the reduction runs over the middle axis of the
    C-contiguous (methods, tests, replicates) gather from the group's table.
    numpy merges away the size-one axis of a one-replicate block and would
    sum pairwise, so that block takes the last running sum, made in place."""
    scores = np.zeros((prep.thresholds.size, len(outcomes[0])))
    for table, idx in zip(prep.group_tables, outcomes):
        if not idx.size:  # a group can have no tests when n is small
            continue
        gathered = table.take(idx.T, axis=1)
        scores += (gathered.cumsum(axis=1, out=gathered)[:, -1] if scores.shape[1] == 1
                   else np.add.reduce(gathered, axis=1))
    return scores


def _replicate_stream(seed: int, config_index: int, replicate: int,
                      n: int) -> np.random.Generator:
    """``Generator(PCG64DXSM(SeedSequence(seed, spawn_key=(config_index,))))``, the
    configuration's stream, advanced without drawing to replicate ``replicate``:
    replicate r reads doubles [r n, (r + 1) n) of it, one 64-bit output each."""
    bits = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(config_index,)))
    bits.advance(replicate * n)
    return np.random.Generator(bits)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_config(prep: _ConfigPrep, reps: int, seed: int, config_index: int,
                workers: int) -> np.ndarray:
    nm = prep.thresholds.size
    block = max(1, BLOCK_ELEMENTS // prep.n)
    thresholds = prep.thresholds[:, None]

    def chunk(lo: int, hi: int) -> np.ndarray:
        counts = np.zeros(nm, dtype=np.int64)
        stream = _replicate_stream(seed, config_index, lo, prep.n)
        for b0 in range(lo, hi, block):
            # the uniforms are freed once the outcomes are drawn
            scores = _block_scores(prep, prep.outcomes(
                stream.random((min(block, hi - b0), prep.n))))
            counts += (scores >= thresholds).sum(axis=1)
        return counts

    # chunks start on block boundaries, so a run never has more threads
    # than blocks or usable CPUs; the calling thread runs the first chunk itself
    blocks = -(-reps // block)
    step = -(-blocks // min(workers, _usable_cpus())) * block
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
                alpha: float, reps: int, seed: int, workers: int,
                grid_name: str) -> ExperimentReport:
    """Rejection counts of every method at each (n, alt_param) configuration;
    configuration i reads the stream of spawn key (i,), replicate after
    replicate (``_replicate_stream``).  Every setting is checked before the
    first run; seeds stay below 2**128, the range of earlier versions."""
    alpha = probability(alpha, "alpha")
    reps, seed = integer(reps, "reps", 1, INT64_MAX), integer(seed, "seed")
    workers = integer(workers, "workers", 1)
    methods = sequence(methods, "methods", "method names")
    if not 0 <= seed < 1 << 128:
        raise _refuse("seed", "in [0, 2**128)", seed, repr)
    _require(configs, f"{grid_name} must be nonempty")   # one configuration per grid entry
    _require(methods, "methods must name at least one method")
    configs = [(integer(n, "the number of tests n", 1, SUPPORT_CAP), alt) for n, alt in configs]
    for n, alt in configs:
        for g in scenario._groups:
            g.cdf_for(alt)  # raises on a parameter outside the family's range
    rows, prep = [], None
    for ci, (n, alt) in enumerate(configs):
        prep = _ConfigPrep(scenario, methods, n, alt, alpha, prep and prep.adjusted)
        counts = _run_config(prep, reps, seed, ci, workers)
        rows.extend(ExperimentRow(scenario=scenario.name, method=m, n=prep.n, alt_param=alt,
                                  alpha=alpha, reps=reps, rejections=int(c))
                    for m, c in zip(methods, counts))
    return ExperimentReport(rows=tuple(rows), seed=seed)


def type1_experiment(scenario: Scenario, methods: Sequence[str], n_grid: Sequence[int],
                     alpha: float, reps: int, seed: int, workers: int = 1) -> ExperimentReport:
    """Null rejection proportions for each grid size and method."""
    _instance(scenario, Scenario, "scenario", "a scenario")
    # only the list is read here: _experiment reads each n exactly
    configs = [(n, scenario.null_param) for n in sequence(n_grid, "n_grid")]
    return _experiment(scenario, methods, configs, alpha, reps, seed, workers, "n_grid")


def power_experiment(scenario: Scenario, methods: Sequence[str], alt_grid: Sequence[float],
                     n: int, alpha: float, reps: int, seed: int,
                     workers: int = 1) -> ExperimentReport:
    """Rejection proportions across alternative-parameter values.

    ``methods`` may include the geometric likelihood-ratio comparator
    ``lrt-geometric`` for i.i.d. geometric scenarios.  At the grid point
    equal to the null parameter, power is the Type I error."""
    _instance(scenario, Scenario, "scenario", "a scenario")
    if scenario.null_param is None:
        raise ValueError(f"scenario {scenario.name!r} has no alternative family")
    configs = [(n, alt) for alt in numbers(alt_grid, "alt_grid", finite=False).tolist()]
    return _experiment(scenario, methods, configs, alpha, reps, seed, workers, "alt_grid")


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
    under ``SUPPORT_CAP``.  Support values within 1e-12 relative are
    merged (mass-weighted)."""
    _instance(adjusted, AdjustedStatistic, "adjusted", "an adjusted statistic")
    n = integer(n, "n", 1, SUPPORT_CAP)
    base_v = np.asarray(adjusted.z, dtype=float)
    base_w = np.asarray(adjusted.masses, dtype=float)
    values, masses = base_v.copy(), base_w.copy()
    for _ in range(n - 1):
        cap_support(values.size * base_v.size)
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
