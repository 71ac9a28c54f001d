"""The benchmark's workloads.

Each workload builds its inputs from the seed, runs whole rounds of the same
operations, and checks the outputs against ``reference`` (computations made
apart from pcomb) or against properties the method must have.  A round
returns the operations it attempted, the ids of those that failed, the units
of work it completed and the outputs the checks read.

Set-up is timed up to the end of a workload's constructor, so this module
and the constructors use only pcomb, numpy and the standard library.  The
benchmark's own scipy work (``reference``, ``checks``, the bare quantile
callables) is imported in ``prepare`` and ``check``, after set-up is timed;
otherwise ``setup_s`` would keep scipy's import time even if pcomb stopped
loading it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import pcomb
from pcomb.adjust import ORIENT_ONE_MINUS_P, ORIENT_P

from env import child_env
from probe import PROBE_REF_S, speed_probe

SIDES = ("two", "right", "left")
ALPHA = 0.05


@dataclass
class Round:
    """One round: operations attempted, ids of those that failed, units of
    work done, the outputs the checks read, and the round's timing."""
    attempted: int
    failed: set
    work: int
    output: object
    clock: "Clock | None" = None


@dataclass
class Finish:
    """Operations run once after the timed rounds, and what they measured."""
    attempted: int = 0
    layers: dict = field(default_factory=dict)
    generator: str | None = None
    output: object = None


class Workload:
    """What the workloads share.  Round ``i`` runs the same operations as
    every round ``j`` with ``i % cycle == j % cycle``; a run stops only after
    a whole number of cycles, so every input has the same weight in it."""

    cycle = 1

    def prepare(self) -> None:
        """The benchmark's own preparation, after set-up is timed."""

    def finish(self) -> Finish:
        return Finish()


class Clock:
    """Times a round in laps, with a speed probe before the first lap and
    after each one.  ``raw_s`` is the time of the laps; ``scaled_s`` is the
    time they would take at the speed where the probe takes PROBE_REF_S,
    each lap scaled by the mean of the probes on either side of it."""

    def __init__(self):
        self.raw_s = self.scaled_s = 0.0
        self._probe = speed_probe()
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        t = time.perf_counter() - self._t0
        probe = speed_probe()
        self.raw_s += t
        self.scaled_s += t * PROBE_REF_S / ((self._probe + probe) / 2.0)
        self._probe = probe
        self._t0 = time.perf_counter()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed & ((1 << 63) - 1)])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

class Simulate(Workload):
    """Monte-Carlo power and Type I error experiments; one operation is one
    configuration, one unit of work one replicate."""

    unit = "replicates"
    CIRCULAR_GRID = (0.0, 0.005, 0.01, 0.02)
    GEOMETRIC_GRID = (0.5, 0.45, 0.4)
    GEOMETRIC_N = 50
    NONIID_N = (10, 50)

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.reps = 200 if smoke else 2000
        self.seeds = [int(s) for s in _rng(seed, 1).integers(0, 2 ** 62, size=3)]
        self.circular = pcomb.circular_scenario(199)
        self.geometric = pcomb.geometric_scenario(0.5, "right")
        self.noniid = pcomb.geometric_noniid_scenario((0.2, 0.5, 0.8), "right")
        self.configs = len(self.CIRCULAR_GRID) + len(self.GEOMETRIC_GRID) + len(self.NONIID_N)

    def _circular(self, grid, workers=1):
        return pcomb.power_experiment(self.circular, pcomb.METHODS, grid, 100, ALPHA,
                                      self.reps, self.seeds[0], workers)

    def round(self, i: int) -> Round:
        clock = Clock()
        circular = self._circular(self.CIRCULAR_GRID)
        clock.lap()
        geometric = pcomb.power_experiment(self.geometric, ["fisher", pcomb.LRT_GEOMETRIC],
                                           self.GEOMETRIC_GRID, self.GEOMETRIC_N, ALPHA,
                                           self.reps, self.seeds[1])
        clock.lap()
        noniid = pcomb.type1_experiment(self.noniid, pcomb.METHODS, self.NONIID_N, ALPHA,
                                        self.reps, self.seeds[2])
        clock.lap()
        return Round(self.configs, set(), self.configs * self.reps,
                     (circular, geometric, noniid), clock)

    def finish(self) -> Finish:
        """The first circular configuration once more at one and at two
        workers, for the determinism check and the parallel speed-up."""
        t0 = time.perf_counter()
        one = self._circular(self.CIRCULAR_GRID[:1], workers=1)
        t1 = time.perf_counter()
        two = self._circular(self.CIRCULAR_GRID[:1], workers=2)
        t2 = time.perf_counter()
        return Finish(attempted=2, generator=one.generator,
                      layers={"simulate.w1_s": t1 - t0, "simulate.w2_s": t2 - t1,
                              "simulate.parallel_speedup": (t1 - t0) / (t2 - t1)},
                      output=(one.to_csv(), two.to_csv()))

    def check(self, rounds, fin: Finish) -> list[str]:
        import checks
        import reference
        circular, geometric, noniid = rounds[0].output
        csvs = [tuple(r.to_csv() for r in rd.output) for rd in rounds]
        out = []
        for i, c in enumerate(csvs[1:], 1):
            out += checks.identical(f"round {i} against round 0", c, csvs[0])
        one, two = fin.output
        out += checks.identical("circular config at workers=2 against workers=1", two, one)
        first_config = "".join(circular.to_csv().splitlines(True)[:1 + len(pcomb.METHODS)])
        out += checks.identical("single circular config against the grid run", one, first_config)
        for r in circular.rows:
            if r.alt_param == 0.0:
                out += checks.proportion(f"circular-199 lambda=0 {r.method}", r.rejections,
                                         r.reps, ALPHA, checks.CIRCULAR_K)
        for r in geometric.rows:
            exact = reference.geometric_sum_power(self.GEOMETRIC_N, 0.5, r.alt_param, ALPHA)
            k = checks.LRT_K if r.method == pcomb.LRT_GEOMETRIC else checks.FISHER_K
            out += checks.proportion(f"geometric p1={r.alt_param} {r.method}", r.rejections,
                                     r.reps, exact, k)
        for r in noniid.rows:
            out += checks.proportion(f"geometric-noniid n={r.n} {r.method}", r.rejections,
                                     r.reps, ALPHA, checks.CIRCULAR_K, checks.NONIID_K_ABOVE)
        return out


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

#: study cohorts (cases, controls): equal and unequal splits
COHORTS = ((1000, 1000), (500, 500), (600, 1400), (1400, 600), (300, 1700))


def _snp(rng: np.random.Generator, cases: int, controls: int):
    """(family, params, observation), the observation drawn from the null."""
    u = rng.random()
    if u < 0.8:
        draws = int(rng.integers(3, 61))
        params = {"population": cases + controls, "successes": cases, "draws": draws}
        return "hypergeometric", params, int(rng.hypergeometric(cases, controls, draws))
    if u < 0.87:
        trials, prob = int(rng.integers(5, 61)), float(rng.uniform(0.05, 0.95))
        return "binomial", {"trials": trials, "prob": prob}, int(rng.binomial(trials, prob))
    if u < 0.94:
        rate = float(rng.uniform(0.5, 40.0))
        return "poisson", {"rate": rate}, int(rng.poisson(rate))
    r, prob = int(rng.integers(1, 6)), float(rng.uniform(0.2, 0.8))
    return ("negative-binomial", {"successes": r, "prob": prob},
            r + int(rng.negative_binomial(r, prob)))


def make_gene(rng: np.random.Generator, k: int):
    cases, controls = COHORTS[int(rng.integers(len(COHORTS)))]
    return [_snp(rng, cases, controls) for _ in range(k)]


def _fault_gene(nch_draws: int):
    """Fixed gene whose last SNP has Fisher's exact-test null,
    ``noncentral-hypergeometric`` at odds 1.0; pcomb rejects its pmf."""
    snps = [("hypergeometric", {"population": 2000, "successes": 1000, "draws": d}, d // 2)
            for d in (6, 9, 12, 15, 18, 21)]
    snps.append(("noncentral-hypergeometric",
                  {"population": 2000, "successes": 1000, "draws": nch_draws, "odds": 1.0},
                  nch_draws // 2))
    return snps


#: one fault gene per draw count; the fault does not depend on the seed
FAULT_DRAWS = (4, 10, 20, 33)
#: SNPs of the two genes of the paper's gene-level example (5 and 10)
GENE_EXAMPLE_SNPS = 15


class Analyze(Workload):
    """Gene-level combination of a synthetic rare-variant study; one
    operation is one gene x side x method, one unit of work one SNP test.

    The genes form four blocks of 50 seeded genes and one fixed fault gene;
    a round combines one block, in turn, and runs ``gene_example()``, so a
    cycle is four rounds.  Every round thus has the same operations up to the
    genes' draw, and the same share of failed ones."""

    unit = "tests"
    GENES_PER_BLOCK = 50
    SAMPLE = 12

    def __init__(self, seed: int, smoke: bool, workdir: str):
        rng = _rng(seed, 2)
        per_block = 2 if smoke else self.GENES_PER_BLOCK
        self.genes, self.blocks = [], []
        for draws in FAULT_DRAWS:
            start = len(self.genes)
            self.genes += [make_gene(rng, int(rng.integers(5, 41))) for _ in range(per_block)]
            self.genes.append(_fault_gene(draws))
            self.blocks.append(range(start, len(self.genes)))
        self.cycle = len(self.blocks)
        self.expected_failures = {(b[-1], side, m) for b in self.blocks
                                  for side in SIDES for m in pcomb.METHODS}
        self.sample_rng_seed = seed
        self.sample = 3 if smoke else self.SAMPLE

    def round(self, i: int) -> Round:
        block = i % len(self.blocks)
        results, failed, work = {}, set(), 0
        clock = Clock()
        for i, g in enumerate(self.blocks[block]):
            if i and i % 10 == 0:
                clock.lap()
            gene = self.genes[g]
            try:
                models = [pcomb.make_statistic_model(f, p) for f, p, _ in gene]
            except ValueError:
                failed.update((g, side, m) for side in SIDES for m in pcomb.METHODS)
                continue
            xs = [x for _, _, x in gene]
            for side in SIDES:
                dists = [pcomb.pvalue_distribution(m, side) for m in models]
                for method in pcomb.METHODS:
                    try:
                        res = pcomb.combine_observations(method, xs, dists)
                    except ValueError:
                        failed.add((g, side, method))
                        continue
                    results[(g, side, method)] = (res.statistic, res.global_p)
                    work += len(gene)
        example = pcomb.gene_example()
        clock.lap()
        for r in example.rows:
            results[(r.gene, r.side, r.method)] = (r.statistic, r.global_p)
        work += GENE_EXAMPLE_SNPS * len(SIDES) * len(pcomb.METHODS)
        attempted = len(self.blocks[block]) * len(SIDES) * len(pcomb.METHODS) + len(example.rows)
        return Round(attempted, failed, work, (block, results), clock)

    def check(self, rounds, fin: Finish) -> list[str]:
        import checks
        import reference
        out = checks.failures(set().union(*(rd.failed for rd in rounds)),
                              self.expected_failures)
        first = {}
        for i, rd in enumerate(rounds):
            block, results = rd.output
            if block in first:
                out += checks.identical(f"round {i} against block {block}'s first round",
                                        results, first[block])
            first.setdefault(block, results)
        results = {k: v for block_results in first.values() for k, v in block_results.items()}
        for key, (_, p) in results.items():
            out += checks.pvalue_range(f"{key}", p)
        out += checks.gene_table({k: v for k, v in results.items() if isinstance(k[0], str)})
        keys = sorted(k for k in results if not isinstance(k[0], str))
        rng = _rng(self.sample_rng_seed, 3)
        for i in rng.choice(len(keys), size=min(self.sample, len(keys)), replace=False):
            g, side, method = keys[int(i)]
            tests = [(f, p, side, x) for f, p, x in self.genes[g]]
            s_ref, p_ref = reference.combination(method, tests)
            out += checks.combination(f"gene {g} {side} {method}", *results[(g, side, method)],
                                      s_ref, p_ref)
        return out


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def generic_transforms() -> dict:
    """Bare quantile callables and orientations of the five transforms."""
    from scipy import special
    return {
        "fisher": (lambda w: -2.0 * np.log1p(-w), ORIENT_ONE_MINUS_P),
        "pearson": (lambda w: -2.0 * np.log1p(-w), ORIENT_P),
        "george": (lambda w: np.log(w) - np.log1p(-w), ORIENT_P),
        "stouffer": (special.ndtri, ORIENT_P),
        "edgington": (lambda w: w, ORIENT_P),
    }


def random_atoms(rng: np.random.Generator, m: int) -> np.ndarray:
    """``m`` atoms, interior ones uniform on (0.01, 0.99), no cell under
    1e-3 wide, so every quadrature cell is well conditioned."""
    while True:
        a = np.append(np.sort(rng.uniform(0.01, 0.99, m - 1)), 1.0)
        if np.min(np.diff(a, prepend=0.0)) >= 1e-3:
            return a


class Diagnose(Workload):
    """Method-selection diagnostics on large supports, and the quadrature
    adjustment on random distributions; one operation is one
    ``rank_methods`` or ``adjust_generic`` call, one unit of work one cell
    integral (atoms x 2 laws x 5 methods per ranking, atoms per generic
    adjustment).

    A generic cell costs about eight times a coupling cell, so the seed draws
    only parameters that leave the atom counts nearly alone, and every seed
    gives nearly the same mix of cells.  A two-sided binomial away from the
    symmetric prob 1/2, with no outcome's mass below the smallest double,
    has trials + 1 atoms.  A two-sided hypergeometric whose successes and
    failures both reach the draws, successes below half the population,
    nearly always has draws + 1."""

    unit = "cells"
    TRIALS = (50, 120, 190, 260, 330, 400)
    DRAWS = (20, 76, 132, 188, 244, 300)
    GENERIC_DISTS = 120

    def __init__(self, seed: int, smoke: bool, workdir: str):
        rng = _rng(seed, 4)
        poisson = pcomb.make_statistic_model("poisson", {"rate": 2000})
        self.ranked = [] if smoke else [pcomb.pvalue_distribution(poisson, "left"),
                                        pcomb.pvalue_distribution(poisson, "right")]
        for trials in self.TRIALS[:1] if smoke else self.TRIALS:
            prob = float(rng.uniform(0.2, 0.45))
            model = pcomb.make_statistic_model("binomial", {
                "trials": trials, "prob": prob if rng.random() < 0.5 else 1.0 - prob})
            self.ranked.append(pcomb.pvalue_distribution(model, "two"))
        for draws in self.DRAWS[:1] if smoke else self.DRAWS:
            population = int(rng.integers(1000, 3001))
            successes = int(rng.integers(draws, population // 2))
            model = pcomb.make_statistic_model("hypergeometric", {
                "population": population, "successes": successes, "draws": draws})
            self.ranked.append(pcomb.pvalue_distribution(model, "two"))
        self.generic = [pcomb.custom_pvalue_distribution(random_atoms(rng, 2 + j % 11), "left")
                        for j in range(2 if smoke else self.GENERIC_DISTS)]
        self.work = (sum(len(d) for d in self.ranked) * 2 * len(pcomb.METHODS)
                     + sum(len(d) for d in self.generic) * len(pcomb.METHODS))
        self.transforms = None

    def prepare(self) -> None:
        self.transforms = generic_transforms()

    def round(self, i: int) -> Round:
        clock = Clock()
        ranked = [tuple((r.method, r.variance, r.w2_to_y, r.lower_bound, r.scaled_w2)
                        for r in pcomb.rank_methods(d).rows) for d in self.ranked]
        clock.lap()
        generic = [[pcomb.adjust_generic(q, orient, d) for q, orient in self.transforms.values()]
                   for d in self.generic]
        clock.lap()
        output = (ranked, [[(tuple(g.z), g.variance) for g in row] for row in generic])
        return Round(len(self.ranked) + len(self.generic) * len(self.transforms), set(),
                     self.work, output, clock)

    def check(self, rounds, fin: Finish) -> list[str]:
        import checks
        ranked, generic = rounds[0].output
        out = []
        for i, rd in enumerate(rounds[1:], 1):
            out += checks.identical(f"round {i} against round 0", rd.output, rounds[0].output)
        for d, rows in zip(self.ranked, ranked):
            for method, variance, w2_to_y, lower_bound, scaled_w2 in rows:
                out += checks.decomposition(f"{d.side} {len(d)} atoms", method, variance,
                                            w2_to_y, lower_bound, scaled_w2)
        for j, (d, row) in enumerate(zip(self.generic, generic)):
            for method, (z, nu) in zip(self.transforms, row):
                closed = pcomb.adjust(method, d)
                out += checks.generic_vs_closed(f"random dist {j} {method}", z,
                                                closed.z.tolist(), nu, closed.variance)
        return out


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def _atoms_json(path: str, family: str, params: dict, side: str) -> None:
    import reference
    _, pmf = reference.support_pmf(family, params)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"side": side, "F": reference.atoms(pmf, side).tolist()}, fh)


class Cli(Workload):
    """Fresh ``python -m pcomb.cli`` processes one after another (a closed
    loop with one client); one operation and one unit of work is one call.
    The pdist files of the ``metrics`` call hold atoms that ``reference``
    computes with scipy, so they are written in ``prepare``."""

    unit = "calls"
    SIM_N, SIM_GRID, SIM_REPS = 20, (0.5, 0.4), 1000

    def __init__(self, seed: int, smoke: bool, workdir: str):
        rng = _rng(seed, 5)
        self.env = child_env()
        self.workdir = workdir
        path = lambda name: os.path.join(workdir, name)  # noqa: E731

        gene = make_gene(rng, int(rng.integers(5, 41)))
        self.combine_side = SIDES[int(rng.integers(3))]
        self.combine_method = pcomb.METHODS[int(rng.integers(5))]
        self.combine_tests = [(f, p, self.combine_side, x) for f, p, x in gene]
        with open(path("tests.json"), "w", encoding="utf-8") as fh:
            json.dump({"tests": [{"model": {"family": f, "params": p}, "side": s, "x": x}
                                 for f, p, s, x in self.combine_tests]}, fh)

        self.metric_models = [
            ("binomial", {"trials": int(rng.integers(20, 201)),
                          "prob": float(rng.uniform(0.05, 0.95))}, "two"),
            ("hypergeometric", {"population": 2000, "successes": int(rng.integers(300, 1701)),
                                "draws": int(rng.integers(10, 61))}, "right")]

        population = int(rng.integers(500, 3001))
        self.pdist_params = {"population": population,
                             "successes": int(rng.integers(50, population // 2)),
                             "draws": int(rng.integers(5, 81))}
        with open(path("scenario.json"), "w", encoding="utf-8") as fh:
            json.dump({"kind": "geometric", "p0": 0.5, "side": "right"}, fh)
        self.sim_seed = int(rng.integers(0, 2 ** 62))

        p = self.pdist_params
        self.calls = {
            "example_gene": ["example", "gene", "--format", "json"],
            "combine": ["combine", "--method", self.combine_method,
                        "--input", path("tests.json")],
            "metrics": ["metrics", "--pdist", path("a.json"), path("b.json"),
                        "--format", "json"],
            "pdist": ["pdist", "--family", "hypergeometric", "--population",
                      str(p["population"]), "--successes", str(p["successes"]),
                      "--draws", str(p["draws"]), "--side", "two"],
            "simulate": ["simulate", "--scenario", path("scenario.json"), "--mode", "power",
                         "--methods", f"fisher,{pcomb.LRT_GEOMETRIC}",
                         "--alt-grid", ",".join(str(a) for a in self.SIM_GRID),
                         "--n", str(self.SIM_N), "--reps", str(self.SIM_REPS),
                         "--seed", str(self.sim_seed), "--format", "json"],
        }

    def prepare(self) -> None:
        for name, (family, params, side) in zip(("a.json", "b.json"), self.metric_models):
            _atoms_json(os.path.join(self.workdir, name), family, params, side)

    def _call(self, argv) -> tuple[float, int, str]:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pcomb.cli", *argv], cwd=self.workdir,
                              env=self.env, capture_output=True, text=True, timeout=120)
        return time.perf_counter() - t0, proc.returncode, proc.stdout

    def round(self, i: int) -> Round:
        output, failed, clock = {}, set(), Clock()
        for name, argv in self.calls.items():
            output[name] = self._call(argv)
            clock.lap()
            if output[name][1] != 0:
                failed.add(name)
        return Round(len(self.calls), failed, len(self.calls), output, clock)

    def finish(self) -> Finish:
        """The same requests in this process, through ``pcomb.cli.run``."""
        from pcomb import cli
        inproc = {}
        for name, argv in self.calls.items():
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
            inproc[name] = (time.perf_counter() - t0, code, buf.getvalue())
        generator = json.loads(inproc["simulate"][2]).get("generator")
        return Finish(generator=generator, output=inproc)

    def call_layers(self, rounds, fin: Finish) -> dict:
        """Median wall time of each call, and the mean overhead of a call:
        its wall time less a fresh import of the CLI, less the in-process
        time of the same request."""
        imports = []
        for _ in range(3):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import pcomb.cli"], cwd=self.workdir,
                           env=self.env, check=True, timeout=120)
            imports.append(time.perf_counter() - t0)
        out, overhead = {}, []
        for name in self.calls:
            wall = statistics.median(rd.output[name][0] for rd in rounds)
            out[f"cli.{name}_s"] = wall
            overhead.append(wall - statistics.median(imports) - fin.output[name][0])
        out["cli.overhead_s"] = statistics.mean(overhead)
        return out

    def check_output(self, name: str, stdout: str) -> list[str]:
        """The checks of one call's output, the same in and out of process."""
        import checks
        import reference
        obj = json.loads(stdout)
        if name == "example_gene":
            return checks.gene_table({(r["gene"], r["side"], r["method"]):
                                      (r["statistic"], r["global_p"]) for r in obj})
        if name == "combine":
            s_ref, p_ref = reference.combination(self.combine_method, self.combine_tests)
            return (checks.combination("cli combine", obj["S"], obj["p"], s_ref, p_ref)
                    + checks.pvalue_range("cli combine", obj["p"]))
        if name == "metrics":
            out = []
            singles = []
            for family, params, side in self.metric_models:
                _, pmf = reference.support_pmf(family, params)
                dist = pcomb.custom_pvalue_distribution(reference.atoms(pmf, side), side)
                rows = {r.method: r for r in pcomb.rank_methods(dist).rows}
                singles.append(rows)
                for r in rows.values():
                    out += checks.decomposition(f"cli metrics {family}", r.method, r.variance,
                                                r.w2_to_y, r.lower_bound, r.scaled_w2)
            for row in obj["methods"]:
                for key in ("variance", "w2_to_y", "lower_bound", "scaled_w2"):
                    want = sum(getattr(s[row["method"]], key) for s in singles) / len(singles)
                    if not math.isclose(row[key], want, rel_tol=1e-12, abs_tol=1e-15):
                        out.append(f"cli metrics {row['method']} {key}: {row[key]!r} is not "
                                   f"the mean {want!r} of the single-file values")
            return out
        if name == "pdist":
            p = self.pdist_params
            _, pmf = reference.support_pmf("hypergeometric", p)
            return checks.atoms("cli pdist", obj["F"], reference.atoms(pmf, "two").tolist())
        out = []
        for r in obj["rows"]:
            exact = reference.geometric_sum_power(self.SIM_N, 0.5, r["alt_param"], ALPHA)
            k = checks.LRT_K if r["method"] == pcomb.LRT_GEOMETRIC else checks.FISHER_K
            out += checks.proportion(f"cli simulate p1={r['alt_param']} {r['method']}",
                                     r["rejections"], r["reps"], exact, k)
        return out

    def check(self, rounds, fin: Finish) -> list[str]:
        import checks
        out = checks.failures(set().union(*(rd.failed for rd in rounds)), set())
        first = rounds[0].output
        for i, rd in enumerate(rounds[1:], 1):
            for name in self.calls:
                out += checks.identical(f"round {i} {name} against round 0",
                                        rd.output[name][2], first[name][2])
        for name in self.calls:
            _, code, stdout = fin.output[name]
            if code != 0:
                out.append(f"in-process {name} exited {code}")
                continue
            out += checks.identical(f"cli {name} against in-process", first[name][2], stdout)
            if first[name][1] == 0:
                out += self.check_output(name, first[name][2])
        return out


WORKLOADS = {"simulate": Simulate, "analyze": Analyze, "diagnose": Diagnose, "cli": Cli}
