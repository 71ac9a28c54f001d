"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench/tests -q

Every workload is run once at smoke size; then each of its output checks is
fed a deliberately wrong value and must fail, so that no check can pass
vacuously.  The end-to-end tests run bench/run.py from the command line.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import pcomb  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Finish, Round  # noqa: E402

SCRATCH = os.path.join(ROOT, ".bench_out", "tests")


def _replace_rows(report, change):
    return dataclasses.replace(report, rows=tuple(change(r) for r in report.rows))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def simulate():
    wl = workloads.Simulate(11, True, SCRATCH)
    return wl, [wl.round(0)], wl.finish()


def test_simulate_passes(simulate):
    wl, rounds, fin = simulate
    assert wl.check(rounds, fin) == []


def test_simulate_workers_mismatch_fails(simulate):
    wl, rounds, fin = simulate
    one, two = fin.output
    bad = Finish(attempted=fin.attempted, output=(one, two.replace(",", ";", 1)))
    assert wl.check(rounds, bad)


def test_simulate_round_mismatch_fails(simulate):
    wl, rounds, fin = simulate
    circular, geometric, noniid = rounds[0].output
    shifted = _replace_rows(noniid, lambda r: dataclasses.replace(r, rejections=r.rejections + 1))
    other = Round(rounds[0].attempted, set(), rounds[0].work, (circular, geometric, shifted))
    assert wl.check(rounds + [other], fin)


@pytest.mark.parametrize("method", ["fisher", pcomb.LRT_GEOMETRIC])
def test_simulate_geometric_rate_off_fails(simulate, method):
    wl, rounds, fin = simulate
    circular, geometric, noniid = rounds[0].output
    reps = wl.reps
    # 8 standard errors at the largest binomial variance is past both limits
    step = int(8 * (0.25 / reps) ** 0.5 * reps) + 1
    shifted = _replace_rows(geometric, lambda r: dataclasses.replace(
        r, rejections=max(0, r.rejections - step) if r.rejections > reps / 2
        else r.rejections + step) if r.method == method else r)
    bad = [Round(1, set(), 1, (circular, shifted, noniid))]
    assert any(method in msg for msg in wl.check(bad, fin))


def test_simulate_noniid_size_off_fails(simulate):
    wl, rounds, fin = simulate
    circular, geometric, noniid = rounds[0].output
    step = int(9 * (0.05 * 0.95 / wl.reps) ** 0.5 * wl.reps) + 1
    shifted = _replace_rows(noniid, lambda r: dataclasses.replace(
        r, rejections=r.rejections + step) if r.method == "pearson" else r)
    bad = [Round(1, set(), 1, (circular, geometric, shifted))]
    assert any("noniid" in msg and "pearson" in msg for msg in wl.check(bad, fin))


def test_proportion_limit_above_is_one_sided():
    import checks
    se = (0.05 * 0.95 / 2000) ** 0.5
    above, below = round((0.05 + 6 * se) * 2000), round((0.05 - 6 * se) * 2000)
    assert checks.proportion("x", above, 2000, 0.05, 5.0, 8.0) == []
    assert checks.proportion("x", below, 2000, 0.05, 5.0, 8.0)
    assert checks.proportion("x", above, 2000, 0.05, 5.0)


def test_simulate_circular_size_off_fails(simulate):
    wl, rounds, fin = simulate
    circular, geometric, noniid = rounds[0].output
    step = int(6 * (0.05 * 0.95 / wl.reps) ** 0.5 * wl.reps) + 1
    shifted = _replace_rows(circular, lambda r: dataclasses.replace(
        r, rejections=r.rejections + step) if r.alt_param == 0.0 else r)
    bad = [Round(1, set(), 1, (shifted, geometric, noniid))]
    assert any("lambda=0" in msg for msg in wl.check(bad, fin))


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def analyze():
    wl = workloads.Analyze(12, True, SCRATCH)
    wl.sample = 2
    return wl, [wl.round(0)]


def _with_results(rd, change):
    block, results = rd.output
    out = {k: change(k, v) for k, v in results.items()}
    return [Round(rd.attempted, rd.failed, rd.work, (block, out))]


def test_analyze_passes_and_only_the_fault_fails(analyze):
    wl, rounds = analyze
    fault_gene = wl.blocks[0][-1]
    assert rounds[0].failed == {k for k in wl.expected_failures if k[0] == fault_gene}
    assert len(rounds[0].failed) == 15
    assert wl.check(rounds, Finish()) == []


def test_analyze_block_mismatch_fails(analyze):
    wl, rounds = analyze
    again = _with_results(rounds[0], lambda k, v: (v[0], v[1] * 0.5))
    assert any("first round" in msg for msg in wl.check(rounds + again, Finish()))


def test_analyze_statistic_off_fails(analyze):
    wl, rounds = analyze
    bad = _with_results(rounds[0], lambda k, v: (v[0] + 1e-8 * max(1.0, abs(v[0])), v[1])
                        if isinstance(k[0], int) else v)
    assert any(": S " in msg for msg in wl.check(bad, Finish()))


def test_analyze_pvalue_off_fails(analyze):
    wl, rounds = analyze
    bad = _with_results(rounds[0], lambda k, v: (v[0], v[1] * (1 + 1e-7))
                        if isinstance(k[0], int) else v)
    assert any(": p " in msg for msg in wl.check(bad, Finish()))


def test_analyze_pvalue_out_of_range_fails(analyze):
    wl, rounds = analyze
    key = next(k for k in rounds[0].output[1] if isinstance(k[0], int))
    bad = _with_results(rounds[0], lambda k, v: (v[0], 1.5) if k == key else v)
    assert any("outside [0, 1]" in msg for msg in wl.check(bad, Finish()))


@pytest.mark.parametrize("field,delta", [(0, 0.02), (1, 1e-3)])
def test_analyze_gene_table_off_fails(analyze, field, delta):
    wl, rounds = analyze
    key = ("gene2", "right", "stouffer")
    bad = _with_results(rounds[0], lambda k, v: tuple(
        x + delta if i == field else x for i, x in enumerate(v)) if k == key else v)
    assert any("gene table" in msg for msg in wl.check(bad, Finish()))


def test_analyze_unexpected_failure_fails(analyze):
    wl, rounds = analyze
    rd = rounds[0]
    bad = [Round(rd.attempted, rd.failed | {(0, "two", "fisher")}, rd.work, rd.output)]
    assert any("unexpected failure" in msg for msg in wl.check(bad, Finish()))


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def diagnose():
    wl = workloads.Diagnose(13, True, SCRATCH)
    wl.prepare()
    return wl, [wl.round(0)]


def _ranked(rounds, change):
    ranked, generic = rounds[0].output
    ranked = [tuple(change(row) for row in rows) for rows in ranked]
    return [Round(1, set(), 1, (ranked, generic))]


def test_diagnose_mix_does_not_move_with_the_seed():
    sizes = [(workloads.Diagnose(seed, False, SCRATCH).work) for seed in (1, 7)]
    assert sizes[0] == sizes[1]


def test_diagnose_passes(diagnose):
    wl, rounds = diagnose
    assert wl.check(rounds, Finish()) == []


def test_diagnose_identity_off_fails(diagnose):
    wl, rounds = diagnose
    bad = _ranked(rounds, lambda r: (r[0], r[1] + 1e-7) + r[2:])
    assert any("W2^2" in msg for msg in wl.check(bad, Finish()))


def test_diagnose_lower_bound_above_fails(diagnose):
    wl, rounds = diagnose
    bad = _ranked(rounds, lambda r: r[:3] + (r[4] * 1.01 + 1e-12, r[4]))
    assert any("lower bound" in msg for msg in wl.check(bad, Finish()))


@pytest.mark.parametrize("part", ["z", "variance"])
def test_diagnose_generic_off_fails(diagnose, part):
    wl, rounds = diagnose
    ranked, generic = rounds[0].output
    z, nu = generic[0][0]
    generic = [list(row) for row in generic]
    generic[0][0] = ((z[0] + 1e-8,) + z[1:], nu) if part == "z" else (z, nu + 1e-8)
    bad = [Round(1, set(), 1, (ranked, generic))]
    assert any("random dist 0" in msg for msg in wl.check(bad, Finish()))


# ---------------------------------------------------------------------------
# cli: the in-process results stand in for the subprocess calls
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli():
    workdir = os.path.join(SCRATCH, "cli")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.Cli(14, True, workdir)
    wl.prepare()
    fin = wl.finish()
    return wl, [Round(5, set(), 5, dict(fin.output))], fin


def _edit(rounds, name, edit):
    out = dict(rounds[0].output)
    t, code, stdout = out[name]
    out[name] = (t, code, json.dumps(edit(json.loads(stdout))))
    return [Round(5, set(), 5, out)]


def test_cli_passes(cli):
    wl, rounds, fin = cli
    assert fin.generator == "philox"
    assert wl.check(rounds, fin) == []


def test_cli_failed_call_fails(cli):
    wl, rounds, fin = cli
    rd = rounds[0]
    bad = [Round(5, {"pdist"}, 5, rd.output)]
    assert any("unexpected failure" in msg for msg in wl.check(bad, fin))


def _scale(obj, path, factor, offset=0.0):
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = target[path[-1]] * factor + offset
    return obj


@pytest.mark.parametrize("name,path,factor,offset", [
    ("example_gene", (0, "global_p"), 1.0, 1e-3),
    ("combine", ("S",), 1.0 + 1e-8, 1e-8),
    ("combine", ("p",), 1.0 + 1e-7, 0.0),
    ("metrics", ("methods", 0, "variance"), 1.0, 1e-7),
    ("pdist", ("F", 0), 1.0, 1e-11),
])
def test_cli_output_off_fails(cli, name, path, factor, offset):
    wl, rounds, fin = cli
    bad = _edit(rounds, name, lambda obj: _scale(obj, path, factor, offset))
    failures = wl.check(bad, fin)
    assert any(f"cli {name} against in-process" in msg for msg in failures)
    # the output check itself fails too, not only the comparison
    assert len(failures) >= 2


def test_cli_simulate_rate_off_fails(cli):
    wl, rounds, fin = cli

    def shift(obj):
        for r in obj["rows"]:
            r["rejections"] = min(r["reps"], r["rejections"] + r["reps"] // 10)
        return obj
    failures = wl.check(_edit(rounds, "simulate", shift), fin)
    assert any("cli simulate p1=" in msg for msg in failures)


# ---------------------------------------------------------------------------
# the command line: result format, workloads, a checkout without sources
# ---------------------------------------------------------------------------

def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_benchmark_json(trace, key):
    proc = _run("--smoke", "--workload", "diagnose", "--seed", "5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in _spec()[key]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == spec
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


def test_without_sources_exits_nonzero():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run("--workload", "simulate", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# set-up and the order of rounds
# ---------------------------------------------------------------------------

_SETUP_IMPORTS = """
import builtins, json, os, sys
bench, workdir = sys.argv[1], sys.argv[2]
sys.path.insert(0, bench)
seen, original = [], builtins.__import__

def spy(name, globals=None, locals=None, fromlist=(), level=0):
    where = os.path.dirname(os.path.abspath((globals or {}).get("__file__") or "/"))
    if level == 0 and name.split(".")[0] == "scipy" and where == bench:
        seen.append([globals["__name__"], name])
    return original(name, globals, locals, fromlist, level)

builtins.__import__ = spy
import worker
for name in ("simulate", "analyze", "diagnose", "cli"):
    worker.setup(name, 3, True, os.path.join(workdir, name))
print(json.dumps({"seen": seen, "loaded": sorted(m for m in ("reference", "checks")
                                                 if m in sys.modules)}))
"""


def test_setup_leaves_scipy_to_pcomb():
    """``setup_s`` ends at READY; up to then only pcomb may load scipy, so
    that the figure follows pcomb's own start-up."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", _SETUP_IMPORTS, BENCH,
                           os.path.join(SCRATCH, "setup")],
                          env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got == {"seen": [], "loaded": []}


class _Cycled:
    """Rounds that record their index; a cycle of four inputs."""
    cycle = 4

    def round(self, i):
        return Round(1, set(), 1, i % self.cycle)


class _NoTracer:
    def install(self):
        pass

    def uninstall(self):
        pass


def test_untraced_rounds_end_on_a_whole_cycle():
    rounds, kinds = worker.run_rounds(_Cycled(), 0.0)
    assert [rd.output for rd in rounds] == [0, 1, 2, 3]
    assert set(kinds) == {"plain"}


def test_traced_and_plain_rounds_do_the_same_work():
    rounds, kinds = worker.run_rounds(_Cycled(), 0.0, _NoTracer())
    assert kinds[0] == "warm-up"
    plain = [rd.output for rd, k in zip(rounds, kinds) if k == "plain"]
    traced = [rd.output for rd, k in zip(rounds, kinds) if k == "traced"]
    assert plain == traced == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_spans_nest_and_uninstall_restores():
    from tracer import Tracer
    original = sys.modules["pcomb.combine"].adjust
    tracer = Tracer([("pcomb.adjust", "adjust", None),
                     ("pcomb.combine", "combine_observations",
                      lambda a, _: {"combine.tests": len(a["dists"])})])
    model = pcomb.make_statistic_model("binomial", {"trials": 5, "prob": 0.3})
    dist = pcomb.pvalue_distribution(model, "left")
    tracer.install()
    try:
        pcomb.combine_observations("fisher", [1, 2, 3], [dist] * 3)
    finally:
        tracer.uninstall()
    assert sys.modules["pcomb.combine"].adjust is original
    ids = [s[0] for s in tracer.spans]
    assert len(ids) == len(set(ids)) == 4
    top = next(s for s in tracer.spans if s[2] == "combine_observations")
    assert all(s[1] == top[0] for s in tracer.spans if s[2] == "adjust")
    assert tracer.calls["adjust"] == 3 and tracer.counts["combine.tests"] == 3
    total = top[4] - top[3]
    assert abs(tracer.self_s["combine"] + tracer.self_s["adjust"] - total) < 1e-9
