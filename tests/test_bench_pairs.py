"""The summary of tools/bench_pairs.py on fixed runs; no benchmark is started."""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(seed, work, setup, correct=True, failed=0, exit_code=0):
    metrics = {"scaled_work_per_s": {"value": work, "unit": "1/s"},
               "setup_s": {"value": setup, "unit": "s"}}
    return {"seed": seed, "exit": exit_code,
            "result": {"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": metrics}}


def test_seeds_read_ranges_and_lists():
    assert bench_pairs.parse_seeds("41-44") == [41, 42, 43, 44]
    assert bench_pairs.parse_seeds("41,43-44,47") == [41, 43, 44, 47]


def test_summary_gives_quartiles_wins_and_bad_runs():
    pairs = [
        {"parent": _run(1, 100.0, 0.50), "change": _run(1, 120.0, 0.40)},
        {"parent": _run(2, 110.0, 0.60), "change": _run(2, 110.0, 0.70)},   # a tie
        {"parent": _run(3, 90.0, 0.55), "change": _run(3, 130.0, 0.55, correct=False)},
        {"parent": _run(4, 105.0, 0.45, failed=2, exit_code=1),
         "change": {"seed": 4, "exit": 2, "result": None}},
    ]
    better = {"scaled_work_per_s": "higher", "setup_s": "lower"}
    assert bench_pairs.summarize(pairs, better).splitlines() == [
        "scaled_work_per_s: parent 102.5 [97.5, 106.2]; change 120 [115, 125]; "
        "change wins 2/3",
        "setup_s: parent 0.525 [0.4875, 0.5625]; change 0.55 [0.475, 0.625]; "
        "change wins 1/3",
        "BAD change seed 3: exit 0, correct=False failed=0/10",
        "BAD parent seed 4: exit 1, correct=True failed=2/10",
        "BAD change seed 4: exit 2, no result",
    ]


def test_a_metric_without_direction_has_no_wins():
    pairs = [{"parent": _run(1, 1.0, 0.5), "change": _run(1, 2.0, 0.5)}]
    assert bench_pairs.summarize(pairs, {}).splitlines() == [
        "scaled_work_per_s: parent 1 [1, 1]; change 2 [2, 2]; no direction",
        "setup_s: parent 0.5 [0.5, 0.5]; change 0.5 [0.5, 0.5]; no direction",
    ]


def _tree(root, files):
    for path, text in files.items():
        full = root / path
        full.parent.mkdir(parents=True, exist_ok=True)
        full.write_text(text)
    return str(root)


BENCH = {"BENCHMARK.json": "{}", "bench/run.py": "raise SystemExit(3)\n",
         "bench/tests/test_bench.py": "", "src/pcomb/__init__.py": ""}


def test_checkouts_with_different_benchmarks_run_nothing(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: runs.append(args))
    parent = _tree(tmp_path / "parent", {**BENCH, "bench/__pycache__/run.pyc": "x"})
    change = _tree(tmp_path / "change", {**BENCH, "BENCHMARK.json": '{"paths": []}',
                                         "bench/tests/test_bench.py": "# changed\n",
                                         "bench/extra.py": "",
                                         "src/pcomb/__init__.py": "# the change itself\n"})
    code = bench_pairs.main([parent, change, "--workload", "analyze", "--seeds", "1-2"])
    assert code == 2 and runs == []
    assert capsys.readouterr().err == (
        "the checkouts run different benchmarks; these files differ: "
        f"BENCHMARK.json, {os.path.join('bench', 'extra.py')}, "
        f"{os.path.join('bench', 'tests', 'test_bench.py')}\n")


def test_bytecode_caches_and_the_source_may_differ(tmp_path):
    parent = _tree(tmp_path / "parent", {**BENCH, "bench/__pycache__/run.pyc": "x"})
    change = _tree(tmp_path / "change", {**BENCH, "src/pcomb/__init__.py": "# changed\n",
                                         "bench/tests/__pycache__/t.pyc": "y"})
    assert bench_pairs.differing_bench_files(parent, change) == []
