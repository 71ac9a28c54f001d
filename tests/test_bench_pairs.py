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
