"""The summary of tools/bench_pairs.py on fixed runs; no benchmark is started."""

import importlib.util
import json
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


SPEC = {"scaled_work_per_s": {"name": "scaled_work_per_s", "better": "higher", "bound": 0.25},
        "setup_s": {"name": "setup_s", "better": "lower", "bound": 0.25},
        "combine.self_s": {"name": "combine.self_s", "better": "lower"}}


def _runs(work, setup, layer=None):
    pairs = []
    for seed, (a, b) in enumerate(zip(work["parent"], work["change"])):
        pair = {"parent": _run(seed, a, setup["parent"][seed]),
                "change": _run(seed, b, setup["change"][seed])}
        if layer:
            for side in pair:
                pair[side]["result"]["metrics"]["combine.self_s"] = {
                    "value": layer[side][seed], "unit": "s"}
        pairs.append(pair)
    return pairs


def test_verdicts_give_the_median_change_the_gain_rule_and_the_bound():
    parent = [100.0 + i for i in range(10)]   # quartiles 102.25 and 106.75
    pairs = _runs({"parent": parent, "change": [v + 20.0 for v in parent]},
                  {"parent": [0.5] * 10, "change": [0.7] * 10},
                  {"parent": [2.0] * 10, "change": [1.0] * 9 + [3.0]})
    assert bench_pairs.verdicts(pairs, SPEC).splitlines() == [
        "verdict combine.self_s: median -50.0%; gain rule holds (wins 9/10, "
        "gap 1 > parent IQR 0); no bound",
        "verdict scaled_work_per_s: median +19.1%; gain rule holds (wins 10/10, "
        "gap 20 > parent IQR 4.5); within bound 25% (worse by 0.0%)",
        "verdict setup_s: median +40.0%; gain rule fails (wins 0/10, "
        "gap -0.2 <= parent IQR 0); OUTSIDE bound 25% (worse by 40.0%)",
    ]


def test_gain_rule_needs_nine_wins_in_ten_and_a_gap_past_the_parent_iqr():
    parent = [100.0 + i for i in range(10)]
    # eight wins of ten, though the median moves far past the parent's IQR
    eight = _runs({"parent": parent, "change": [v + 20.0 for v in parent[:8]] + parent[8:]},
                  {"parent": [0.5] * 10, "change": [0.5] * 10})
    # every pair won, by less than the parent's IQR of 4.5
    narrow = _runs({"parent": parent, "change": [v + 1.0 for v in parent]},
                   {"parent": [0.5] * 10, "change": [0.5] * 10})
    assert bench_pairs.verdicts(eight, SPEC).splitlines()[0] == (
        "verdict scaled_work_per_s: median +17.2%; gain rule fails (wins 8/10, "
        "gap 18 > parent IQR 4.5); within bound 25% (worse by 0.0%)")
    assert bench_pairs.verdicts(narrow, SPEC).splitlines()[0] == (
        "verdict scaled_work_per_s: median +1.0%; gain rule fails (wins 10/10, "
        "gap 1 <= parent IQR 4.5); within bound 25% (worse by 0.0%)")


def test_verdicts_skip_metrics_without_direction_and_loss_within_bound_passes():
    pairs = [{"parent": _run(1, 100.0, 0.5), "change": _run(1, 80.0, 0.5)}]
    assert bench_pairs.verdicts(pairs, {}) == ""
    assert bench_pairs.verdicts(pairs, SPEC).splitlines() == [
        "verdict scaled_work_per_s: median -20.0%; gain rule fails (wins 0/1, "
        "under 10 pairs, gap -20 <= parent IQR 0); within bound 25% (worse by 20.0%)",
        "verdict setup_s: median +0.0%; gain rule fails (wins 0/1, "
        "under 10 pairs, gap 0 <= parent IQR 0); within bound 25% (worse by 0.0%)",
    ]


def test_gain_rule_fails_on_fewer_than_ten_pairs_however_they_read():
    # three pairs, each won by far more than the parent's IQR of 1
    pairs = _runs({"parent": [100.0, 101.0, 102.0], "change": [130.0, 131.0, 132.0]},
                  {"parent": [0.5] * 3, "change": [0.5] * 3})
    assert bench_pairs.verdicts(pairs, SPEC).splitlines()[0] == (
        "verdict scaled_work_per_s: median +29.7%; gain rule fails (wins 3/3, "
        "under 10 pairs, gap 30 > parent IQR 1); within bound 25% (worse by 0.0%)")


def test_a_bound_narrower_than_the_parents_own_spread_leaves_the_metric_unresolved():
    # setup_s: the parent's quartiles 0.425 and 0.575 are 30% of its median
    # 0.5, past the 25% bound, so a change read +4% (or -4%) cannot be told
    parent = [0.3, 0.4, 0.4, 0.5, 0.5, 0.5, 0.5, 0.6, 0.6, 0.8]
    work = {"parent": [100.0] * 10, "change": [100.0] * 10}
    for change in ([v + 0.02 for v in parent], [v - 0.02 for v in parent]):
        worse = "4.0" if change[0] > parent[0] else "0.0"
        line = bench_pairs.verdicts(_runs(work, {"parent": parent, "change": change}),
                                    SPEC).splitlines()[1]
        assert line.endswith(f"; unresolved: parent IQR 30.0% of its median > bound 25% "
                             f"(worse by {worse}%)")
    # unless every run of the change beats every run of the parent
    apart = _runs(work, {"parent": parent, "change": [0.1 + 0.01 * i for i in range(10)]})
    assert bench_pairs.verdicts(apart, SPEC).splitlines()[1].endswith(
        "; within bound 25% (worse by 0.0%)")
    # a parent spread within the bound leaves the verdict as it was
    narrow = _runs(work, {"parent": [0.5] * 9 + [0.8], "change": [0.52] * 10})
    assert bench_pairs.verdicts(narrow, SPEC).splitlines()[1].endswith(
        "; within bound 25% (worse by 4.0%)")


def test_each_run_prints_its_exit_and_end_to_end_values_as_it_ends(tmp_path, capsys,
                                                                   monkeypatch):
    spec = {"end_to_end": [{"name": "scaled_work_per_s", "better": "higher", "bound": 0.25},
                           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}],
            "per_layer": [{"name": "setup_s", "better": "lower"}]}
    files = {**BENCH, "BENCHMARK.json": json.dumps(spec)}
    parent, change = _tree(tmp_path / "parent", files), _tree(tmp_path / "change", files)
    runs = {(parent, 41): _run(41, 132203.5, 0.5), (change, 41): _run(41, 98.25, 0.5),
            (parent, 42): _run(42, 120000.0, 0.5, exit_code=1),
            (change, 42): {"seed": 42, "exit": 1, "result": None}}
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, workload, seed, trace: runs[checkout, seed])
    assert bench_pairs.main([parent, change, "--workload", "analyze", "--seeds", "41-42"]) == 1
    # the parent runs first on even pairs and the change on odd ones; only
    # end-to-end metrics are listed, and only those a run reports
    assert capsys.readouterr().err.splitlines() == [
        "pair 0 seed 41 parent: exit 0, scaled_work_per_s 132204",
        "pair 0 seed 41 change: exit 0, scaled_work_per_s 98.25",
        "pair 1 seed 42 change: exit 1",
        "pair 1 seed 42 parent: exit 1, scaled_work_per_s 120000",
    ]


def test_a_bad_run_still_prints_the_summary_and_exits_1(tmp_path, capsys, monkeypatch):
    files = {**BENCH, "BENCHMARK.json": json.dumps({"end_to_end": []})}
    parent, change = _tree(tmp_path / "parent", files), _tree(tmp_path / "change", files)
    args = [parent, change, "--workload", "analyze", "--seeds", "1-2"]
    runs = {(side, seed): _run(seed, work, 0.5)
            for side, work in ((parent, 100.0), (change, 110.0)) for seed in (1, 2)}
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, workload, seed, trace: runs[checkout, seed])
    assert bench_pairs.main(args) == 0
    for bad in (_run(2, 110.0, 0.5, correct=False), _run(2, 110.0, 0.5, failed=1),
                _run(2, 110.0, 0.5, exit_code=1), {"seed": 2, "exit": 0, "result": None}):
        runs[change, 2] = bad
        capsys.readouterr()
        assert bench_pairs.main(args) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("scaled_work_per_s: parent 100 [100, 100]")
        flagged = [line for line in out if line.startswith("BAD")]
        assert len(flagged) == 1 and flagged[0].startswith("BAD change seed 2: exit ")


PROV = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
        "commit": "b3c0b13", "src_sha256": "ab12", "generator": None}


def test_a_run_reads_its_result_and_provenance_from_the_benchmark(tmp_path):
    line = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {}})
    script = (f"print('provenance: ' + {json.dumps({**PROV, 'seed': 7})!r})\n"
              f"print({line!r})\nraise SystemExit(1)\n")
    checkout = _tree(tmp_path / "c", {"bench/run.py": script})
    assert bench_pairs.run_once(checkout, "analyze", 7, 0) == {
        "seed": 7, "exit": 1, "result": json.loads(line), "provenance": {**PROV, "seed": 7}}
    empty = _tree(tmp_path / "e", {"bench/run.py": "print('not json')\n"})
    assert bench_pairs.run_once(empty, "analyze", 7, 0) == {
        "seed": 7, "exit": 0, "result": None, "provenance": None}


def test_out_writes_each_pair_and_values_that_give_the_printed_medians(tmp_path, capsys,
                                                                        monkeypatch):
    spec = {"end_to_end": [{"name": "scaled_work_per_s", "better": "higher", "bound": 0.25},
                           {"name": "setup_s", "better": "lower", "bound": 0.25}]}
    files = {**BENCH, "BENCHMARK.json": json.dumps(spec)}
    parent, change = _tree(tmp_path / "parent", files), _tree(tmp_path / "change", files)
    work = {parent: [100.0, 104.0, 98.5, 101.0], change: [130.0, 128.5, 99.0, 135.0]}
    runs = {}
    for side, commit in ((parent, "aaa"), (change, "bbb")):
        for i, seed in enumerate(range(41, 45)):
            runs[side, seed] = {**_run(seed, work[side][i], 0.5 + 0.01 * i),
                                "provenance": {**PROV, "commit": commit, "seed": seed}}
    runs[change, 43] = {**_run(43, 99.0, 0.52, correct=False), "provenance": None}
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, workload, seed, trace: runs[checkout, seed])
    out = tmp_path / "BENCH.json"
    args = [parent, change, "--workload", "analyze", "--seeds", "41-44"]
    assert bench_pairs.main(args) == 1
    printed = capsys.readouterr().out
    assert bench_pairs.main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().out == printed   # the file changes nothing printed
    got = json.loads(out.read_text())
    assert set(got) == {"workload", "trace", "provenance", "pairs", "metrics"}
    assert (got["workload"], got["trace"]) == ("analyze", 0)
    assert got["provenance"] == {"parent": {**PROV, "commit": "aaa"},
                                 "change": {**PROV, "commit": "bbb"}}
    assert [(p["pair"], p["seed"], p["order"]) for p in got["pairs"]] == [
        (0, 41, ["parent", "change"]), (1, 42, ["change", "parent"]),
        (2, 43, ["parent", "change"]), (3, 44, ["change", "parent"])]
    assert got["pairs"][2]["change"] == {
        "exit": 0, "bad": True, "correct": False, "attempted": 10, "failed": 0,
        "metrics": {"scaled_work_per_s": 99.0, "setup_s": 0.52}}
    verdicts = dict(line.split(": ", 1) for line in printed.splitlines()
                    if line.startswith("verdict "))
    for name, entry in got["metrics"].items():
        assert entry["paired"] == 4
        assert entry["verdict"] == f"verdict {name}: {verdicts[f'verdict {name}']}"
        for side in bench_pairs.SIDES:
            values = [p[side]["metrics"][name] for p in got["pairs"]]
            q1, q2, q3 = bench_pairs._quartiles(values)
            assert entry[side] == {"q1": q1, "median": q2, "q3": q3}
            assert f"{side} {q2:.4g} [{q1:.4g}, {q3:.4g}]" in printed
    assert got["metrics"]["scaled_work_per_s"]["wins"] == 4 and "change wins 4/4" in printed
    assert got["metrics"]["scaled_work_per_s"]["change"]["median"] == 129.25
