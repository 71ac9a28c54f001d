import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from pcomb import adjust, custom_pvalue_distribution, rank_methods, synthetic_scenario
from pcomb.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPdist:
    def test_binomial_two_sided(self, capsys):
        code, out, err = invoke(capsys, "pdist", "--family", "binomial",
                                "--trials", "5", "--prob", "0.5", "--side", "two")
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert obj["side"] == "two"
        np.testing.assert_allclose(obj["F"], [0.0625, 0.375, 1.0], rtol=1e-12)

    def test_custom_atoms(self, capsys):
        code, out, _ = invoke(capsys, "pdist", "--atoms", "0.5,1.0", "--side", "left")
        assert code == 0
        assert json.loads(out)["F"] == [0.5, 1.0]

    def test_model_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(
            json.dumps({"family": "binomial", "params": {"trials": 5, "prob": 0.5}})))
        code, out, _ = invoke(capsys, "pdist", "--model", "-", "--side", "left")
        assert code == 0
        assert len(json.loads(out)["F"]) == 6

    def test_missing_family_is_computation_error(self, capsys):
        code, _, err = invoke(capsys, "pdist", "--side", "left")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("args", [
        ["--family", "poisson", "--rate", "1e9"],
        ["--family", "binomial", "--trials", "100000000", "--prob", "0.5"],
        ["--family", "geometric", "--prob", "1e-12"],
    ])
    def test_support_over_cap_is_computation_error(self, capsys, args):
        # refused before the support is allocated (7.45 GiB for the Poisson)
        # and, for the geometric, before a walk of millions of steps
        code, out, err = invoke(capsys, "pdist", *args, "--side", "left")
        assert code == 1 and out == ""
        assert re.fullmatch(r"pcomb: error: the support would have \d+ points, "
                            r"more than the cap of 10000000\n", err)

    @pytest.mark.parametrize("args,message", [
        (["--family", "poisson", "--rate", "1e300"],
         "the support would have over 1e+300 points, more than the cap of 10000000"),
        (["--family", "negative-binomial", "--successes", "3", "--prob", "1e-300"],
         "the support would have over 3e+300 points, more than the cap of 10000000"),
        (["--family", "poisson", "--rate", "inf"],
         "rate must be a positive finite number, got inf"),
        (["--family", "noncentral-hypergeometric", "--population", "50", "--successes",
          "20", "--draws", "10", "--odds", "inf"],
         "odds must be a positive finite number, got inf"),
    ])
    def test_non_finite_or_huge_law_is_computation_error(self, capsys, args, message):
        # no tail is searched at these scales, so nothing warns or allocates
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = invoke(capsys, "pdist", *args, "--side", "left")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (1, "", f"pcomb: error: {message}\n")
        assert peak < 1 << 20

    @pytest.mark.parametrize("args,message", [
        (["--atoms", "0.5,abc"], "--atoms: 'abc' is not a number"),
        (["--family", "custom", "--support", "0,1.5", "--pmf", "0.5,0.5"],
         "--support: '1.5' is not an integer"),
        (["--family", "custom", "--support", "0,1", "--pmf", "0.5,x"],
         "--pmf: 'x' is not a number"),
        (["--family", "custom", "--pmf", "1"], "custom family needs --support and --pmf"),
    ])
    def test_bad_list_flag_names_the_flag(self, capsys, args, message):
        code, out, err = invoke(capsys, "pdist", *args, "--side", "left")
        assert (code, out, err) == (1, "", f"pcomb: error: {message}\n")

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["pdist", "--family", "binomial", "--side", "sideways"])
        assert exc.value.code == 2


class TestPipeline:
    def test_round_trip_matches_in_process(self, capsys, tmp_path):
        # pdist -> adjust -> metrics through files must equal the API bit for bit
        pd = tmp_path / "d.json"
        code, out, _ = invoke(capsys, "pdist", "--out", str(pd), "--family", "binomial",
                              "--trials", "5", "--prob", "0.1", "--side", "left")
        assert code == 0

        code, out, _ = invoke(capsys, "adjust", "--method", "fisher", "--pdist", str(pd))
        assert code == 0
        got = json.loads(out)

        from pcomb import DiscretePValueDist, make_statistic_model, pvalue_distribution
        dist = pvalue_distribution(
            make_statistic_model("binomial", {"trials": 5, "prob": 0.1}), "left")
        ref = adjust("fisher", DiscretePValueDist.from_json(json.loads(pd.read_text())))
        assert got["variance"] == ref.variance
        assert got["z"] == ref.z.tolist()
        # and the file round trip loses nothing relative to the direct path
        assert ref.variance == adjust("fisher", dist).variance

        code, out, _ = invoke(capsys, "metrics", "--pdist", str(pd))
        assert code == 0
        rep = rank_methods(dist)
        assert out == rep.to_csv()

    def test_metrics_csv_row(self, capsys, tmp_path):
        pl = synthetic_scenario("PL").null_dists()[0]
        pd = tmp_path / "pl.json"
        pd.write_text(json.dumps(pl.to_json()))
        code, out, _ = invoke(capsys, "metrics", "--pdist", str(pd))
        assert code == 0
        first = out.strip().split("\n")[1].split(",")
        assert first[0] == "fisher"
        assert float(first[1]) == pytest.approx(2.39995, abs=1e-5)
        assert float(first[2]) == pytest.approx(0.6, abs=1e-4)
        assert float(first[3]) == pytest.approx(0.4699, abs=1e-4)

    @pytest.mark.parametrize("atoms", [[1.0], [1e-320, 1.0]])
    def test_metrics_of_zero_variance_names_both_causes(self, capsys, tmp_path, atoms):
        # two atoms whose first holds 1e-320 of the mass: every share of
        # Var(Z) but Edgington's underflows to zero, as for a single atom
        pd = tmp_path / "d.json"
        pd.write_text(json.dumps({"side": "left", "F": atoms}))
        code, out, err = invoke(capsys, "metrics", "--pdist", str(pd))
        assert (code, out) == (1, "")
        assert err == ("pcomb: error: every per-test variance must be positive and finite, "
                       "got 0.0 (a p-value distribution with one atom, or with all its mass "
                       "on one atom, has zero variance)\n")

    def test_combine_tests_input(self, capsys, tmp_path):
        spec = {"tests": [
            {"model": {"family": "binomial", "params": {"trials": 5, "prob": 0.5}},
             "side": "left", "x": 0},
            {"model": {"family": "binomial", "params": {"trials": 5, "prob": 0.5}},
             "side": "left", "x": 1},
        ]}
        f = tmp_path / "in.json"
        f.write_text(json.dumps(spec))
        code, out, _ = invoke(capsys, "combine", "--method", "fisher", "--input", str(f))
        assert code == 0
        obj = json.loads(out)
        assert obj["method"] == "fisher" and obj["n"] == 2
        assert 0.0 <= obj["p"] <= 1.0

    def test_combine_pvalues_input(self, capsys, tmp_path):
        spec = {"pvalues": [0.5, 1.0],
                "dists": [{"side": "left", "F": [0.5, 1.0]},
                          {"side": "left", "F": [0.5, 1.0]}]}
        f = tmp_path / "in.json"
        f.write_text(json.dumps(spec))
        code, out, _ = invoke(capsys, "combine", "--method", "edgington", "--input", str(f))
        assert code == 0
        assert json.loads(out)["S"] == pytest.approx(1.0)

    def test_bad_observation_is_computation_error(self, capsys, tmp_path):
        f = tmp_path / "in.json"
        f.write_text(json.dumps({"pvalues": [0.7], "dists": [{"side": "left", "F": [0.5, 1.0]}]}))
        code, _, err = invoke(capsys, "combine", "--method", "fisher", "--input", str(f))
        assert code == 1 and "atom" in err

    def test_malformed_json(self, capsys, tmp_path):
        f = tmp_path / "in.json"
        f.write_text("{not json")
        code, _, err = invoke(capsys, "adjust", "--method", "fisher", "--pdist", str(f))
        assert code == 1


class TestSimulateAndExample:
    def test_simulate_deterministic(self, capsys, tmp_path):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"kind": "synthetic", "name": "PC"}))
        args = ["simulate", "--scenario", str(sc), "--n-grid", "4",
                "--reps", "60", "--alpha", "0.05", "--seed", "3"]
        code, out1, _ = invoke(capsys, *args)
        assert code == 0
        code, out2, _ = invoke(capsys, *args, "--workers", "3")
        assert out1 == out2
        header = out1.split("\n")[0]
        assert header == "scenario,method,n,alt_param,alpha,reps,rejections,proportion,mc_se,seed"

    def test_simulate_power_mode(self, capsys, tmp_path):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"kind": "circular", "points": 11}))
        code, out, _ = invoke(capsys, "simulate", "--scenario", str(sc), "--mode",
                              "power", "--alt-grid", "0.0,0.2", "--n", "20",
                              "--reps", "50", "--seed", "5", "--methods", "edgington")
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    def test_env_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PCOMB_SEED", "777")
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"kind": "synthetic", "name": "PL"}))
        code, out, _ = invoke(capsys, "simulate", "--scenario", str(sc),
                              "--n-grid", "2", "--reps", "40")
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[-1] == "777"

    @pytest.mark.parametrize("value,message", [
        ("abc", "PCOMB_SEED: 'abc' is not an integer"),
        ("1,2", "PCOMB_SEED must be one integer, got '1,2'"),
        ("", "PCOMB_SEED must be one integer, got ''"),
    ])
    def test_bad_env_seed(self, capsys, tmp_path, monkeypatch, value, message):
        monkeypatch.setenv("PCOMB_SEED", value)
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"kind": "synthetic", "name": "PL"}))
        code, out, err = invoke(capsys, "simulate", "--scenario", str(sc),
                                "--n-grid", "2", "--reps", "40")
        assert (code, out, err) == (1, "", f"pcomb: error: {message}\n")

    def test_example_gene(self, capsys):
        code, out, _ = invoke(capsys, "example", "gene")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 31
        assert lines[0] == "gene,side,method,statistic,p"

    def test_example_gene_json(self, capsys):
        code, out, _ = invoke(capsys, "example", "gene", "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == 30

    @staticmethod
    def _csv_and_json(capsys, tmp_path, argv):
        """The command's CSV and JSON outputs, with {sc}, {a} and {b} in argv
        naming a geometric scenario and two p-value distribution files."""
        paths = {"sc": tmp_path / "sc.json", "a": tmp_path / "a.json", "b": tmp_path / "b.json"}
        paths["sc"].write_text(json.dumps({"kind": "geometric", "p0": 0.5, "side": "right"}))
        paths["a"].write_text(json.dumps({"side": "left", "F": [0.2, 0.5, 1.0]}))
        paths["b"].write_text(json.dumps({"side": "left", "F": [0.1, 0.35, 0.6, 1.0]}))
        argv = [arg.format(**paths) for arg in argv]
        code, csv, _ = invoke(capsys, *argv)
        assert code == 0
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        assert code == 0
        return csv.splitlines()[1:], json.loads(out)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--scenario", "{sc}", "--mode", "power", "--alt-grid", "0.4,0.5",
         "--n", "12", "--reps", "200", "--seed", "4",
         "--methods", "fisher,pearson,george,stouffer,edgington,lrt-geometric"],
        ["simulate", "--scenario", "{sc}", "--n-grid", "3,7", "--reps", "200", "--seed", "4",
         "--workers", "2"],
    ])
    def test_simulate_json_rows_agree_with_csv(self, capsys, tmp_path, argv):
        lines, obj = self._csv_and_json(capsys, tmp_path, argv)
        assert list(obj) == ["seed", "generator", "rows"]
        assert (obj["seed"], obj["generator"]) == (4, "pcg64dxsm-stream")
        keys = ["scenario", "method", "n", "alt_param", "alpha", "reps", "rejections",
                "proportion", "mc_se"]
        assert [list(r) for r in obj["rows"]] == [keys] * len(lines)
        assert lines == [f"{r['scenario']},{r['method']},{r['n']},{r['alt_param']:.10g},"
                         f"{r['alpha']:.10g},{r['reps']},{r['rejections']},"
                         f"{r['proportion']:.6f},{r['mc_se']:.6f},4" for r in obj["rows"]]

    @pytest.mark.parametrize("files", [["{a}"], ["{a}", "{b}"]])
    def test_metrics_json_rows_agree_with_csv(self, capsys, tmp_path, files):
        lines, obj = self._csv_and_json(capsys, tmp_path, ["metrics", "--pdist", *files])
        assert lines == [f"{r['method']},{r['variance']:.6f},{r['ratio']:.6f},"
                         f"{r['scaled_w2']:.6f},{r['w2_to_y']:.6f},{r['lower_bound']:.6f}"
                         for r in obj["methods"]]
        assert obj["recommended_by_ratio"] in [r["method"] for r in obj["methods"]]

    def test_broken_pipe_exits_1_in_silence(self, capsys, monkeypatch):
        # a reader that closes early (``pcomb example gene | head -1``) is not an error
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = run(["example", "gene"])
        monkeypatch.undo()
        assert code == 1 and capsys.readouterr().err == ""

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "out.csv"
        code, out, _ = invoke(capsys, "example", "gene", "--out", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text().startswith("gene,side,method")


class TestSimulateValidation:
    """Bad experiment settings end with exit code 1 and a message in the
    option's own terms, never a traceback or an unrelated error."""

    @pytest.mark.parametrize("extra,message", [
        (["--reps", "0"], "reps must be >= 1, got 0"),
        (["--alpha", "1.5"], "alpha must be in (0, 1), got 1.5"),
        (["--n-grid", "0"], "the number of tests n must be >= 1, got 0"),
        (["--seed", "-3"], "seed must be in [0, 2**128), got -3"),
        (["--seed", str(2 ** 128 + 3)], f"seed must be in [0, 2**128), got {2 ** 128 + 3}"),
        (["--workers", "0"], "workers must be >= 1, got 0"),
        (["--workers", "-3"], "workers must be >= 1, got -3"),
        (["--n-grid", "2.5"], "--n-grid: '2.5' is not an integer"),
        (["--mode", "power", "--alt-grid", "x"], "--alt-grid: 'x' is not a number"),
        (["--methods", ","], "methods must name at least one method"),
        (["--mode", "power"], "power mode needs --alt-grid"),
    ])
    def test_bad_settings(self, capsys, tmp_path, extra, message):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"kind": "synthetic", "name": "PC"}))
        code, out, err = invoke(capsys, "simulate", "--scenario", str(sc),
                                "--n-grid", "4", "--reps", "10", *extra)
        assert code == 1 and out == ""
        assert err == f"pcomb: error: {message}\n"

    def test_power_mode_bad_n(self, capsys, tmp_path):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"kind": "circular", "points": 11}))
        code, _, err = invoke(capsys, "simulate", "--scenario", str(sc), "--mode", "power",
                              "--alt-grid", "0.1", "--n", "0", "--reps", "10")
        assert code == 1
        assert err == "pcomb: error: the number of tests n must be >= 1, got 0\n"

    @pytest.mark.parametrize("extra", [
        ["--n-grid", "10000001"],
        ["--n-grid", "4,1000000000"],
        ["--mode", "power", "--alt-grid", "0.1", "--n", "10000001"],
    ])
    def test_test_count_over_cap(self, capsys, tmp_path, extra):
        # one replicate of 10**9 tests once took the machine's memory and was
        # killed without a message; the count is now refused unallocated
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"kind": "circular", "points": 11}))
        tracemalloc.start()
        try:
            code, out, err = invoke(capsys, "simulate", "--scenario", str(sc),
                                    "--reps", "1", *extra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert re.fullmatch(r"pcomb: error: the number of tests n must be <= 10000000, "
                            r"got (10000001|1000000000)\n", err)
        assert peak < 1 << 20

    @pytest.mark.parametrize("scenario,alt,message", [
        ({"kind": "binomial", "theta0": 0.3}, "1.5", "theta=1.5, outside [0, 1]"),
        ({"kind": "binomial", "theta0": 0.3}, "-0.5", "theta=-0.5, outside [0, 1]"),
        ({"kind": "binomial", "theta0": 0.3}, "nan", "theta=nan, outside [0, 1]"),
        ({"kind": "circular", "points": 11}, "nan", "lambda=nan, outside [0, inf)"),
        ({"kind": "circular", "points": 11}, "inf", "lambda=inf, outside [0, inf)"),
        ({"kind": "circular", "points": 11}, "-1", "lambda=-1.0, outside [0, inf)"),
    ])
    def test_alternative_out_of_range(self, capsys, tmp_path, scenario, alt, message):
        # these once sampled from a NaN cdf and printed power 1 for every method
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(scenario))
        code, out, err = invoke(capsys, "simulate", "--scenario", str(sc), "--mode", "power",
                                f"--alt-grid={alt}", "--n", "10", "--reps", "10")
        assert (code, out) == (1, "")
        assert err == f"pcomb: error: alternative parameter gives {message}\n"

    def test_huge_lambda_is_a_point_mass(self, capsys, tmp_path):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"kind": "circular", "points": 11}))
        code, out, err = invoke(capsys, "simulate", "--scenario", str(sc), "--mode", "power",
                                "--alt-grid", "1e308", "--n", "10", "--reps", "10",
                                "--methods", "edgington")
        assert code == 0 and err == ""
        assert out.split("\n")[1].split(",")[6] == "10"

    def test_scenario_missing_side(self, capsys, tmp_path):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"kind": "geometric", "p0": 0.5}))
        code, _, err = invoke(capsys, "simulate", "--scenario", str(sc), "--reps", "10")
        assert code == 1
        assert err == "pcomb: error: geometric scenario needs the key 'side'\n"

    @pytest.mark.parametrize("scenario,message", [
        ({"kind": "binomial", "theta0": 0.3, "trials": 3.7}, "trials must be an integer, got 3.7"),
        ({"kind": "binomial", "theta0": 1.5}, "theta0 must be in (0, 1), got 1.5"),
        ({"kind": "geometric-noniid", "p0_set": [], "side": "right"}, "p0_set must be nonempty"),
    ])
    def test_bad_scenario_parameter_is_named(self, capsys, tmp_path, scenario, message):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps(scenario))
        code, out, err = invoke(capsys, "simulate", "--scenario", str(sc), "--reps", "10")
        assert code == 1 and out == ""
        assert err == f"pcomb: error: {message}\n"


_BINOMIAL_SCENARIO = {"kind": "binomial", "theta0": 0.3}
_PDIST_MODEL = ["pdist", "--model", "m.json", "--side", "left"]


@pytest.mark.parametrize("files,argv,message", [
    ({}, ["pdist", "--atoms", "0.5,nan,1", "--side", "left"],
     "atoms entries must be finite numbers, got nan"),
    ({"sc.json": _BINOMIAL_SCENARIO},
     ["simulate", "--scenario", "sc.json", "--alpha", "nan", "--reps", "10"],
     "alpha must be in (0, 1), got nan"),
    ({"sc.json": _BINOMIAL_SCENARIO},
     ["simulate", "--scenario", "sc.json", "--mode", "power", "--alt-grid", "inf", "--n", "5",
      "--reps", "10"],
     "alternative parameter gives theta=inf, outside [0, 1]"),
    ({"m.json": {"family": "binomial", "params": {"trials": "5", "prob": "0.5"}}}, _PDIST_MODEL,
     "trials must be an integer, got '5'"),
    ({"m.json": {"family": "binomial", "params": {"trials": 5, "prob": "0.5"}}}, _PDIST_MODEL,
     "prob must be a number, got '0.5'"),
    # a parameter the family does not take was once dropped without a word
    ({"m.json": {"family": "binomial", "params": {"trials": 5, "prob": 0.5, "rate": "x"}}},
     _PDIST_MODEL, "the binomial model takes no parameter 'rate'"),
    ({}, ["pdist", "--family", "binomial", "--trials", "5", "--prob", "0.5", "--rate", "3",
          "--side", "left"],
     "the binomial model takes no parameter 'rate'"),
    ({}, ["pdist", "--family", "custom", "--support", "0,1", "--pmf", "0.5,0.5", "--trials", "3",
          "--side", "left"],
     "the custom model takes no parameter 'trials'"),
    ({"sc.json": {"kind": "geometric-noniid", "p0_set": 0.5}},
     ["simulate", "--scenario", "sc.json", "--reps", "10"],
     "p0_set must be a list of numbers, got 0.5"),
])
def test_bad_input_is_one_line_naming_it(capsys, tmp_path, monkeypatch, files, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (1, "", f"pcomb: error: {message}\n")


_BINOMIAL = {"family": "binomial", "params": {"trials": 5, "prob": 0.5}}
_MALFORMED = [
    ("combine", 5, "combine input must be a JSON object, got 5"),
    ("combine", {"pvalues": 0.5, "dists": 3}, "the input's 'dists' must be a JSON list, got 3"),
    ("combine", {"pvalues": [0.5]}, "the input's 'dists' must be a JSON list, got None"),
    ("combine", {"pvalues": [0.5], "dists": [[0.5, 1.0]]},
     "a p-value distribution must be a JSON object, got [0.5, 1.0]"),
    ("combine", {"tests": [{"model": _BINOMIAL, "x": 1}]}, "test 0 needs the key 'side'"),
    ("combine", {"pvalues": [0.5], "dists": [{"side": "left"}]},
     "a p-value distribution needs the key 'F'"),
    ("combine", {"pvalues": [0.5], "dists": [{"side": "left", "F": [None, 1.0]}]},
     "F entries must be finite numbers, got None"),
    ("combine", {"tests": [{"model": {"family": "binomial", "params": {"trials": None}},
                            "side": "left", "x": 1}]},
     "the binomial model needs the parameter 'prob'"),
    ("combine", {"tests": [{"model": {"family": "binomial",
                                      "params": {"trials": None, "prob": 0.5}},
                            "side": "left", "x": 1}]},
     "trials must be an integer, got None"),
    ("combine", {"tests": [{"model": {"family": "binomial", "params": [5]},
                            "side": "left", "x": 1}]},
     "the binomial params must be a JSON object, got [5]"),
    ("combine", {"tests": [{"model": _BINOMIAL, "side": "left", "x": None}]},
     "test 0's 'x' must be an integer, got None"),
    ("combine", {"tests": [{"model": _BINOMIAL, "side": "left", "x": 1.5}]},
     "test 0's 'x' must be an integer, got 1.5"),
    ("simulate", [1], "a scenario must be a JSON object, got [1]"),
    ("simulate", {"kind": "circular", "points": "x"},
     "points must be a finite number, got 'x'"),
    ("simulate", {"kind": "circular", "points": 11.5},
     "points must be an odd integer >= 3, got 11.5"),
    ("simulate", {"kind": "binomial", "theta0": "abc"},
     "theta0 must be a number, got 'abc'"),
    ("simulate", {"kind": "synthetic", "name": ["PL"]},
     "unknown synthetic distribution ['PL']; expected one of ('PL', 'PR', 'PC', 'PS')"),
    ("simulate", {"kind": "circular", "points": 199, "side": "left"},
     "the circular scenario takes no key 'side'"),
    ("simulate", {"kind": "ring"}, "unknown scenario kind 'ring'"),
    ("combine", {"dists": []}, "combine input needs either 'tests' or 'pvalues'+'dists'"),
    ("adjust", [0.5, 1], "a p-value distribution must be a JSON object, got [0.5, 1]"),
    # a cast would truncate 1.5 to 1 and overflow on 1e30
    ("pdist", {"family": "custom", "support": [1.5, 2.0], "pmf": [0.5, 0.5]},
     "support entries must be 64-bit integers, got 1.5"),
    ("pdist", {"family": "custom", "support": [1e30, 2e30], "pmf": [0.5, 0.5]},
     "support entries must be 64-bit integers, got 1e+30"),
    ("combine", {"tests": [{"model": {"family": "custom", "support": [1.5, 2.0],
                                      "pmf": [0.5, 0.5]}, "side": "left", "x": 2}]},
     "support entries must be 64-bit integers, got 1.5"),
    # integers too large for a float
    ("combine", {"pvalues": [10 ** 400], "dists": [{"side": "left", "F": [0.5, 1.0]}]},
     "pvalues entries must be finite numbers, got 100000000000000000...0000000000000000000"),
    ("combine", {"tests": [{"model": {"family": "poisson", "params": {"rate": 10 ** 400}},
                            "side": "left", "x": 1}]},
     "rate must be a finite number, got 100000000000000000...0000000000000000000"),
    ("simulate", {"kind": "circular", "points": -10 ** 400},
     "points must be a finite number, got -10000000000000000...0000000000000000000"),
    ("pdist", {"family": "binomial", "params": {"trials": "3.5", "prob": 0.5}},
     "trials must be an integer, got '3.5'"),
    # float(true) would be a one-trial model
    ("pdist", {"family": "binomial", "params": {"trials": True, "prob": 0.5}},
     "trials must be an integer, got True"),
]


@pytest.mark.parametrize("command,payload,message", _MALFORMED)
def test_malformed_json_is_one_line_error(capsys, tmp_path, command, payload, message):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(payload))
    flag = {"combine": ["--method", "fisher", "--input"],
            "simulate": ["--reps", "10", "--scenario"],
            "adjust": ["--method", "fisher", "--pdist"],
            "pdist": ["--side", "left", "--model"]}[command]
    code, out, err = invoke(capsys, command, *flag, str(f))
    assert code == 1 and out == ""
    assert err == f"pcomb: error: {message}\n"


# No CLI request needs scipy.stats or scipy.integrate, and every call of the
# console script is a fresh interpreter that pays for each module it imports.
# The quadrature of arbitrary quantiles is pcomb's own, so neither
# adjust_generic nor a metric on a bare quantile callable loads scipy.integrate.
_IMPORT_GUARD = r"""
import json, os, sys
from pcomb import cli

tmp = sys.argv[1]
out = os.path.join(tmp, "out")
requests = [["pdist", "--family", family, *flags, "--side", side]
            for family, flags in json.load(open(os.path.join(tmp, "families.json")))
            for side in ("left", "right", "two")]
requests += [
    ["combine", "--method", "fisher", "--input", os.path.join(tmp, "tests.json")],
    ["metrics", "--pdist", os.path.join(tmp, "d.json")],
    ["simulate", "--scenario", os.path.join(tmp, "geometric.json"), "--mode", "power",
     "--alt-grid", "0.5,0.4", "--n", "20", "--reps", "50", "--seed", "1",
     "--methods", "fisher,lrt-geometric"],
    ["simulate", "--scenario", os.path.join(tmp, "binomial.json"), "--mode", "power",
     "--alt-grid", "0.3,0.4", "--n", "5", "--reps", "50", "--seed", "1"],
    ["example", "gene"],
]
codes = [cli.run([*argv, "--out", out]) for argv in requests]
loaded = sorted(m for m in sys.modules if m.startswith(("scipy.stats", "scipy.integrate")))

from pcomb import adjust, adjust_generic, custom_pvalue_distribution, w2_discrete_continuous
d = custom_pvalue_distribution([0.5, 1.0], "left")
adjust_generic(lambda w: w, "p", d)
w2_discrete_continuous(adjust("edgington", d), lambda w: w)
print(json.dumps({"codes": codes, "loaded": loaded,
                  "integrate_after_generic": "scipy.integrate" in sys.modules}))
"""


def test_requests_load_neither_scipy_stats_nor_integrate(tmp_path):
    families = [
        ("binomial", ["--trials", "20", "--prob", "0.3"]),
        ("poisson", ["--rate", "4.5"]),
        ("negative-binomial", ["--successes", "3", "--prob", "0.4"]),
        ("geometric", ["--prob", "0.3"]),
        ("hypergeometric", ["--population", "2000", "--successes", "1000", "--draws", "19"]),
        ("noncentral-hypergeometric", ["--population", "2000", "--successes", "1000",
                                       "--draws", "19", "--odds", "2.0"]),
    ]
    (tmp_path / "families.json").write_text(json.dumps(families))
    model = {"family": "hypergeometric",
             "params": {"population": 2000, "successes": 1000, "draws": 19}}
    (tmp_path / "tests.json").write_text(json.dumps(
        {"tests": [{"model": model, "side": "two", "x": x} for x in (7, 9, 13)]}))
    (tmp_path / "d.json").write_text(json.dumps({"side": "left", "F": [0.2, 0.5, 1.0]}))
    (tmp_path / "geometric.json").write_text(
        json.dumps({"kind": "geometric", "p0": 0.5, "side": "right"}))
    (tmp_path / "binomial.json").write_text(
        json.dumps({"kind": "binomial", "theta0": 0.3, "trials": 5, "side": "two"}))
    got = _fresh_interpreter(_IMPORT_GUARD, tmp_path)
    assert got["codes"] == [0] * len(got["codes"])
    assert got["loaded"] == []
    assert not got["integrate_after_generic"]


def _fresh_interpreter(code, tmp_path):
    """What ``code`` prints on its last line as JSON, run in a fresh
    interpreter on this checkout's source with ``tmp_path`` as its argument."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# scipy.special is loaded at the first special-function call, not at import:
# its package init is most of a call of the console script that needs none.
_SPECIAL_GUARD = r"""
import contextlib, io, json, os, sys
import pcomb, pcomb.cli
from pcomb import cli

tmp = sys.argv[1]
out = os.path.join(tmp, "out")
families = [
    ("hypergeometric", ["--population", "2000", "--successes", "1000", "--draws", "19"]),
    ("noncentral-hypergeometric", ["--population", "2000", "--successes", "1000",
                                   "--draws", "19", "--odds", "2.0"]),
    ("geometric", ["--prob", "0.3"]),
]
requests = [["--help"], ["pdist", "--side", "sideways"]]
requests += [["pdist", "--family", family, *flags, "--side", side, "--out", out]
             for family, flags in families for side in ("left", "right", "two")]
requests += [["adjust", "--method", method, "--pdist", os.path.join(tmp, "d.json"),
              "--out", out] for method in ("fisher", "pearson", "george", "edgington")]


def code(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.run(argv)
    except SystemExit as exc:
        return exc.code


codes = [code(argv) for argv in requests]
before = "scipy.special" in sys.modules
codes.append(code(["combine", "--method", "fisher", "--input", os.path.join(tmp, "tests.json"),
                   "--out", out]))
print(json.dumps({"codes": codes, "before": before, "after": "scipy.special" in sys.modules}))
"""


def test_requests_that_need_no_special_function_leave_scipy_special_unloaded(tmp_path):
    (tmp_path / "d.json").write_text(json.dumps({"side": "left", "F": [0.2, 0.5, 1.0]}))
    model = {"family": "hypergeometric",
             "params": {"population": 2000, "successes": 1000, "draws": 19}}
    (tmp_path / "tests.json").write_text(json.dumps(
        {"tests": [{"model": model, "side": "two", "x": x} for x in (7, 9, 13)]}))
    got = _fresh_interpreter(_SPECIAL_GUARD, tmp_path)
    assert got["codes"] == [0, 2] + [0] * 14
    assert not got["before"]
    assert got["after"]


#: sha256 of the CLI transcript (tests/cli_transcript.py); every output the
#: CLI writes to stdout for its fixed inputs
CLI_TRANSCRIPT_SHA256 = "a9df3661cf3a239d43a788bb21bb4087772e2c8a84693a47aeb2c3047c6d92d5"


def test_cli_transcript_is_pinned():
    from cli_transcript import transcript

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        transcript()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CLI_TRANSCRIPT_SHA256
