import io
import json
import re

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

    def test_scenario_missing_side(self, capsys, tmp_path):
        sc = tmp_path / "sc.json"
        sc.write_text(json.dumps({"kind": "geometric", "p0": 0.5}))
        code, _, err = invoke(capsys, "simulate", "--scenario", str(sc), "--reps", "10")
        assert code == 1
        assert err == "pcomb: error: geometric scenario needs the key 'side'\n"
