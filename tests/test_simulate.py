import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from pcomb import (LRT_GEOMETRIC, METHODS, adjust, binomial_scenario,
                   circular_scenario, custom_pvalue_distribution,
                   exact_convolution, gene_example, geometric_noniid_scenario,
                   geometric_scenario, power_experiment, sample_pvalues,
                   scenario_from_json, surrogate, synthetic_scenario,
                   type1_experiment)
from pcomb import simulate
from pcomb._inputs import SUPPORT_CAP
from pcomb.simulate import BLOCK_ELEMENTS, SYNTHETIC_ATOMS, _geometric_lrt_threshold

TWO_ATOM = custom_pvalue_distribution([0.5, 1.0], "left")


class TestScenarios:
    def test_synthetic_atoms(self):
        assert SYNTHETIC_ATOMS["PL"][0] == pytest.approx(0.4)
        assert all(a[-1] == 1.0 for a in SYNTHETIC_ATOMS.values())
        assert len(SYNTHETIC_ATOMS["PL"]) == len(SYNTHETIC_ATOMS["PR"]) == 61
        assert len(SYNTHETIC_ATOMS["PC"]) == 61 and len(SYNTHETIC_ATOMS["PS"]) == 42
        d = synthetic_scenario("PS").null_dists()[0]
        assert d.masses[0] == pytest.approx(0.3) and d.masses[-1] == pytest.approx(0.3)

    def test_circular_atoms(self):
        sc = circular_scenario(11)
        d = sc.null_dists()[0]
        np.testing.assert_allclose(d.atoms, (2.0 * np.arange(6) + 1.0) / 11.0, rtol=1e-15)
        with pytest.raises(ValueError):
            circular_scenario(10)

    def test_geometric_right_atoms(self):
        d = geometric_scenario(0.5, "right").null_dists()[0]
        assert d.atoms[-1] == 1.0
        np.testing.assert_allclose(d.atoms[-4:], [0.125, 0.25, 0.5, 1.0], rtol=1e-12)

    def test_noniid_groups_cycle(self):
        sc = geometric_noniid_scenario((0.2, 0.5, 0.8), "right")
        assert len(sc.null_dists()) == 3
        np.testing.assert_array_equal(sc.group_assignment(7), [0, 1, 2, 0, 1, 2, 0])

    def test_json_round_trip(self):
        alternative = {"synthetic": None, "binomial": 0.4, "geometric": 0.3,
                       "geometric-noniid": 0.05, "circular": 0.5}
        for sc in (synthetic_scenario("PC"), binomial_scenario(0.1),
                   geometric_scenario(0.5, "right"),
                   geometric_noniid_scenario(side="left"), circular_scenario(11)):
            again = scenario_from_json(json.loads(json.dumps(sc.to_json())))
            assert again.name == sc.name
            assert again.null_param == sc.null_param and again.params == sc.params
            assert len(again._groups) == len(sc._groups)
            for g, h in zip(sc._groups, again._groups):
                assert g.dist.atoms.tobytes() == h.dist.atoms.tobytes()
                assert g.cdf_for(None).tobytes() == h.cdf_for(None).tobytes()
                alt = alternative[sc.kind]
                assert g.cdf_for(alt).tobytes() == h.cdf_for(alt).tobytes()
                if alt is not None:
                    assert g.cdf_for(alt).tobytes() != g.cdf_for(None).tobytes()

    def test_binomial_parameters_checked_when_built(self):
        assert binomial_scenario(0.3, 5.0).params == {"theta0": 0.3, "trials": 5}
        for args, message in [((1.5,), "theta0 must be in (0, 1), got 1.5"),
                              ((0.3, 3.7), "trials must be an integer, got 3.7"),
                              ((0.3, 0), "trials must be >= 1, got 0"),
                              ((0.3, True), "trials must be an integer, got True")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                binomial_scenario(*args)

    def test_geometric_parameters_checked_when_built(self):
        for p0 in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError, match=r"^p0 must be in \(0, 1\), got "):
                geometric_scenario(p0, "right")

    def test_noniid_parameters_checked_when_built(self):
        with pytest.raises(ValueError, match="^p0_set must be nonempty$"):
            geometric_noniid_scenario(())
        with pytest.raises(ValueError, match=re.escape("p0_set[1] must be in (0, 1), got 1.2")):
            geometric_noniid_scenario((0.2, 1.2))

    def test_circular_parameters_checked_when_built(self):
        assert circular_scenario(199.0).params == {"points": 199}
        for points in (3.7, 1, 10):
            with pytest.raises(ValueError, match=re.escape(
                    f"points must be an odd integer >= 3, got {points}")):
                circular_scenario(points)

    def test_unknown_synthetic(self):
        with pytest.raises(ValueError):
            synthetic_scenario("PX")

    @pytest.mark.parametrize("obj,built", [
        # a key left out takes the constructor's default
        ({"kind": "binomial", "theta0": 0.3}, binomial_scenario(0.3)),
        ({"kind": "binomial", "theta0": 0.3, "trials": 7, "side": "two"},
         binomial_scenario(0.3, 7, "two")),
        ({"kind": "geometric-noniid"}, geometric_noniid_scenario()),
        ({"kind": "geometric-noniid", "p0_set": [0.4, 0.6]},
         geometric_noniid_scenario((0.4, 0.6))),
        ({"kind": "geometric", "p0": 0.5, "side": "left"}, geometric_scenario(0.5, "left")),
        ({"kind": "circular", "points": 199}, circular_scenario(199)),
    ])
    def test_json_keys_are_the_constructors_parameters(self, obj, built):
        got = scenario_from_json(obj)
        assert got.to_json() == built.to_json() and got.name == built.name

    @pytest.mark.parametrize("obj,message", [
        ({"kind": "circular", "points": 199, "side": "left"},
         "the circular scenario takes no key 'side'"),
        ({"kind": "geometric", "p0": 0.5, "side": "right", "trials": 7},
         "the geometric scenario takes no key 'trials'"),
        ({"kind": "synthetic", "name": "PL", "theta0": 0.3},
         "the synthetic scenario takes no key 'theta0'"),
        ({"kind": "geometric", "side": "right"}, "geometric scenario needs the key 'p0'"),
        ({"kind": "geometric-noniid", "p0_set": [0.3, "x"]},
         "p0_set entries must be finite numbers, got 'x'"),
        ({"kind": "binomial", "theta0": 0.3, "trials": "5"},
         "trials must be an integer, got '5'"),
        ({"kind": "ring", "points": 11}, "unknown scenario kind 'ring'"),
        ({"points": 11}, "unknown scenario kind None"),
    ])
    def test_json_refuses_unknown_missing_and_mistyped_keys(self, obj, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scenario_from_json(obj)


class TestSamplePValues:
    def test_deterministic_and_atom_valued(self):
        sc = synthetic_scenario("PC")
        d = sc.null_dists()[0]
        draws1 = sample_pvalues(sc, np.random.default_rng(5), 3)
        draws2 = sample_pvalues(sc, np.random.default_rng(5), 3)
        assert [p for p, _ in draws1] == [p for p, _ in draws2]
        for p, dist in draws1:
            assert dist is d
            assert np.min(np.abs(d.atoms - p)) < 1e-15

    def test_geometric_null_law(self):
        sc = geometric_scenario(0.5, "right")
        rng = np.random.default_rng(11)
        draws = sample_pvalues(sc, rng, 500)
        values = np.array([p for p, _ in draws])
        # atoms are (1-p0)^(x-1); half the mass sits on the atom 1
        assert np.mean(values == 1.0) == pytest.approx(0.5, abs=0.08)

    def test_circular_alternative_shifts_down(self):
        sc = circular_scenario(11)
        rng = np.random.default_rng(2)
        null = np.mean([p for p, _ in sample_pvalues(sc, rng, 400)])
        rng = np.random.default_rng(2)
        alt = np.mean([p for p, _ in sample_pvalues(sc, rng, 400, alt_param=0.5)])
        assert alt < null

    def test_synthetic_has_no_alternative(self):
        with pytest.raises(ValueError):
            sample_pvalues(synthetic_scenario("PL"), np.random.default_rng(0), 2,
                           alt_param=0.3)

    @pytest.mark.parametrize("n,message", [(-1, "n must be >= 0, got -1"),
                                           (2.5, "n must be an integer, got 2.5"),
                                           (True, "n must be an integer, got True")])
    def test_bad_n_refused(self, n, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_pvalues(synthetic_scenario("PL"), np.random.default_rng(0), n)


class TestExperiments:
    def test_determinism_across_workers(self):
        sc = geometric_noniid_scenario(side="right")
        a = type1_experiment(sc, METHODS, [7, 23], 0.05, 600, seed=42, workers=1)
        b = type1_experiment(sc, METHODS, [7, 23], 0.05, 600, seed=42, workers=5)
        assert a.to_csv() == b.to_csv()

    def test_same_seed_same_report(self):
        sc = synthetic_scenario("PC")
        a = type1_experiment(sc, ["fisher"], [10], 0.05, 300, seed=9)
        b = type1_experiment(sc, ["fisher"], [10], 0.05, 300, seed=9)
        assert a.to_csv() == b.to_csv()
        c = type1_experiment(sc, ["fisher"], [10], 0.05, 300, seed=10)
        assert a.to_csv() != c.to_csv()

    def test_csv_schema(self):
        sc = synthetic_scenario("PC")
        rep = type1_experiment(sc, ["fisher", "stouffer"], [5], 0.01, 200, seed=1)
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "scenario,method,n,alt_param,alpha,reps,rejections,proportion,mc_se,seed"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[0] == "PC" and fields[1] == "fisher" and fields[10 - 1] == "1"
        r = rep.rows[0]
        assert r.mc_se == pytest.approx(
            np.sqrt(r.proportion * (1 - r.proportion) / r.reps), rel=1e-12)

    def test_power_at_null_equals_type1(self):
        sc = geometric_scenario(0.5, "right")
        t1 = type1_experiment(sc, ["fisher", "pearson"], [40], 0.05, 500, seed=21)
        pw = power_experiment(sc, ["fisher", "pearson"], [0.5], 40, 0.05, 500, seed=21)
        for m in ("fisher", "pearson"):
            assert pw.proportion(m, alt_param=0.5) == t1.proportion(m, n=40)

    def test_power_increases_away_from_null(self):
        sc = circular_scenario(11)
        rep = power_experiment(sc, ["edgington"], [0.0, 0.15], 50, 0.05, 2000, seed=3)
        assert rep.proportion("edgington", alt_param=0.0) == pytest.approx(0.05, abs=0.02)
        assert rep.proportion("edgington", alt_param=0.15) > 0.5

    def test_lrt_restricted_to_geometric(self):
        with pytest.raises(ValueError):
            power_experiment(circular_scenario(11), [LRT_GEOMETRIC], [0.1], 10,
                             0.05, 100, seed=0)
        with pytest.raises(ValueError):
            power_experiment(geometric_noniid_scenario(side="right"), [LRT_GEOMETRIC],
                             [0.0], 10, 0.05, 100, seed=0)
        # the threshold is one-sided: a two-sided scenario once ran as a
        # left-sided one and reported no rejection at all
        with pytest.raises(ValueError) as info:
            power_experiment(geometric_scenario(0.5, "two"), [LRT_GEOMETRIC], [0.4], 3,
                             0.05, 10, 0)
        assert str(info.value) == ("lrt-geometric is only defined for one-sided i.i.d. "
                                   "geometric scenarios, not 'geometric-p0.5-two'")

    def test_synthetic_power_rejected(self):
        with pytest.raises(ValueError):
            power_experiment(synthetic_scenario("PL"), ["fisher"], [0.1], 10,
                             0.05, 100, seed=0)

    def test_bad_alternative_refused_before_any_configuration_runs(self, monkeypatch):
        runs = []
        run_config = simulate._run_config
        monkeypatch.setattr(simulate, "_run_config",
                            lambda *args: runs.append(args) or run_config(*args))
        for scenario, alt_grid, message in [
                (binomial_scenario(0.3), [0.3, 0.4, 1.5],
                 "alternative parameter gives theta=1.5, outside [0, 1]"),
                (geometric_scenario(0.5, "right"), [0.3, 0.5, 1.0],
                 "alternative parameter gives p1=1.0, outside (0, 1)"),
                # the offset 0.25 moves the last null parameter, 0.8, to 1.05
                (geometric_noniid_scenario(), [0.0, 0.1, 0.25],
                 f"alternative parameter gives p1={0.8 + 0.25}, outside (0, 1)")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                power_experiment(scenario, METHODS, alt_grid, 100, 0.05, 20000, 1)
            assert runs == [], scenario.name

    @pytest.mark.parametrize("override,message", [
        ({"n_grid": [5.5]}, "the number of tests n must be an integer, got 5.5"),
        ({"reps": True}, "reps must be an integer, got True"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"workers": 1.5}, "workers must be an integer, got 1.5"),
    ])
    def test_non_integer_arguments_refused(self, override, message):
        args = {"n_grid": [5], "reps": 10, "seed": 1, "workers": 1, **override}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            type1_experiment(synthetic_scenario("PC"), ["fisher"], alpha=0.05, **args)

    @pytest.mark.parametrize("run", [
        lambda: type1_experiment(synthetic_scenario("PC"), [], [5], 0.05, 10, seed=1),
        lambda: power_experiment(circular_scenario(11), [], [0.1], 5, 0.05, 10, seed=1),
    ])
    def test_empty_method_list_refused(self, run):
        with pytest.raises(ValueError, match="^methods must name at least one method$"):
            run()

    @pytest.mark.parametrize("run,message", [
        (lambda: type1_experiment(synthetic_scenario("PC"), ["fisher"], [], 0.05, 10, seed=1),
         "n_grid must be nonempty"),
        (lambda: power_experiment(circular_scenario(11), ["fisher"], [], 5, 0.05, 10, seed=1),
         "alt_grid must be nonempty"),
    ])
    def test_empty_grid_refused(self, run, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run()

    def test_missing_row_is_a_key_error(self):
        rep = type1_experiment(synthetic_scenario("PC"), ["fisher"], [5], 0.05, 10, seed=1)
        for key, kw in [(("stouffer", None, None), {}), (("fisher", 6, None), {"n": 6}),
                        (("fisher", None, 0.3), {"alt_param": 0.3})]:
            with pytest.raises(KeyError) as info:
                rep.proportion(key[0], **kw)
            assert info.value.args == (key,)

    def test_numpy_integers_accepted(self):
        sc = synthetic_scenario("PC")
        a = type1_experiment(sc, ["fisher"], [np.int64(10)], 0.05, np.int32(300),
                             seed=np.uint64(9), workers=np.int64(2))
        assert a.to_csv() == type1_experiment(sc, ["fisher"], [10], 0.05, 300, seed=9).to_csv()


class TestAlternativeCdfs:
    # the pinned digests hash these cdfs, so they match scipy.stats bit for bit
    @pytest.mark.parametrize("theta0,trials", [(0.3, 5), (0.5, 60), (0.05, 400)])
    def test_binomial(self, theta0, trials):
        group, = binomial_scenario(theta0, trials, "two")._groups
        for theta in (0.01, theta0, 0.35, 0.9):
            want = stats.binom(trials, theta).cdf(group.dist.model.support)
            want[-1] = 1.0  # the support may end before trials: zero masses dropped
            np.testing.assert_array_equal(group.cdf_for(theta), want)

    @pytest.mark.parametrize("scenario", [geometric_scenario(0.3, "right"),
                                          geometric_noniid_scenario(side="two")])
    def test_geometric(self, scenario):
        for group, p0 in zip(scenario._groups, scenario.params.get("p0_set", [0.3])):
            for param in (0.02, 0.1, 0.15):
                p1 = p0 + param if scenario.kind == "geometric-noniid" else param
                want = stats.geom(p1).cdf(group.dist.model.support)
                want[-1] = 1.0
                np.testing.assert_array_equal(group.cdf_for(param), want)


#: built-in scenarios of every kind, each with alternatives across its
#: family's range; circular-199 at lambda 0.4, 0.5 and 0.65 and the two-sided
#: binomial null at 50 trials have cumulative sums that overshoot 1 by an ulp
#: or two
BUILTIN_GRIDS = [
    *[(synthetic_scenario(name), [None]) for name in SYNTHETIC_ATOMS],
    *[(binomial_scenario(theta0, trials, side), [None, *np.linspace(0.0, 1.0, 21)])
      for theta0, trials, side in [(0.1, 5, "left"), (0.3, 5, "right"), (0.3, 50, "two"),
                                   (0.05, 400, "two")]],
    *[(geometric_scenario(p0, side), [None, *np.linspace(0.05, 0.95, 19)])
      for p0, side in [(0.5, "right"), (0.5, "left"), (0.3, "two")]],
    *[(geometric_noniid_scenario(side=side), [None, *np.linspace(-0.15, 0.15, 13)])
      for side in ("right", "left", "two")],
    *[(circular_scenario(points), [None, 0.0, 0.005, 0.01, 0.02, 0.1, 0.4, 0.5, 0.65, 1.0,
                                   2.0, 10.0, 1e3])
      for points in (11, 51, 199)],
]


def _unclosed(group, alt):
    """The running sums a group's cdf is closed from: the alternative
    kernel's, the model's cumulated pmf, or the atoms of a model-less null."""
    if alt is not None:
        return group.alt_cdf_fn(alt)
    return group.dist.atoms if group.dist.model is None else group.dist.model.pmf.cumsum()


def _sampling_cdfs():
    """(label, unclosed running sums, the sampler's cdf) of every group of
    every built-in scenario, at the null and across its alternative grid."""
    for scenario, grid in BUILTIN_GRIDS:
        for alt in grid:
            lookups = simulate._Sampler(scenario, len(scenario._groups), alt).group_lookup
            for group, lookup in zip(scenario._groups, lookups):
                yield f"{scenario.name} at {alt}", _unclosed(group, alt), lookup.cdf


def _edge_uniforms(cdf):
    """0, each cdf value below 1 and the double just under each, and a
    spread of uniforms."""
    u = np.concatenate([[0.0], cdf, np.nextafter(cdf, 0.0),
                        np.random.default_rng(cdf.size).random(2000)])
    return u[(u >= 0.0) & (u < 1.0)]


class TestGuideTable:
    def test_sampling_cdfs_nondecreasing_and_end_at_one(self):
        overshoots = set()
        for label, raw, cdf in _sampling_cdfs():
            if raw.max() > 1.0:
                overshoots.add(label)
            assert np.all(np.diff(cdf) >= 0.0), label
            assert cdf.max() <= 1.0 and cdf[-1] == 1.0, label
        # the closing is exercised: these running sums overshoot 1 unclosed
        assert {"circular-199 at 0.4", "circular-199 at 0.5", "circular-199 at 0.65",
                "binomial-theta0.3-two at None"} <= overshoots

    def test_same_indices_as_searchsorted_on_every_scenario_cdf(self):
        for label, _, cdf in _sampling_cdfs():
            u = _edge_uniforms(cdf)
            np.testing.assert_array_equal(simulate._GuideTable(cdf)(u),
                                          np.searchsorted(cdf, u, side="left"), label)

    @pytest.mark.parametrize("cdf", [
        # a geometric tail: the top bins hold many cdf values
        np.append(1.0 - 0.5 ** np.arange(1, 60), 1.0),
        # a cluster inside one bin, and ties
        np.array([0.1, 0.3, 0.3 + 1e-12, 0.3 + 2e-12, 0.3 + 3e-12, 0.5, 0.5, 0.5, 0.9, 1.0]),
        # everything in the first bin
        np.append(np.linspace(1e-9, 1e-6, 30), 1.0),
    ])
    def test_crowded_bins_take_searchsorted(self, cdf):
        lookup = simulate._GuideTable(cdf)
        assert lookup.crowded is not None
        u = _edge_uniforms(cdf)
        assert lookup.crowded[(u * lookup.bins).astype(np.intp)].any()
        np.testing.assert_array_equal(lookup(u), np.searchsorted(cdf, u, side="left"))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 31])
    def test_strided_group_views(self, n):
        # the non-i.i.d. groups read every third test of a block: strided views
        scenario = geometric_noniid_scenario(side="two")
        sampler = simulate._Sampler(scenario, n, 0.05)
        u = _uniforms(3, 0, 0, 50, n)
        for block in (u, u[7]):
            for group, pos, idx in zip(scenario._groups, sampler.group_pos,
                                       sampler.outcomes(block)):
                np.testing.assert_array_equal(
                    idx, np.searchsorted(group.cdf_for(0.05), block[..., pos], side="left"))

    def test_table_bounded_on_the_largest_support(self):
        # SUPPORT_CAP points is the most a named family builds
        cdf = np.linspace(1.0 / SUPPORT_CAP, 1.0, SUPPORT_CAP)
        lookup = simulate._GuideTable(cdf)
        assert lookup.bins == 1 << 14
        assert lookup.table.nbytes + lookup.crowded.nbytes <= 144 * 1024
        u = _edge_uniforms(cdf[::9973])
        np.testing.assert_array_equal(lookup(u), np.searchsorted(cdf, u, side="left"))


class TestLrtThreshold:
    def test_right_sided_conservative(self):
        sc = geometric_scenario(0.5, "right")
        t, upper = _geometric_lrt_threshold(sc, 100, 0.05)
        assert upper and t == 225.0
        # conservative: exact tail at the threshold stays below alpha
        assert stats.nbinom.sf(int(t) - 101, 100, 0.5) <= 0.05
        assert stats.nbinom.sf(int(t) - 102, 100, 0.5) > 0.05

    def test_left_sided_conservative(self):
        sc = geometric_scenario(0.5, "left")
        t, upper = _geometric_lrt_threshold(sc, 100, 0.05)
        assert not upper
        assert stats.nbinom.cdf(int(t) - 100, 100, 0.5) <= 0.05
        assert stats.nbinom.cdf(int(t) + 1 - 100, 100, 0.5) > 0.05

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_same_thresholds_as_the_scipy_search(self, side):
        def scipy_search(n, p0, alpha):
            # the search made before the special-function kernels
            if side == "right":
                t = n + int(stats.nbinom.isf(alpha, n, p0))
                while stats.nbinom.sf(t - n - 1, n, p0) > alpha:
                    t += 1
                while t > n and stats.nbinom.sf(t - n - 2, n, p0) <= alpha:
                    t -= 1
                return float(t)
            t = n + int(stats.nbinom.ppf(alpha, n, p0))
            while t >= n and stats.nbinom.cdf(t - n, n, p0) > alpha:
                t -= 1
            return float(t)

        for p0 in (0.05, 0.2, 0.5, 0.8, 0.95):
            sc = geometric_scenario(p0, side)
            for n in (1, 2, 10, 50, 100, 1000):
                for alpha in (1e-4, 0.01, 0.05, 0.1, 0.3):
                    t, upper = _geometric_lrt_threshold(sc, n, alpha)
                    assert upper == (side == "right")
                    assert t == scipy_search(n, p0, alpha), (n, p0, alpha)

    def test_exact_tie_with_alpha(self):
        # by symmetry P(X > 99) = 1/2 exactly for the failures X before the
        # 100th success at p0 = 1/2; scipy.stats rounds it to 0.5000000000000004
        # and so moved the right-sided threshold one trial up
        t, _ = _geometric_lrt_threshold(geometric_scenario(0.5, "right"), 100, 0.5)
        assert t == 200.0

    def test_fisher_ordering_matches_lrt_exactly(self):
        # affine link between the Fisher sum and the trial total makes the
        # two rejection rules identical once thresholds align
        sc = geometric_scenario(0.5, "right")
        rep = power_experiment(sc, ["fisher", LRT_GEOMETRIC], [0.45, 0.5], 100,
                               0.05, 2000, seed=17)
        for p1 in (0.45, 0.5):
            assert rep.proportion("fisher", alt_param=p1) == \
                rep.proportion(LRT_GEOMETRIC, alt_param=p1)


class TestSizeCap:
    """A test count past SUPPORT_CAP is one line, refused before anything of
    its size is allocated (a replicate holds about 64 B per test)."""

    @pytest.mark.parametrize("call,message", [
        (lambda: type1_experiment(binomial_scenario(0.3), ["fisher"], [SUPPORT_CAP + 1],
                                  0.05, 1, 1),
         f"the number of tests n must be <= 10000000, got {SUPPORT_CAP + 1}"),
        (lambda: type1_experiment(binomial_scenario(0.3), ["fisher"], [10 ** 9], 0.05, 1, 1),
         "the number of tests n must be <= 10000000, got 1000000000"),
        (lambda: power_experiment(geometric_scenario(0.5, "right"), METHODS, [0.4],
                                  SUPPORT_CAP + 1, 0.05, 1, 1),
         f"the number of tests n must be <= 10000000, got {SUPPORT_CAP + 1}"),
        (lambda: sample_pvalues(binomial_scenario(0.3), np.random.default_rng(0),
                                SUPPORT_CAP + 1),
         f"n must be <= 10000000, got {SUPPORT_CAP + 1}"),
    ], ids=["type1", "type1-1e9", "power", "sample_pvalues"])
    def test_test_count_over_cap_refused_unallocated(self, call, message):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == message
        assert peak < 1 << 20

    def test_convolution_over_cap_gives_the_shared_wording(self):
        # 4,000 values squared is the first product past the cap
        adj = adjust("stouffer", custom_pvalue_distribution(np.arange(1, 4001) / 4000, "left"))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                exact_convolution(adj, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == ("the support would have 16000000 points, "
                                   "more than the cap of 10000000")
        assert peak < 1 << 20


class TestExactConvolution:
    def test_two_atom_bernoulli_sum(self):
        adj = adjust("edgington", TWO_ATOM)
        values, masses = exact_convolution(adj, 2)
        np.testing.assert_allclose(values, [0.5, 1.0, 1.5], atol=1e-14)
        np.testing.assert_allclose(masses, [0.25, 0.5, 0.25], atol=1e-14)

    def test_identity_at_n1(self):
        adj = adjust("stouffer", TWO_ATOM)
        values, masses = exact_convolution(adj, 1)
        np.testing.assert_array_equal(values, adj.z)
        np.testing.assert_array_equal(masses, adj.masses)

    def test_mean_preservation(self):
        d = custom_pvalue_distribution([0.2, 0.55, 1.0], "left")
        adj = adjust("fisher", d)
        for n in (3, 6):
            values, masses = exact_convolution(adj, n)
            assert masses.sum() == pytest.approx(1.0, abs=1e-12)
            assert float(values @ masses) == pytest.approx(2.0 * n, abs=1e-9)

    @pytest.mark.parametrize("n", [2.5, True, "3"])
    def test_non_integer_n_refused(self, n):
        adj = adjust("edgington", TWO_ATOM)
        with pytest.raises(ValueError, match=f"^{re.escape(f'n must be an integer, got {n!r}')}$"):
            exact_convolution(adj, n)

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_refused(self, n):
        with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
            exact_convolution(adjust("edgington", TWO_ATOM), n)

    def test_support_cap(self):
        atoms = np.append(np.linspace(1e-4, 0.9999, 600), 1.0)
        adj = adjust("stouffer", custom_pvalue_distribution(atoms, "left"))
        with pytest.raises(ValueError):
            exact_convolution(adj, 4)

    def test_mc_agrees_with_exact_tail(self):
        # rejection rate from the oracle vs Monte-Carlo at the surrogate cut
        adj = adjust("edgington", TWO_ATOM)
        n, alpha, reps = 8, 0.1, 4000
        values, masses = exact_convolution(adj, n)
        surr = surrogate("edgington", [adj.variance] * n)
        q = surr.quantile(alpha)
        exact = masses[values <= q].sum()
        rng = np.random.default_rng(123)
        draws = rng.random((reps, n)) >= 0.5  # True picks atom 2
        s = np.where(draws, adj.z[1], adj.z[0]).sum(axis=1)
        mc = np.mean(s <= q)
        se = np.sqrt(exact * (1 - exact) / reps)
        assert abs(mc - exact) <= 4 * se


def test_null_calibration_well_matched_methods():
    """At n=100 with 20000 replicates, methods whose variance ratio is at
    least 0.8 stay within 4 MC standard errors of nominal.  Methods below
    that ratio converge more slowly (the selection metrics exist precisely
    to flag them) and are excluded; the worst measured offenders are
    pearson on PR/right-geometric and fisher on left-binomial(0.1)."""
    from pcomb import variance_ratio

    scenarios = [synthetic_scenario("PL"), binomial_scenario(0.5),
                 geometric_noniid_scenario(side="right"), circular_scenario(11)]
    for sc in scenarios:
        dists = sc.null_dists()
        ratios = {m: variance_ratio(m, dists if len(dists) > 1 else dists[0])
                  for m in METHODS}
        for alpha in (0.05, 0.01):
            rep = type1_experiment(sc, METHODS, [100], alpha, 20000, seed=20250809)
            se = np.sqrt(alpha * (1 - alpha) / 20000)
            for m in METHODS:
                if ratios[m] < 0.8:
                    continue
                dev = abs(rep.proportion(m, n=100) - alpha)
                assert dev <= 4 * se, (sc.name, alpha, m, dev / se)


class TestGeneExample:
    def test_shape_and_spot_values(self):
        rep = gene_example()
        assert len(rep.rows) == 30
        assert rep.row("gene1", "right", "pearson").statistic == pytest.approx(0.84, abs=0.01)
        assert rep.row("gene1", "right", "pearson").global_p == pytest.approx(0.0001, abs=5e-4)
        assert rep.row("gene2", "two", "fisher").global_p == pytest.approx(0.3232, abs=5e-4)

    def test_missing_row_is_a_key_error(self):
        with pytest.raises(KeyError) as info:
            gene_example().row("gene3", "two", "fisher")
        assert info.value.args == (("gene3", "two", "fisher"),)

    def test_csv(self):
        rep = gene_example()
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "gene,side,method,statistic,p"
        assert len(lines) == 31


# ---------------------------------------------------------------------------
# the block replicate kernel against each configuration's PCG64DXSM stream
# ---------------------------------------------------------------------------

def _uniforms(seed, config_index, lo, hi, n):
    """(hi - lo, n) doubles: the draws of replicates lo..hi-1."""
    return simulate._replicate_stream(seed, config_index, lo, n).random((hi - lo, n))


def _config_bits(seed, config_index):
    return np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(config_index,)))


class TestStream:
    @pytest.mark.parametrize("seed", [0, 2 ** 64 + 5, 2 ** 128 - 1])
    @pytest.mark.parametrize("config_index", [0, 3, 2 ** 40])
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 100])
    def test_replicates_read_numpy_pcg64dxsm_in_order(self, seed, config_index, n):
        # replicate r takes doubles [r n, (r + 1) n) of the configuration's
        # stream; the range crosses a block boundary of the replicate kernel
        block = BLOCK_ELEMENTS // n
        stream = np.random.Generator(_config_bits(seed, config_index))
        whole = stream.random((block + 2) * n).reshape(block + 2, n)
        np.testing.assert_array_equal(_uniforms(seed, config_index, 0, 1, n)[0], whole[0])
        for rep in range(block - 2, block + 2):
            np.testing.assert_array_equal(
                simulate._replicate_stream(seed, config_index, rep, n).random(n), whole[rep])

    @pytest.mark.parametrize("n", [1, 3, 7, 10, 50, 100])
    def test_uneven_chunks_read_the_contiguous_stream(self, n):
        whole = _uniforms(5, 2, 0, 2000, n)
        chunks = [_uniforms(5, 2, lo, hi, n) for lo, hi in ((0, 13), (13, 999), (999, 2000))]
        np.testing.assert_array_equal(np.concatenate(chunks), whole)

    def test_far_start_advances_without_drawing(self):
        # the largest seed, config index 2**40 and replicates past 2**62: the
        # start is one advance, checked against the same distance in two
        seed, config_index, n, rep = 2 ** 128 - 1, 2 ** 40, 7, 2 ** 62 + 5
        tracemalloc.start()
        try:
            u = _uniforms(seed, config_index, rep, rep + 2, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        bits = _config_bits(seed, config_index)
        bits.advance(2 ** 62 * n)
        bits.advance(5 * n)
        np.testing.assert_array_equal(u.ravel(), np.random.Generator(bits).random(2 * n))
        np.testing.assert_array_equal(u[1], _uniforms(seed, config_index, rep + 1, rep + 2, n)[0])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_experiment_configurations_read_their_own_spawn_keys(self, workers):
        # configuration c of an experiment reads the stream of spawn key (c,)
        scenario, seed, reps, alpha = binomial_scenario(0.1), 9, 2 * BLOCK_ELEMENTS // 5, 0.05
        n_grid = [5, 7, 5]
        report = type1_experiment(scenario, METHODS, n_grid, alpha, reps, seed, workers)
        for ci, n in enumerate(n_grid):
            stream = np.random.Generator(_config_bits(seed, ci))
            prep = simulate._ConfigPrep(scenario, METHODS, n, scenario.null_param, alpha)
            scores = simulate._block_scores(prep, prep.outcomes(stream.random((reps, n))))
            expected = (scores >= prep.thresholds[:, None]).sum(axis=1)
            rows = report.rows[ci * len(METHODS):(ci + 1) * len(METHODS)]
            assert [r.rejections for r in rows] == expected.tolist()
        # the same n at configurations 0 and 2 reads different streams
        first, last = report.rows[:len(METHODS)], report.rows[2 * len(METHODS):]
        assert [r.rejections for r in first] != [r.rejections for r in last]


def _one_replicate_at_a_time(prep, reps, seed, config_index, workers):
    """Reference for ``simulate._run_config``: each replicate's n doubles from
    its own ``_replicate_stream``, outcomes by ``np.searchsorted`` on each
    group's cdf, and each method's score summed in Python, every group's
    tests left to right and the group sums in turn."""
    counts = np.zeros(len(prep.method_names), dtype=np.int64)
    for rep in range(reps):
        u = simulate._replicate_stream(seed, config_index, rep, prep.n).random(prep.n)
        outcomes = [np.searchsorted(lookup.cdf, u[pos])
                    for lookup, pos in zip(prep.group_lookup, prep.group_pos)]
        for mi, threshold in enumerate(prep.thresholds.tolist()):
            total = 0.0
            for table, idx in zip(prep.group_tables, outcomes):
                group_sum = 0.0
                for score in table[mi][idx].tolist():
                    group_sum += score
                total += group_sum
            counts[mi] += total >= threshold
    return counts


#: SHA-256 of ``to_csv()`` (and of the ``sample_pvalues`` draws).  The
#: experiment digests were recorded under the "pcg64dxsm-stream" generator
#: from ``_one_replicate_at_a_time`` in place of ``_run_config``; the block
#: kernel gave the same CSVs, and still does on short runs (below).  No block
#: size ``BLOCK_ELEMENTS // n`` of these runs divides 700, so each ends in a
#: partial block.
PINNED_REPS = 700
PINNED_SEEDS = (42, 2 ** 64 + 5)
PINNED_RUNS = {
    "synthetic-PC type1": lambda s, w, r=PINNED_REPS: type1_experiment(
        synthetic_scenario("PC"), METHODS, [7, 300], 0.05, r, s, w),
    "binomial type1": lambda s, w, r=PINNED_REPS: type1_experiment(
        binomial_scenario(0.1), METHODS, [40], 0.05, r, s, w),
    "binomial power": lambda s, w, r=PINNED_REPS: power_experiment(
        binomial_scenario(0.3, 5, "right"), METHODS, [0.3, 0.4], 40, 0.05, r, s, w),
    "geometric type1": lambda s, w, r=PINNED_REPS: type1_experiment(
        geometric_scenario(0.5, "right"), METHODS, [50], 0.05, r, s, w),
    "geometric power": lambda s, w, r=PINNED_REPS: power_experiment(
        geometric_scenario(0.5, "right"), [*METHODS, LRT_GEOMETRIC], [0.5, 0.4], 50,
        0.05, r, s, w),
    "geometric-left power": lambda s, w, r=PINNED_REPS: power_experiment(
        geometric_scenario(0.5, "left"), ["fisher", LRT_GEOMETRIC], [0.6], 30,
        0.01, r, s, w),
    "noniid type1": lambda s, w, r=PINNED_REPS: type1_experiment(
        geometric_noniid_scenario(side="right"), METHODS, [10, 301], 0.05, r, s, w),
    "noniid power": lambda s, w, r=PINNED_REPS: power_experiment(
        geometric_noniid_scenario(side="left"), METHODS, [0.0, 0.05], 100, 0.05, r, s, w),
    "circular type1": lambda s, w, r=PINNED_REPS: type1_experiment(
        circular_scenario(199), METHODS, [100], 0.05, r, s, w),
    "circular power": lambda s, w, r=PINNED_REPS: power_experiment(
        circular_scenario(199), METHODS, [0.0, 0.01], 100, 0.05, r, s, w),
}
PINNED_DRAWS = {
    "synthetic-PS": (synthetic_scenario("PS"), None),
    "binomial": (binomial_scenario(0.3, 5, "right"), 0.4),
    "geometric": (geometric_scenario(0.5, "left"), 0.6),
    "noniid": (geometric_noniid_scenario(side="two"), 0.05),
    "circular": (circular_scenario(199), 0.01),
}
PINNED_SHA256 = {
    "synthetic-PC type1 seed 42":
        "12edc75bbd567070b1ab3d1b0b39596e773dfd316535c1a79e6c48b1b4b633e8",
    "synthetic-PC type1 seed 18446744073709551621":
        "6c3f7e6d41c5b91601cea27c523f54102004f0fa98811a1c969c10ab9de9921a",
    "binomial type1 seed 42":
        "878b22d9f3fa8e4e705c0565b3f55c7b52f9ebb0f7f8a6747426b7d1e5634bd9",
    "binomial type1 seed 18446744073709551621":
        "a1a6cffd93aaa8f807991a71fd4e0202a0847e4ced983d30cc4e14fe8823bc60",
    "binomial power seed 42":
        "875ba2373dd2c6ee31a7e3f452c847af88b798a23bb6b63f744311de0f6a91bc",
    "binomial power seed 18446744073709551621":
        "4bd917bed0b2c51ad2291173607cb2e2f7d9148dfad4535964ab6d85e846c69e",
    "geometric type1 seed 42":
        "ab754731bac86bf6e1b72d0d41f41ff00069e636e95dae906d10e4dfd613ea5d",
    "geometric type1 seed 18446744073709551621":
        "65c01fb0fc30daf6c8f06cee01877850deab7f74e99e69399306637a4a4dce8f",
    "geometric power seed 42":
        "60d62f26134568cbe483af3ad0f229b7604305c61717d9f782bf1be33ca94838",
    "geometric power seed 18446744073709551621":
        "f1ebce1f7c81f35f1f63fd87eed59dcee613f3efe1c1f5527eddc5f15fc2dbc0",
    "geometric-left power seed 42":
        "c478c8b1d61183d150ac37036befb4ca88e9d7310d28779a686f20c18e832593",
    "geometric-left power seed 18446744073709551621":
        "ab2e4dc956b59761b5e4f57eaee766b2bcc84723ab2d26b29e0214e67577f821",
    "noniid type1 seed 42":
        "59a850e59a0a44d0c2eb8ac0a4576815ebf363be084213f568415f2eb5f57e9c",
    "noniid type1 seed 18446744073709551621":
        "97443b8fd8aad0fef1e85b4ce679ffb892b791b23b146f53eb399a3e2e6d6c75",
    "noniid power seed 42":
        "f9f91731df2362a07b91f693f5f25d23e0926edfb3ca288a5c2c2ccae607e9ca",
    "noniid power seed 18446744073709551621":
        "d07244239674ed4ccae3567be41c4b28c97f4676f255aca262d3f0f4c116aab1",
    "circular type1 seed 42":
        "7d6a42e79a8a6c9b1383d1a117e4df722e8b20a8ab088ab7da8473bd92778992",
    "circular type1 seed 18446744073709551621":
        "56dec597dfa9f1e93feef44079900cbcba7755edc186357e5c646de279e9e1c7",
    "circular power seed 42":
        "ed466ca277c3961229a36920ff1cb0db2ab33c2109a404bab8513f476d9ca246",
    "circular power seed 18446744073709551621":
        "1c205591a1319ab3480345b93a0014410c4d132510abf33495e739cb1fbce596",
    "draws synthetic-PS seed 3":
        "de0c73053954caa23a642ced349ff9a056b4fe7e03dc07de0846ee9ceeac2e58",
    "draws synthetic-PS seed 17":
        "f25bdeef9356da85dec89fca0d7c89e2aff27bd6313cfca1a5e1a7a88bc20625",
    "draws binomial seed 3":
        "2c21f1d20843a549b791b2b9136abcc8854d4933c95134e4455b401b99403072",
    "draws binomial seed 17":
        "9ccd3e8acc64e31ed69b44b6aa117e74882613103608b2768f7a6c53d0269424",
    "draws geometric seed 3":
        "3b4fd71eec4163acde31b336a28678d8fa9216b78de39045d0746a43b89b0ba3",
    "draws geometric seed 17":
        "e08aa9cf776d40a139b3db85012effd22969fd6bf6c88228764d68a8bf469cd8",
    "draws noniid seed 3":
        "4d7edb237711efd9ebac569772385ee9ed14d87b7da5a9f2aabf40ca056284b6",
    "draws noniid seed 17":
        "cbe8445cafb9b86fc012d01d50aef9308ecbf49d7b6511e72caceee1f9355349",
    "draws circular seed 3":
        "29bda67d3070c2fcb7174bac2b1a3d7c38e8080f0307570962ce38f53b846171",
    "draws circular seed 17":
        "43b0bf085672a09001f8d928767095a3b078588007e7d533c114b1030c96cbac",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedOutput:
    @pytest.mark.parametrize("name", list(PINNED_RUNS))
    def test_csv_bytes_at_every_worker_count(self, name):
        for seed in PINNED_SEEDS:
            expected = PINNED_SHA256[f"{name} seed {seed}"]
            for workers in (1, 2, 3):
                csv = PINNED_RUNS[name](seed, workers).to_csv()
                assert _sha256(csv) == expected, (seed, workers)

    @pytest.mark.parametrize("name", list(PINNED_RUNS))
    def test_block_kernel_gives_the_reference_csv(self, monkeypatch, name):
        # 40 replicates: one block by default; at 300 elements, blocks end
        # inside the run at every n >= 10, and n >= 300 takes one-replicate blocks
        for seed in PINNED_SEEDS:
            with monkeypatch.context() as patch:
                patch.setattr(simulate, "_run_config", _one_replicate_at_a_time)
                reference = PINNED_RUNS[name](seed, 1, 40).to_csv()
            assert PINNED_RUNS[name](seed, 2, 40).to_csv() == reference, seed
            with monkeypatch.context() as patch:
                patch.setattr(simulate, "BLOCK_ELEMENTS", 300)
                assert PINNED_RUNS[name](seed, 2, 40).to_csv() == reference, seed

    @pytest.mark.parametrize("name", list(PINNED_DRAWS))
    def test_sample_pvalues_draws(self, name):
        scenario, alt = PINNED_DRAWS[name]
        for seed in (3, 17):
            draws = sample_pvalues(scenario, np.random.default_rng(seed), 13, alt)
            assert _sha256(repr([p for p, _ in draws])) == \
                PINNED_SHA256[f"draws {name} seed {seed}"]

    @pytest.mark.parametrize("block_elements", [1, 64, 1000])
    def test_block_size_changes_no_byte(self, monkeypatch, block_elements):
        monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", block_elements)
        for name in ("noniid type1", "geometric power"):
            csv = PINNED_RUNS[name](PINNED_SEEDS[1], 2).to_csv()
            assert _sha256(csv) == PINNED_SHA256[f"{name} seed {PINNED_SEEDS[1]}"]


def _assert_block_matches_left_to_right_sums(prep, u):
    block = simulate._block_scores(prep, prep.outcomes(u))
    for r in range(len(u)):
        outcomes = prep.outcomes(u[r])
        for mi in range(len(prep.method_names)):
            total = 0.0
            for table, idx in zip(prep.group_tables, outcomes):
                group_sum = 0.0
                for score in table[mi][idx].tolist():
                    group_sum += score
                total += group_sum
            assert block[mi, r] == total, (prep.method_names[mi], r)


class TestSignedThresholds:
    """Every method rejects on ``scores >= thresholds``: a lower-tail
    method's block scores are its negated left-to-right sums and its
    threshold the negated quantile, so each rejection is the one-sided rule
    on the unsigned sum."""

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_lower_tail_methods_are_negated(self, side):
        scenario, n, alpha = geometric_scenario(0.3, side), 9, 0.05
        methods = [*METHODS, LRT_GEOMETRIC]
        prep = simulate._ConfigPrep(scenario, methods, n, 0.25, alpha)
        assert not hasattr(prep, "upper")
        u = _uniforms(11, 0, 0, 40, n)
        block = simulate._block_scores(prep, prep.outcomes(u))
        g = scenario._groups[0]
        for mi, method in enumerate(methods):
            if method == LRT_GEOMETRIC:
                row = g.dist.model.support.astype(float)
                t, upper = _geometric_lrt_threshold(scenario, n, alpha)
            else:
                adj = adjust(method, g.dist)
                row = adj.z[g.outcome_atoms]
                surr = surrogate(method, [adj.variance] * n)
                upper = surr.tail == "upper"
                t = surr.quantile(1.0 - alpha if upper else alpha)
            sign = 1.0 if upper else -1.0
            assert prep.thresholds[mi] == sign * t
            for r in range(len(u)):
                s = 0.0
                for score in row[prep.outcomes(u[r])[0]].tolist():
                    s += score
                assert block[mi, r] == sign * s
                assert (block[mi, r] >= prep.thresholds[mi]) == (s >= t if upper else s <= t)


class TestKernelScores:
    @pytest.mark.parametrize("scenario,alt,methods", [
        (synthetic_scenario("PS"), None, METHODS),
        (binomial_scenario(0.3, 5, "two"), 0.35, METHODS),
        (geometric_scenario(0.3, "right"), 0.25, [*METHODS, LRT_GEOMETRIC]),
        (geometric_noniid_scenario(side="two"), 0.03, METHODS),
        (circular_scenario(51), 0.02, METHODS),
    ])
    def test_bit_identical_to_left_to_right_sums(self, scenario, alt, methods):
        for subset in (methods, methods[:1], methods[-2:]):
            for n in (1, 2, 9, 100, 129):
                prep = simulate._ConfigPrep(scenario, subset, n, alt, 0.05)
                _assert_block_matches_left_to_right_sums(prep, _uniforms(11, 0, 0, 20, n))
                # a block of one replicate: reps == 1, n > BLOCK_ELEMENTS, or
                # the last block of a run
                for seed in range(5):
                    _assert_block_matches_left_to_right_sums(
                        prep, _uniforms(seed, 0, 0, 1, n))

    def test_full_block_with_crowded_bins(self):
        # non-i.i.d. geometric tails: strided groups whose guide tables send
        # some uniforms of the block to searchsorted
        n = 100
        u = _uniforms(11, 0, 0, BLOCK_ELEMENTS // n, n)
        for methods in (METHODS, METHODS[:1]):
            prep = simulate._ConfigPrep(geometric_noniid_scenario(side="two"), methods, n,
                                        0.03, 0.05)
            for lookup, pos in zip(prep.group_lookup, prep.group_pos):
                assert lookup.crowded.take((u[:, pos] * lookup.bins).astype(np.intp)).any()
            _assert_block_matches_left_to_right_sums(prep, u)

    @pytest.mark.parametrize("scenario,alt,methods,n", [
        (circular_scenario(199), 0.02, METHODS, 100),
        (geometric_scenario(0.3, "right"), 0.25, [*METHODS, LRT_GEOMETRIC], BLOCK_ELEMENTS + 1),
    ])
    def test_one_block_holds_one_gather_and_its_inputs(self, scenario, alt, methods, n):
        # a block's temporaries: the (methods, tests, replicates) gather, the
        # uniforms and the outcome indices; a one-replicate block (n past
        # BLOCK_ELEMENTS) keeps its running sums in the gather itself
        prep = simulate._ConfigPrep(scenario, methods, n, alt, 0.05)
        reps = max(1, BLOCK_ELEMENTS // n)
        simulate._run_config(prep, reps, 3, 0, 1)
        tracemalloc.start()
        try:
            simulate._run_config(prep, reps, 3, 0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (len(methods) + 2.5) * reps * n * 8


#: scenarios at an alternative, with every method each accepts
ALONE_OR_BESIDE = [
    (binomial_scenario(0.3, 50, "two"), 0.35, METHODS),
    (geometric_scenario(0.3, "right"), 0.25, [*METHODS, LRT_GEOMETRIC]),
    (geometric_noniid_scenario(side="two"), 0.03, METHODS),
    (circular_scenario(51), 0.02, METHODS),
]


class TestMethodSetIndependence:
    """A method's scores, and so its rejection counts, do not depend on
    which other methods run beside it, at any block size."""

    @pytest.mark.parametrize("block_elements", [1, 64, 1000, BLOCK_ELEMENTS])
    def test_each_method_alone_as_beside_the_others(self, monkeypatch, block_elements):
        monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", block_elements)
        reps = 60
        for scenario, alt, methods in ALONE_OR_BESIDE:
            for n in (1, 9, 100):
                # the blocks of a run, as _run_config draws them
                block = max(1, block_elements // n)
                stream = simulate._replicate_stream(3, 0, 0, n)
                uniforms = [stream.random((min(block, reps - b0), n))
                            for b0 in range(0, reps, block)]
                beside = simulate._ConfigPrep(scenario, methods, n, alt, 0.05)
                scores = [simulate._block_scores(beside, beside.outcomes(u)) for u in uniforms]
                for mi, method in enumerate(methods):
                    alone = simulate._ConfigPrep(scenario, [method], n, alt, 0.05)
                    for u, together in zip(uniforms, scores):
                        one = simulate._block_scores(alone, alone.outcomes(u))
                        assert one[0].tobytes() == together[mi].tobytes(), (scenario.name, n)
            csv = power_experiment(scenario, methods, [alt], 9, 0.05, reps, seed=3).to_csv()
            for method in methods:
                alone = power_experiment(scenario, [method], [alt], 9, 0.05, reps, seed=3)
                assert alone.to_csv().splitlines()[1:] == \
                    [line for line in csv.splitlines() if line.split(",")[1] == method]


class _RecordingExecutor:
    """Stands in for ThreadPoolExecutor: records max_workers and runs the
    tasks in the calling thread, so no thread is started."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


class TestWorkers:
    def test_threads_bounded_by_blocks(self, monkeypatch):
        monkeypatch.setattr(_RecordingExecutor, "max_workers", [])
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", _RecordingExecutor)
        sc = circular_scenario(199)
        one = power_experiment(sc, ["fisher"], [0.01], 100, 0.05, 2000, seed=5, workers=1)
        many = power_experiment(sc, ["fisher"], [0.01], 100, 0.05, 2000, seed=5,
                                workers=10 ** 4)
        assert many.to_csv() == one.to_csv()
        blocks = -(-2000 // (BLOCK_ELEMENTS // 100))
        # the calling thread runs one chunk; the pool at most one per other block
        assert _RecordingExecutor.max_workers == [blocks - 1]

    def test_chunks_start_on_block_boundaries(self, monkeypatch):
        draws = []
        stream = simulate._replicate_stream

        class Recording:
            def __init__(self, seed, config_index, replicate, n):
                self.stream = stream(seed, config_index, replicate, n)
                self.draws = [replicate]
                draws.append(self.draws)

            def random(self, size):
                self.draws.append(size)
                return self.stream.random(size)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", _RecordingExecutor)
        monkeypatch.setattr(simulate, "_replicate_stream", Recording)
        monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 30)
        monkeypatch.setattr(_RecordingExecutor, "max_workers", [])
        type1_experiment(synthetic_scenario("PC"), ["fisher"], [10], 0.05, 10, seed=1,
                         workers=3)
        # four blocks of at most 3 replicates, in chunks of two blocks: the
        # pool runs replicates 6-9, then the calling thread runs 0-5, each
        # from a stream that starts at its first replicate
        assert draws == [[6, (3, 10), (1, 10)], [0, (3, 10), (3, 10)]]
        assert _RecordingExecutor.max_workers == [1]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            type1_experiment(synthetic_scenario("PC"), ["fisher"], [5], 0.05, 10, seed=1,
                             workers=workers)
