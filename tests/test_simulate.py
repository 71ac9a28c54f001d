import numpy as np
import pytest
from scipy import stats

from pcomb import (LRT_GEOMETRIC, METHODS, adjust, binomial_scenario,
                   circular_scenario, custom_pvalue_distribution,
                   exact_convolution, gene_example, geometric_noniid_scenario,
                   geometric_scenario, power_experiment, sample_pvalues,
                   scenario_from_json, surrogate, synthetic_scenario,
                   type1_experiment)
from pcomb.simulate import SYNTHETIC_ATOMS, _geometric_lrt_threshold

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
        for sc in (synthetic_scenario("PC"), binomial_scenario(0.1),
                   geometric_scenario(0.5, "right"),
                   geometric_noniid_scenario(side="left"), circular_scenario(11)):
            again = scenario_from_json(sc.to_json())
            assert again.name == sc.name

    def test_unknown_synthetic(self):
        with pytest.raises(ValueError):
            synthetic_scenario("PX")


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

    def test_synthetic_power_rejected(self):
        with pytest.raises(ValueError):
            power_experiment(synthetic_scenario("PL"), ["fisher"], [0.1], 10,
                             0.05, 100, seed=0)


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

    def test_fisher_ordering_matches_lrt_exactly(self):
        # affine link between the Fisher sum and the trial total makes the
        # two rejection rules identical once thresholds align
        sc = geometric_scenario(0.5, "right")
        rep = power_experiment(sc, ["fisher", LRT_GEOMETRIC], [0.45, 0.5], 100,
                               0.05, 2000, seed=17)
        for p1 in (0.45, 0.5):
            assert rep.proportion("fisher", alt_param=p1) == \
                rep.proportion(LRT_GEOMETRIC, alt_param=p1)


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

    def test_csv(self):
        rep = gene_example()
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "gene,side,method,statistic,p"
        assert len(lines) == 31
