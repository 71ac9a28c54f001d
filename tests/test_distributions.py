import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pcomb import (DiscretePValueDist, StatisticModel, custom_pvalue_distribution,
                   make_statistic_model, observed_pvalue, pvalue_distribution)
from pcomb import distributions


class TestMakeStatisticModel:
    def test_binomial_half(self):
        m = make_statistic_model("binomial", {"trials": 5, "prob": 0.5})
        assert m.support.tolist() == [0, 1, 2, 3, 4, 5]
        np.testing.assert_allclose(m.pmf, np.array([1, 5, 10, 10, 5, 1]) / 32, rtol=1e-14)

    def test_geometric_truncation(self):
        m = make_statistic_model("geometric", {"prob": 0.5})
        assert m.support[0] == 1 and m.support[-1] == 47
        # interior masses untouched, residual tail folded into the last atom
        np.testing.assert_allclose(m.pmf[:-1], 0.5 ** m.support[:-1], rtol=1e-14)
        assert m.pmf[-1] == pytest.approx(2.0 ** -46, rel=1e-14)
        assert m.pmf.sum() == pytest.approx(1.0, abs=1e-13)

    def test_hypergeometric_snp(self):
        m = make_statistic_model(
            "hypergeometric", {"population": 2000, "successes": 1000, "draws": 19})
        assert m.support.tolist() == list(range(20))
        np.testing.assert_allclose(m.pmf, stats.hypergeom(2000, 1000, 19).pmf(m.support),
                                   rtol=1e-12)
        # balanced case/control design is symmetric
        np.testing.assert_allclose(m.pmf, m.pmf[::-1], rtol=1e-9)

    def test_poisson_and_nbinom_truncate(self):
        m = make_statistic_model("poisson", {"rate": 3.0})
        assert m.support[0] == 0
        assert m.pmf.sum() == pytest.approx(1.0, abs=1e-13)
        assert stats.poisson(3.0).sf(m.support[-1]) < 1e-14

        nb = make_statistic_model("negative-binomial", {"successes": 3, "prob": 0.4})
        assert nb.support[0] == 3  # counts trials until the 3rd success
        assert nb.pmf.sum() == pytest.approx(1.0, abs=1e-13)

    def test_noncentral_hypergeometric(self):
        m = make_statistic_model(
            "noncentral-hypergeometric",
            {"population": 50, "successes": 20, "draws": 10, "odds": 2.0})
        ref = stats.nchypergeom_fisher(50, 20, 10, 2.0).pmf(m.support)
        np.testing.assert_allclose(m.pmf, ref, rtol=1e-10)

    @pytest.mark.parametrize("successes,odds", [(1000, 1.0), (500, 0.5), (500, 2.0)])
    def test_noncentral_hypergeometric_large_population(self, successes, odds):
        # scipy's pmf sums to 1 only within ~2e-12 here; the model renormalizes
        for draws in range(4, 40):
            params = {"population": 2000, "successes": successes, "draws": draws,
                      "odds": odds}
            m = make_statistic_model("noncentral-hypergeometric", params)
            assert m.pmf.sum() == pytest.approx(1.0, abs=1e-15)
            ref = stats.nchypergeom_fisher(2000, successes, draws, odds).pmf(m.support)
            np.testing.assert_allclose(m.pmf, ref, rtol=1e-10)

    @pytest.mark.parametrize("rate", [4000, 5000, 10000, 20000, 1e5])
    def test_poisson_large_rate(self, rate):
        m = make_statistic_model("poisson", {"rate": rate})
        assert m.pmf.sum() == pytest.approx(1.0, abs=1e-12)
        ref = stats.poisson(rate).pmf(m.support[:-1])
        np.testing.assert_allclose(m.pmf[:-1], ref, rtol=1e-10)

    def test_named_pmf_far_from_one_rejected(self, monkeypatch):
        # renormalization absorbs rounding only; a pmf off by 1e-6 is broken
        off = SimpleNamespace(pmf=lambda k: (1.0 + 1e-6) * stats.binom(5, 0.5).pmf(k))
        monkeypatch.setattr(distributions, "stats", SimpleNamespace(binom=lambda n, p: off))
        with pytest.raises(ValueError, match="binomial pmf must sum to 1"):
            make_statistic_model("binomial", {"trials": 5, "prob": 0.5})

    @pytest.mark.parametrize("family,params", [
        ("poisson", {"rate": 1e9}),
        ("binomial", {"trials": 10 ** 8, "prob": 0.5}),
        ("geometric", {"prob": 1e-12}),
        ("negative-binomial", {"successes": 3, "prob": 1e-9}),
        ("hypergeometric", {"population": 10 ** 9, "successes": 5 * 10 ** 8,
                            "draws": 10 ** 8}),
        ("noncentral-hypergeometric", {"population": 10 ** 9, "successes": 5 * 10 ** 8,
                                       "draws": 10 ** 8, "odds": 2.0}),
    ])
    def test_support_over_cap_refused_before_allocation(self, family, params):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="more than the cap of 10000000"):
                make_statistic_model(family, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_support_cap_boundary(self, monkeypatch):
        below = make_statistic_model("binomial", {"trials": 10, "prob": 0.3})
        poisson = make_statistic_model("poisson", {"rate": 3.0})
        monkeypatch.setattr(distributions, "SUPPORT_CAP", 11)
        at_cap = make_statistic_model("binomial", {"trials": 10, "prob": 0.3})
        np.testing.assert_array_equal(at_cap.pmf, below.pmf)
        with pytest.raises(ValueError, match="would have 12 points, more than the cap of 11"):
            make_statistic_model("binomial", {"trials": 11, "prob": 0.3})
        with pytest.raises(ValueError, match="more than the cap of 11"):
            make_statistic_model("poisson", {"rate": 3.0})
        monkeypatch.setattr(distributions, "SUPPORT_CAP", poisson.support.size)
        again = make_statistic_model("poisson", {"rate": 3.0})
        np.testing.assert_array_equal(again.pmf, poisson.pmf)

    def test_custom_normalized(self):
        m = make_statistic_model("custom", {"support": [1, 5, 9],
                                            "pmf": [0.2, 0.3, 0.5 + 3e-10]})
        assert m.pmf.sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("family,params", [
        ("nosuch", {}),
        ("binomial", {"trials": 0, "prob": 0.5}),
        ("binomial", {"trials": 5, "prob": 1.2}),
        ("geometric", {"prob": 0.0}),
        ("poisson", {"rate": -1.0}),
        ("hypergeometric", {"population": 10, "successes": 11, "draws": 5}),
        ("custom", {"support": [0, 1], "pmf": [0.4, 0.4]}),
        ("custom", {"support": [0, 1], "pmf": [0.5, -0.5]}),
    ])
    def test_invalid_inputs(self, family, params):
        with pytest.raises(ValueError):
            make_statistic_model(family, params)


class TestPValueDistribution:
    def test_binomial_left(self):
        m = make_statistic_model("binomial", {"trials": 5, "prob": 0.5})
        d = pvalue_distribution(m, "left")
        np.testing.assert_allclose(d.atoms * 32, [1, 6, 16, 26, 31, 32], rtol=1e-12)

    def test_binomial_two_sided_symmetric_ties(self):
        m = make_statistic_model("binomial", {"trials": 5, "prob": 0.5})
        d = pvalue_distribution(m, "two")
        np.testing.assert_allclose(d.atoms, [2 / 32, 12 / 32, 1.0], rtol=1e-12)

    def test_binomial_left_skewed(self):
        m = make_statistic_model("binomial", {"trials": 5, "prob": 0.1})
        d = pvalue_distribution(m, "left")
        np.testing.assert_allclose(
            d.atoms, [0.59049, 0.91854, 0.99144, 0.99954, 0.99999, 1.0], atol=5e-6)

    def test_right_atoms_are_upper_tail_probabilities(self):
        # the atom multiset must equal {P(X >= x) : x in support}
        for family, params in [("binomial", {"trials": 7, "prob": 0.3}),
                               ("poisson", {"rate": 2.5})]:
            m = make_statistic_model(family, params)
            d = pvalue_distribution(m, "right")
            upper = np.array([m.pmf[i:].sum() for i in range(m.pmf.size)])
            upper[0] = 1.0
            np.testing.assert_allclose(d.atoms, np.sort(upper), rtol=1e-12)

    def test_masses_regroup_the_pmf(self):
        m = make_statistic_model("binomial", {"trials": 6, "prob": 0.37})
        for side in ("left", "right"):
            d = pvalue_distribution(m, side)
            np.testing.assert_allclose(np.sort(d.masses), np.sort(m.pmf), atol=1e-14)
        two = pvalue_distribution(m, "two")
        assert two.masses.sum() == pytest.approx(1.0, abs=1e-12)
        # each atom's mass is its tie group's total pmf
        grouped = np.bincount(two.outcome_map, weights=m.pmf)
        np.testing.assert_allclose(grouped, two.masses, atol=1e-14)

    def test_two_sided_matches_direct_definition(self):
        # p-value of x = total mass of outcomes no more likely than x
        m = make_statistic_model("binomial", {"trials": 9, "prob": 0.23})
        d = pvalue_distribution(m, "two")
        for i, x in enumerate(m.support):
            direct = m.pmf[m.pmf <= m.pmf[i] * (1 + 1e-12)].sum()
            value, _ = d.atom_of(int(x))
            assert value == pytest.approx(direct, rel=1e-12)

    def test_two_sided_exact_ties_asymmetric(self):
        # engineered exact probability ties on a non-symmetric support:
        # outcomes 0 and 2 tie, so the smallest atom carries both masses
        m = make_statistic_model("custom", {"support": [0, 1, 2, 3],
                                            "pmf": [0.1, 0.2, 0.1, 0.6]})
        d = pvalue_distribution(m, "two")
        np.testing.assert_allclose(d.atoms, [0.2, 0.4, 1.0], atol=1e-15)
        assert d.atom_of(0) == d.atom_of(2) == (pytest.approx(0.2), 0)
        assert d.atom_of(1)[1] == 1
        assert d.atom_of(3)[1] == 2

    def test_left_right_duality(self):
        left = pvalue_distribution(
            make_statistic_model("binomial", {"trials": 7, "prob": 0.3}), "left")
        right = pvalue_distribution(
            make_statistic_model("binomial", {"trials": 7, "prob": 0.7}), "right")
        np.testing.assert_allclose(left.atoms, right.atoms, rtol=1e-12)

    def test_invalid_side(self):
        m = make_statistic_model("binomial", {"trials": 5, "prob": 0.5})
        with pytest.raises(ValueError):
            pvalue_distribution(m, "middle")


class TestObservedPValue:
    def test_examples(self):
        m = make_statistic_model("binomial", {"trials": 5, "prob": 0.5})
        value, idx = observed_pvalue(m, "left", 0)
        assert value == pytest.approx(1 / 32, rel=1e-12) and idx == 0
        value, idx = observed_pvalue(m, "two", 5)
        assert value == pytest.approx(2 / 32, rel=1e-12) and idx == 0

        g = make_statistic_model("geometric", {"prob": 0.5})
        value, _ = observed_pvalue(g, "right", 3)
        assert value == pytest.approx(0.25, rel=1e-12)

    def test_value_is_an_atom(self):
        m = make_statistic_model("poisson", {"rate": 4.0})
        for side in ("left", "right", "two"):
            d = pvalue_distribution(m, side)
            for x in (0, 3, int(m.support[-1])):
                value, idx = observed_pvalue(m, side, x)
                assert value == d.atoms[idx]

    def test_outside_support(self):
        m = make_statistic_model("binomial", {"trials": 5, "prob": 0.5})
        with pytest.raises(ValueError):
            observed_pvalue(m, "left", 6)


class TestCustomPValueDistribution:
    def test_synthetic_left_mass(self):
        atoms = np.arange(40, 101) / 100.0
        d = custom_pvalue_distribution(atoms, "left")
        assert d.masses[0] == pytest.approx(0.4, abs=1e-15)
        assert len(d) == 61

    def test_degenerate_single_atom(self):
        d = custom_pvalue_distribution([1.0], "left")
        assert d.atoms.tolist() == [1.0]

    @pytest.mark.parametrize("atoms", [
        [0.5, 0.5, 1.0],        # zero-mass atom
        [0.5, 0.9],             # last atom != 1
        [0.0, 0.5, 1.0],        # first atom must be positive
        [0.7, 0.4, 1.0],        # non-monotone
    ])
    def test_invalid_atoms(self, atoms):
        with pytest.raises(ValueError):
            custom_pvalue_distribution(atoms, "left")

    def test_no_model_attached(self):
        d = custom_pvalue_distribution([0.5, 1.0], "left")
        with pytest.raises(ValueError):
            d.atom_of(1)


@settings(max_examples=60, deadline=None)
@given(trials=st.integers(2, 12), prob=st.floats(0.05, 0.95),
       side=st.sampled_from(["left", "right", "two"]))
def test_any_side_total_mass_and_monotone(trials, prob, side):
    m = make_statistic_model("binomial", {"trials": trials, "prob": prob})
    d = pvalue_distribution(m, side)
    assert np.all(np.diff(d.atoms) > 0)
    assert d.atoms[-1] == 1.0
    assert d.masses.sum() == pytest.approx(1.0, abs=1e-12)
    # regrouping preserves total pmf mass cellwise
    grouped = np.bincount(d.outcome_map, weights=m.pmf, minlength=len(d))
    np.testing.assert_allclose(np.sort(grouped[grouped > 0]), np.sort(d.masses), atol=1e-12)


class TestJsonRoundTrip:
    def test_model(self):
        m = make_statistic_model("binomial", {"trials": 5, "prob": 0.5})
        m2 = StatisticModel.from_json(json.loads(json.dumps(m.to_json())))
        np.testing.assert_array_equal(m.support, m2.support)
        np.testing.assert_array_equal(m.pmf, m2.pmf)

        c = make_statistic_model("custom", {"support": [2, 4], "pmf": [0.25, 0.75]})
        c2 = StatisticModel.from_json(c.to_json())
        np.testing.assert_array_equal(c.pmf, c2.pmf)

    def test_dist(self):
        d = custom_pvalue_distribution([0.25, 0.5, 1.0], "two")
        d2 = DiscretePValueDist.from_json(json.loads(json.dumps(d.to_json())))
        assert d2.side == "two"
        np.testing.assert_array_equal(d.atoms, d2.atoms)
