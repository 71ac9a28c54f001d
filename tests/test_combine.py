import math

import numpy as np
import pytest
from scipy import stats

from pcomb import (SurrogateDist, adjust, combine, combine_observations,
                   custom_pvalue_distribution, make_statistic_model,
                   pvalue_distribution, surrogate)
from pcomb._laws import GammaLaw

TWO_ATOM = custom_pvalue_distribution([0.5, 1.0], "left")

# geometric p0=0.5, right-sided: per-test variances behind the published
# n=1000 surrogate parameters
NU_F, NU_P = 3.8436241, 1.9853109
NU_S, NU_G, NU_E = 0.80546377, 2.5683806, 1.0 / 14.0


class TestSurrogate:
    def test_gamma_parameters_iid(self):
        s = surrogate("fisher", [NU_F] * 1000)
        assert s.law.family == "gamma" and s.tail == "upper"
        assert s.law.shape == pytest.approx(1040.6845, abs=1e-3)
        assert s.law.scale == pytest.approx(1.9218121, abs=1e-6)

        s = surrogate("pearson", [NU_P] * 1000)
        assert s.tail == "lower"
        assert s.law.shape == pytest.approx(2014.7977, abs=1e-3)
        assert s.law.scale == pytest.approx(0.9926555, abs=1e-6)

    def test_normal_parameters_iid(self):
        s = surrogate("stouffer", [NU_S] * 1000)
        assert s.law.family == "normal" and (s.law.mean, s.tail) == (0.0, "lower")
        assert s.law.sd == pytest.approx(28.3807, abs=1e-4)

        s = surrogate("edgington", [NU_E] * 1000)
        assert s.law.mean == 500.0
        assert s.law.sd == pytest.approx(8.451543, abs=1e-5)

        s = surrogate("george", [NU_G] * 1000)
        assert s.law.sd == pytest.approx(50.67919, abs=1e-4)

    def test_edgington_single_term(self):
        s = surrogate("edgington", [1.0 / 12.0])
        assert (s.law.mean, s.n) == (0.5, 1)
        assert s.law.sd == pytest.approx(0.2886751, abs=1e-6)

    def test_moment_matching_non_iid(self):
        rng = np.random.default_rng(3)
        nus = rng.uniform(0.01, 3.9, 17)
        for method, mean_y in [("fisher", 2.0), ("pearson", 2.0), ("stouffer", 0.0),
                               ("george", 0.0), ("edgington", 0.5)]:
            mean, var = surrogate(method, nus).moments
            assert mean == pytest.approx(17 * mean_y, abs=1e-12)
            assert var == pytest.approx(nus.sum(), rel=1e-12)

    def test_rejects_bad_variances(self):
        with pytest.raises(ValueError):
            surrogate("fisher", [])
        with pytest.raises(ValueError):
            surrogate("fisher", [1.0, 0.0])


class TestTailAndQuantile:
    def test_normal_lower_at_mean(self):
        s = surrogate("stouffer", [1.0])
        assert s.p_value(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_exponential_upper_tail(self):
        s = SurrogateDist(GammaLaw(1.0, 2.0), n=1, tail="upper")
        assert s.p_value(-2.0 * math.log(0.05)) == pytest.approx(0.05, abs=1e-12)

    def test_published_rejection_thresholds(self):
        edg = surrogate("edgington", [NU_E] * 1000)
        assert edg.p_value(486.1) == pytest.approx(0.05, abs=5e-4)
        assert edg.quantile(0.01) == pytest.approx(480.33, abs=0.01)

        # the 0.99 quantile printed as 2105.11 belongs to the full-precision
        # Gamma(4n/nu_P, nu_P/2) surrogate (displayed rounded as (2015, 0.99))
        pea = surrogate("pearson", [NU_P] * 1000)
        assert pea.quantile(0.99) == pytest.approx(2105.11, abs=0.01)

        fis = surrogate("fisher", [NU_F] * 1000)
        assert fis.quantile(0.95) == pytest.approx(2103.05, abs=0.01)
        assert fis.quantile(0.99) == pytest.approx(2147.05, abs=0.01)

        sto = surrogate("stouffer", [NU_S] * 1000)
        assert sto.quantile(0.05) == pytest.approx(-46.68, abs=0.01)
        assert sto.quantile(0.01) == pytest.approx(-66.02, abs=0.01)

    def test_quantile_cdf_round_trip(self):
        grid = [1e-6, 1e-3, 0.05, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-6]
        for s in (surrogate("fisher", [2.3, 1.1, 3.0]),
                  surrogate("edgington", [0.06, 0.08])):
            for p in grid:
                assert s.cdf(s.quantile(p)) == pytest.approx(p, abs=1e-9)

    def test_gamma_tails_below_support(self):
        s = surrogate("fisher", [2.0, 2.0])
        assert s.p_value(0.0) == 1.0   # upper tail of nonpositive sum
        assert s.cdf(-1.0) == 0.0

    def test_quantile_domain(self):
        s = surrogate("stouffer", [1.0])
        for p in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                s.quantile(p)


class TestCombine:
    def test_edgington_single_pvalue_one(self):
        res = combine("edgington", [1.0], [TWO_ATOM])
        assert res.statistic == pytest.approx(0.75, abs=1e-15)
        assert res.global_p == pytest.approx(stats.norm.cdf(1.0), abs=1e-12)
        assert res.atom_indices == (1,)

    def test_matches_observation_path(self):
        m = make_statistic_model("binomial", {"trials": 5, "prob": 0.5})
        dists = [pvalue_distribution(m, "left")] * 3
        pvals = [dists[0].atoms[i] for i in (0, 2, 5)]
        a = combine("fisher", pvals, dists)
        b = combine_observations("fisher", [0, 2, 5], dists)
        assert a.statistic == b.statistic and a.global_p == b.global_p

    def test_tail_coherence(self):
        dists = [TWO_ATOM] * 4
        low = combine("fisher", [0.5] * 4, dists)
        high = combine("fisher", [1.0] * 4, dists)
        assert low.statistic > high.statistic
        assert low.global_p < high.global_p  # antitone in S for Fisher

        low = combine("stouffer", [0.5] * 4, dists)
        high = combine("stouffer", [1.0] * 4, dists)
        assert low.global_p < high.global_p  # monotone in S for the others

    def test_errors(self):
        with pytest.raises(ValueError):
            combine("fisher", [0.5], [TWO_ATOM, TWO_ATOM])
        with pytest.raises(ValueError):
            combine("fisher", [0.7], [TWO_ATOM])  # matches no atom
        with pytest.raises(ValueError):
            combine("fisher", [1.0], [custom_pvalue_distribution([1.0], "left")])
        with pytest.raises(ValueError):
            combine("fisher", [], [])

    def test_json_shape(self):
        res = combine("pearson", [0.5, 1.0], [TWO_ATOM, TWO_ATOM])
        obj = res.to_json()
        assert set(obj) == {"method", "n", "S", "p", "surrogate"}
        assert obj["surrogate"]["family"] == "gamma"
        assert obj["n"] == 2


def test_surrogate_kolmogorov_distance_shrinks_with_n():
    # the exact n-fold sum gets uniformly closer to its surrogate
    from pcomb import exact_convolution

    for method in ("fisher", "stouffer", "edgington"):
        adj = adjust(method, TWO_ATOM)
        ks = {}
        for n in (2, 8):
            values, masses = exact_convolution(adj, n)
            surr = surrogate(method, [adj.variance] * n)
            cum = np.cumsum(masses)
            g = np.array([surr.cdf(x) for x in values])
            before = np.concatenate(([0.0], cum[:-1]))
            ks[n] = max(np.max(np.abs(cum - g)), np.max(np.abs(before - g)))
        assert ks[8] < ks[2]


def test_surrogate_variance_equals_adjusted_variance():
    # per-term surrogate matches the adjusted statistic's moments exactly
    adj = adjust("george", TWO_ATOM)
    s = surrogate("george", [adj.variance])
    mean, var = s.moments
    assert mean == pytest.approx(0.0, abs=1e-15)
    assert var == pytest.approx(adj.variance, rel=1e-14)
