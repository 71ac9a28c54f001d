import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pcomb import (DiscretePValueDist, StatisticModel, custom_pvalue_distribution,
                   make_statistic_model, observed_pvalue, pvalue_distribution)
from pcomb import distributions
from pcomb.distributions import SIDES


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
        kernel = distributions._binom_pmf
        monkeypatch.setattr(distributions, "_binom_pmf",
                            lambda k, n, p: (1.0 + 1e-6) * kernel(k, n, p))
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
        ("poisson", {"rate": 1e300}),
        ("negative-binomial", {"successes": 3, "prob": 1e-300}),
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

    @pytest.mark.parametrize("family,params,message", [
        ("poisson", {"rate": math.inf}, "rate must be a positive finite number, got inf"),
        ("poisson", {"rate": math.nan}, "rate must be a positive finite number, got nan"),
        ("noncentral-hypergeometric",
         {"population": 50, "successes": 20, "draws": 10, "odds": math.inf},
         "odds must be a positive finite number, got inf"),
        ("binomial", {"trials": math.inf, "prob": 0.5}, "trials must be an integer, got inf"),
        # float() would take a bool as 0 or 1 and build a one-trial model
        ("binomial", {"trials": True, "prob": 0.5}, "trials must be a finite number, got True"),
        ("poisson", {"rate": np.True_}, f"rate must be a finite number, got {np.True_!r}"),
    ])
    def test_non_finite_parameters_rejected(self, family, params, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                make_statistic_model(family, params)

    def test_custom_normalized(self):
        m = make_statistic_model("custom", {"support": [1, 5, 9],
                                            "pmf": [0.2, 0.3, 0.5 + 3e-10]})
        assert m.pmf.sum() == pytest.approx(1.0, abs=1e-15)

    def test_custom_model_does_not_alias_the_callers_support(self):
        support = np.array([1, 5, 9], dtype=np.int64)
        m = make_statistic_model("custom", {"support": support, "pmf": [0.2, 0.3, 0.5]})
        support[:] = [9, 5, 1]
        assert m.support.tolist() == [1, 5, 9]

    def test_sum_errors_print_plain_floats(self):
        with pytest.raises(ValueError, match=r"custom pmf must sum to 1 within 1e-09, got 0\.8$"):
            make_statistic_model("custom", {"support": [0, 1], "pmf": [0.4, 0.4]})
        with pytest.raises(ValueError, match=r"pmf must sum to 1 within 1e-12, got 1\.1$"):
            StatisticModel(family="custom", params={}, support=[0, 1], pmf=[0.5, 0.6])

    @pytest.mark.parametrize("pmf,shown", [([math.nan, math.nan], r"\[nan, nan\]"),
                                           ([math.inf, 0.5], r"\[inf, 0\.5\]")])
    def test_model_refuses_non_finite_masses(self, pmf, shown):
        with pytest.raises(ValueError, match=f"^pmf masses must be finite, got {shown}$"):
            StatisticModel(family="custom", params={}, support=[0, 1], pmf=pmf)

    @pytest.mark.parametrize("family,params", [
        ("nosuch", {}),
        ("binomial", {"trials": 0, "prob": 0.5}),
        ("binomial", {"trials": 5, "prob": 1.2}),
        ("geometric", {"prob": 0.0}),
        ("poisson", {"rate": -1.0}),
        ("hypergeometric", {"population": 10, "successes": 11, "draws": 5}),
        ("custom", {"support": [0, 1], "pmf": [0.4, 0.4]}),
        ("custom", {"support": [0, 1], "pmf": [0.5, -0.5]}),
        ("binomial", {"trials": None, "prob": 0.5}),
        ("poisson", {"rate": [1.0]}),
    ])
    def test_invalid_inputs(self, family, params):
        with pytest.raises(ValueError):
            make_statistic_model(family, params)


def test_missing_private_binomial_kernels_named_at_import():
    code = ("import scipy.special._ufuncs as u\n"
            "del u._binom_pmf\n"
            "import pcomb\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: pcomb needs scipy's private binomial kernels")
    assert "checked on scipy 1.17.1" in last
    assert f"installed scipy {scipy.__version__}" in last


# ---------------------------------------------------------------------------
# the special-function kernels against scipy.stats
# ---------------------------------------------------------------------------

def _scipy_model(family, params):
    """Support and pmf built from frozen scipy.stats laws, the way pcomb
    built them before its own kernels: unbounded laws cut where the tail
    walked from ``isf`` drops below TAIL_EPS, renormalised, zeros dropped."""
    if family == "binomial":
        support = np.arange(params["trials"] + 1)
        pmf = stats.binom(params["trials"], params["prob"]).pmf(support)
    elif family == "hypergeometric":
        N, K, m = params["population"], params["successes"], params["draws"]
        support = np.arange(max(0, m + K - N), min(m, K) + 1)
        pmf = stats.hypergeom(N, K, m).pmf(support)
    else:
        frozen, lo = {
            "poisson": lambda: (stats.poisson(params["rate"]), 0),
            "geometric": lambda: (stats.geom(params["prob"]), 1),
            "negative-binomial": lambda: (stats.nbinom(params["successes"], params["prob"]), 0),
        }[family]()
        hi = int(frozen.isf(distributions.TAIL_EPS))
        while frozen.sf(hi) >= distributions.TAIL_EPS:
            hi += 1
        while hi > lo and frozen.sf(hi - 1) < distributions.TAIL_EPS:
            hi -= 1
        support = np.arange(lo, hi + 1)
        pmf = frozen.pmf(support)
        pmf[-1] = frozen.sf(hi - 1)
        if family == "negative-binomial":
            support = support + params["successes"]
    pmf = pmf / pmf.sum()
    return support[pmf > 0], pmf[pmf > 0]


def _exact_fnch(N, K, m, odds):
    """Fisher's noncentral hypergeometric pmf in exact rationals."""
    lo, hi = max(0, m + K - N), min(m, K)
    w = [math.comb(K, k) * math.comb(N - K, m - k) * Fraction(odds) ** k
         for k in range(lo, hi + 1)]
    total = sum(w)
    pmf = np.array([float(x / total) for x in w])
    return np.arange(lo, hi + 1)[pmf > 0], pmf[pmf > 0]


def _assert_masses_close(got, ref, rtol=1e-12):
    assert np.array_equal(got > 0, ref > 0)
    big = ref >= 1e-280
    assert np.max(np.abs(got[big] - ref[big]) / ref[big]) <= rtol


BIT_IDENTICAL = (
    [("binomial", {"trials": n, "prob": p})
     for n in (1, 5, 60, 400, 3000) for p in (0.05, 0.3, 0.5, 0.95)]
    + [("poisson", {"rate": r}) for r in (1e-3, 0.5, 3.0, 40.0, 1635.4, 2000.0, 5000.0)]
    + [("geometric", {"prob": p}) for p in (1e-4, 0.01, 0.2, 0.5, 0.8, 0.99)])

# the benchmark's sizes: cohorts of 2000 (equal and unequal) and 1000 up to
# population 3000, 3-60 mutations and up to 300 draws
CLOSE = (
    [("hypergeometric", {"population": N, "successes": K, "draws": m})
     for N, K in ((2000, 1000), (1000, 500), (2000, 600), (2000, 1400), (2000, 300),
                  (3000, 1500), (3000, 100), (20, 7))
     for m in (1, 3, 8, 19, 33, 60, 188, 300) if m <= N]
    + [("negative-binomial", {"successes": r, "prob": p})
       for r in (1, 2, 3, 5, 40) for p in (0.05, 0.2, 0.5, 0.8)])


class TestKernelsAgainstScipy:
    @pytest.mark.parametrize("family,params", BIT_IDENTICAL)
    def test_bit_identical(self, family, params):
        m = make_statistic_model(family, params)
        support, pmf = _scipy_model(family, params)
        np.testing.assert_array_equal(m.support, support)
        np.testing.assert_array_equal(m.pmf, pmf)

    @pytest.mark.parametrize("family,params", CLOSE)
    def test_same_support_and_close_masses(self, family, params):
        m = make_statistic_model(family, params)
        support, pmf = _scipy_model(family, params)
        np.testing.assert_array_equal(m.support, support)
        _assert_masses_close(m.pmf, pmf)

    @pytest.mark.parametrize("N,K", [(2000, 1000), (3000, 1500), (2000, 300), (50, 20)])
    def test_noncentral_at_odds_one_is_the_hypergeometric(self, N, K):
        # scipy's own nchypergeom_fisher is only ~5e-12 accurate here, so
        # the reference is its central law
        for m in (4, 10, 20, 33, 300):
            if m > N:
                continue
            params = {"population": N, "successes": K, "draws": m}
            got = make_statistic_model("noncentral-hypergeometric", {**params, "odds": 1.0})
            support, pmf = _scipy_model("hypergeometric", params)
            np.testing.assert_array_equal(got.support, support)
            _assert_masses_close(got.pmf, pmf)

    @pytest.mark.parametrize("odds", [0.5, 2.0, 7.0, 0.125])
    def test_noncentral_against_exact_rationals(self, odds):
        for N, K, m in ((2000, 1000, 19), (2000, 500, 60), (3000, 1000, 300),
                        (1000, 500, 300), (50, 20, 10)):
            got = make_statistic_model("noncentral-hypergeometric",
                                       {"population": N, "successes": K, "draws": m,
                                        "odds": odds})
            support, pmf = _exact_fnch(N, K, m, odds)
            np.testing.assert_array_equal(got.support, support)
            _assert_masses_close(got.pmf, pmf)

    @pytest.mark.parametrize("family,params", BIT_IDENTICAL + [
        (f, p) for f, p in CLOSE if p.get("successes", 0) <= 5 or f == "hypergeometric"])
    def test_same_atoms(self, family, params):
        support, pmf = _scipy_model(family, params)
        ref = StatisticModel(family=family, params=params, support=support, pmf=pmf)
        model = make_statistic_model(family, params)
        for side in SIDES:
            want, got = pvalue_distribution(ref, side), pvalue_distribution(model, side)
            if family in ("hypergeometric", "negative-binomial") and side != "two":
                # cumulative sums within a few ulps of 1 merge or not by
                # their last bits, so only the atoms below that band agree
                got, want = (d.atoms[d.atoms < 1.0 - 1e-15] for d in (got, want))
                assert got.size == want.size
                _assert_masses_close(got, want)
                continue
            assert len(got) == len(want)
            np.testing.assert_array_equal(got.outcome_map, want.outcome_map)
            if family not in ("hypergeometric", "negative-binomial"):
                np.testing.assert_array_equal(got.atoms, want.atoms)


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
        [float("nan"), 1.0],    # NaN fails every comparison
        [0.2, float("nan"), 1.0],
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


# ---------------------------------------------------------------------------
# clipped atoms and merged runs against np.unique on the raw running sums
# ---------------------------------------------------------------------------

def _unique_reference(model, side):
    """Atoms and outcome map as ``np.unique`` builds them from each side's
    raw running sums: clip at 1, then one atom per distinct value."""
    m = model.pmf.size
    if side == "left":
        raw, raw_map = model.cdf(), np.arange(m)
    elif side == "right":
        upper = np.cumsum(model.pmf[::-1])[::-1]
        upper[0] = 1.0
        raw, raw_map = upper[::-1].copy(), (m - 1) - np.arange(m)
    else:
        raw, raw_map = distributions._two_sided_grouping(model.pmf)
    atoms, inverse = np.unique(np.minimum(raw, 1.0), return_inverse=True)
    return atoms, inverse[raw_map]


def _assert_matches_unique(model):
    for side in SIDES:
        d = pvalue_distribution(model, side)
        atoms, outcome_map = _unique_reference(model, side)
        np.testing.assert_array_equal(d.atoms, atoms)
        np.testing.assert_array_equal(d.outcome_map, outcome_map)
        assert d.outcome_map.dtype == outcome_map.dtype


_NAMED = st.one_of(
    st.builds(lambda n, p: ("binomial", {"trials": n, "prob": p}),
              st.integers(1, 300), st.floats(0.001, 0.999)),
    st.builds(lambda r: ("poisson", {"rate": r}), st.floats(0.01, 2000.0)),
    st.builds(lambda p: ("geometric", {"prob": p}), st.floats(0.001, 0.999)),
    st.builds(lambda r, p: ("negative-binomial", {"successes": r, "prob": p}),
              st.integers(1, 20), st.floats(0.05, 0.95)),
    st.builds(lambda N, k, m: ("hypergeometric",
                               {"population": N, "successes": min(k, N), "draws": min(m, N)}),
              st.integers(1, 3000), st.integers(0, 3000), st.integers(1, 200)),
)


@settings(max_examples=150, deadline=None)
@given(named=_NAMED)
def test_named_atoms_equal_the_unique_reference(named):
    _assert_matches_unique(make_statistic_model(*named))


@settings(max_examples=150, deadline=None)
@given(masses=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=40),
       tail=st.lists(st.floats(1e-18, 9e-17), max_size=4))
def test_custom_atoms_equal_the_unique_reference(masses, tail):
    # a trailing mass below 1e-16 leaves the running sum repeating or
    # overshooting 1.0, so runs merge at the top of the left side
    pmf = np.array(masses) / np.sum(masses)
    pmf = np.append(pmf, tail)
    model = make_statistic_model("custom", {"support": np.arange(pmf.size), "pmf": pmf})
    _assert_matches_unique(model)


@pytest.mark.parametrize("family,params", [
    ("custom", {"support": [0, 1, 2, 3], "pmf": [0.25, 0.75, 1e-17, 5e-17]}),
    ("poisson", {"rate": 1635.4}),
])
def test_atoms_merged_near_one_equal_the_unique_reference(family, params):
    model = make_statistic_model(family, params)
    # masses next to 1 leave the left (custom) or right (Poisson) running
    # sums at 1.0 for several outcomes, which share one atom
    assert any(len(pvalue_distribution(model, side)) < model.pmf.size for side in SIDES)
    _assert_matches_unique(model)
