import contextlib
import copy
import gc
import json
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from pcomb import (METHODS, DiscretePValueDist, StatisticModel, combine_observations,
                   custom_pvalue_distribution, make_statistic_model, pvalue_distribution)
from pcomb import _inputs, distributions
from pcomb.combine import _layout
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
        monkeypatch.setattr(_inputs, "SUPPORT_CAP", 11)
        at_cap = make_statistic_model("binomial", {"trials": 10, "prob": 0.3})
        np.testing.assert_array_equal(at_cap.pmf, below.pmf)
        with pytest.raises(ValueError, match="would have 12 points, more than the cap of 11"):
            make_statistic_model("binomial", {"trials": 11, "prob": 0.3})
        with pytest.raises(ValueError, match="more than the cap of 11"):
            make_statistic_model("poisson", {"rate": 3.0})
        monkeypatch.setattr(_inputs, "SUPPORT_CAP", poisson.support.size)
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
        ("binomial", {"trials": True, "prob": 0.5}, "trials must be an integer, got True"),
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

    @pytest.mark.parametrize("support,shown", [
        ([1.5, 2.0], "1.5"),
        ([1, 2.5], "2.5"),
        ([1e30, 2e30], "1e+30"),
        ([2 ** 63], "9223372036854775808"),
        ([-2 ** 63 - 1], "-9223372036854775809"),
        ([math.nan], "nan"),
        ([True, False], "True"),
    ])
    def test_custom_support_must_hold_integers(self, support, shown):
        # a cast would truncate 1.5 to 1 and wrap or overflow on 1e30
        pmf = [1.0 / len(support)] * len(support)
        message = f"^support entries must be 64-bit integers, got {re.escape(shown)}$"
        with pytest.raises(ValueError, match=message):
            make_statistic_model("custom", {"support": support, "pmf": pmf})
        with pytest.raises(ValueError, match=message):
            StatisticModel(family="custom", params={}, support=support, pmf=pmf)

    def test_integral_support_of_any_dtype_is_kept(self):
        for support in ([1.0, 2.0], np.array([1, 2], dtype=np.uint8), [-2 ** 63, 2 ** 63 - 1]):
            m = StatisticModel(family="custom", params={}, support=support, pmf=[0.5, 0.5])
            assert m.support.dtype == np.int64
            assert m.support.tolist() == [int(v) for v in support]

    @pytest.mark.parametrize("support,pmf,message", [
        ([0, 1], [1.0], "support and pmf must be 1-D arrays of equal, nonzero length"),
        ([], [], "support and pmf must be 1-D arrays of equal, nonzero length"),
        ([1, 1], [0.5, 0.5], "support must be strictly increasing"),
        ([0, 1], [1.0, 0.0], r"pmf masses must be positive \(zero-mass outcomes"),
    ])
    def test_direct_model_construction_errors(self, support, pmf, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            StatisticModel(family="custom", params={}, support=support, pmf=pmf)

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


def test_missing_private_binomial_kernels_named_at_first_use():
    # pcomb loads scipy.special at its first special-function call, not at import
    code = ("import scipy.special._ufuncs as u\n"
            "del u._binom_pmf\n"
            "import pcomb\n"
            "print('imported', flush=True)\n"
            "pcomb.make_statistic_model('binomial', {'trials': 5, 'prob': 0.5})\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.stdout == "imported\n"
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
        value, idx = pvalue_distribution(m, "left").atom_of(0)
        assert value == pytest.approx(1 / 32, rel=1e-12) and idx == 0
        value, idx = pvalue_distribution(m, "two").atom_of(5)
        assert value == pytest.approx(2 / 32, rel=1e-12) and idx == 0

        g = make_statistic_model("geometric", {"prob": 0.5})
        value, _ = pvalue_distribution(g, "right").atom_of(3)
        assert value == pytest.approx(0.25, rel=1e-12)

    def test_value_is_an_atom(self):
        m = make_statistic_model("poisson", {"rate": 4.0})
        for side in ("left", "right", "two"):
            d = pvalue_distribution(m, side)
            for x in (0, 3, int(m.support[-1])):
                value, idx = pvalue_distribution(m, side).atom_of(x)
                assert value == d.atoms[idx]

    def test_outside_support(self):
        m = make_statistic_model("binomial", {"trials": 5, "prob": 0.5})
        with pytest.raises(ValueError):
            pvalue_distribution(m, "left").atom_of(6)

    @pytest.mark.parametrize("family, params", [
        ("custom", {"support": [0, 2, 5, 9], "pmf": [0.1, 0.2, 0.3, 0.4]}),
        ("negative-binomial", {"successes": 3, "prob": 0.4}),          # support starts at r
        ("hypergeometric", {"population": 20, "successes": 15, "draws": 10}),   # lo = 5
        ("binomial", {"trials": 2000, "prob": 0.5}),   # underflowed tails dropped
    ])
    def test_atom_lookup_equals_a_searchsorted_reference(self, family, params):
        # the lookup reads an observation at its offset from support[0] and
        # searches only on a miss; both must give the index a search gives
        from pcomb import combine_observations
        m = make_statistic_model(family, params)
        support = m.support
        if family == "binomial":
            assert support[0] > 0 and support[-1] < 2000
        xs = range(int(support[0]) - 3, int(support[-1]) + 4)
        for side in SIDES:
            d = pvalue_distribution(m, side)
            inside = []
            for x in xs:
                i = int(np.searchsorted(support, x))
                if i < support.size and support[i] == x:
                    assert d.atom_of(x)[1] == d.outcome_map[i]
                    inside.append((x, int(d.outcome_map[i])))
                else:   # below, above or in a gap of the support
                    with pytest.raises(ValueError,
                                       match=f"^observation {x} is not in the model support$"):
                        d.atom_of(x)
                    with pytest.raises(ValueError,
                                       match=f"^observation {x} is not in the model support$"):
                        combine_observations("fisher", [x], [d])
            res = combine_observations("fisher", [x for x, _ in inside], [d] * len(inside))
            assert res.atom_indices == tuple(j for _, j in inside)

    @pytest.mark.parametrize("x", [True, False, np.True_])
    def test_bool_observation_refused(self, x):
        # searchsorted would take True as the outcome 1
        m = make_statistic_model("binomial", {"trials": 5, "prob": 0.5})
        with pytest.raises(ValueError, match=f"^an observation must be an integer, got {x!r}$"):
            pvalue_distribution(m, "left").atom_of(x)


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

    @pytest.mark.parametrize("atoms,side,message", [
        ([], "left", "atoms must be a nonempty 1-D sequence"),
        ([[0.5, 1.0]], "left", "atoms entries must be finite numbers, got [0.5, 1.0]"),
        ([0.5, 1.0], "up", "side must be one of ('left', 'right', 'two'), got 'up'"),
    ])
    def test_direct_construction_errors(self, atoms, side, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DiscretePValueDist(atoms=atoms, side=side)

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


#: named models across the families; 23 of the binomials, binomial(18, 0.1)
#: the first, have running sums that pass 1 before their last outcome
_CDF_SWEEP = [
    *[("binomial", {"trials": n, "prob": p}) for n in range(1, 60)
      for p in (0.1, 0.3, 0.5, 0.7, 0.9)],
    *[("poisson", {"rate": r}) for r in (0.1, 0.5, 1, 2.5, 3.5, 7, 10, 25, 50, 100, 400, 1635.4)],
    *[("geometric", {"prob": p}) for p in (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99)],
    *[("hypergeometric", {"population": N, "successes": K, "draws": m})
      for N, K, m in [*[(2000, 1000, d) for d in (1, 5, 10, 19, 20, 40, 100)],
                      (50, 20, 10), (100, 30, 60), (500, 499, 250), (30, 15, 15)]],
]


def test_model_cdf_never_decreases_nor_exceeds_one():
    for family, params in _CDF_SWEEP:
        model = make_statistic_model(family, params)
        F = model.cdf()
        label = f"{family} {params}"
        assert np.all(np.diff(F) >= 0.0) and F.max() <= 1.0 and F[-1] == 1.0, label
        # below the cap the cdf is the running sum itself
        raw = model.pmf.cumsum()
        np.testing.assert_array_equal(F[:-1], np.minimum(raw[:-1], 1.0), label)
    assert make_statistic_model("binomial", {"trials": 18, "prob": 0.1}).pmf.cumsum().max() > 1.0


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
        raw, raw_map = model.pmf.cumsum(), np.arange(m)
        raw[-1] = 1.0
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
    # prob 0.5 makes the binomial symmetric, so two-sided atoms group ties
    st.builds(lambda n, p: ("binomial", {"trials": n, "prob": p}),
              st.integers(1, 300), st.just(0.5) | st.floats(0.001, 0.999)),
    st.builds(lambda r: ("poisson", {"rate": r}), st.floats(0.01, 2000.0)),
    st.builds(lambda p: ("geometric", {"prob": p}), st.floats(0.001, 0.999)),
    st.builds(lambda r, p: ("negative-binomial", {"successes": r, "prob": p}),
              st.integers(1, 20), st.floats(0.05, 0.95)),
    st.builds(lambda N, k, m: ("hypergeometric",
                               {"population": N, "successes": min(k, N), "draws": min(m, N)}),
              st.integers(1, 3000), st.integers(0, 3000), st.integers(1, 200)),
    st.builds(lambda N, k, m, odds: ("noncentral-hypergeometric",
                                     {"population": N, "successes": min(k, N),
                                      "draws": min(m, N), "odds": odds}),
              st.integers(1, 3000), st.integers(0, 3000), st.integers(1, 200),
              st.floats(0.05, 20.0)),
)


@settings(max_examples=150, deadline=None)
@given(named=_NAMED)
def test_named_atoms_equal_the_unique_reference(named):
    _assert_matches_unique(make_statistic_model(*named))


def _same(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(named=_NAMED)
@example(named=("binomial", {"trials": 40, "prob": 0.5}))   # two-sided tie groups
@example(named=("poisson", {"rate": 1635.4}))   # right-sided atoms merged near 1
def test_built_models_and_distributions_pass_the_public_checks(named):
    # make_statistic_model and pvalue_distribution build their objects past
    # the validating constructors; fed back through them, every field is
    # accepted and comes out bit for bit the same
    model = make_statistic_model(*named)
    again = StatisticModel(model.family, model.params, model.support, model.pmf)
    assert _same(again.support, model.support) and _same(again.pmf, model.pmf)
    arrays = [model.support, model.pmf]
    for side in SIDES:
        d = pvalue_distribution(model, side)
        rebuilt = DiscretePValueDist(d.atoms, side, model, d.outcome_map)
        assert _same(rebuilt.atoms, d.atoms) and _same(rebuilt.outcome_map, d.outcome_map)
        arrays += [d.atoms, d.outcome_map]
    assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("params,message", [
    # support = failures + successes once wrapped past 2**63 - 1, and the
    # wrapped support was refused as "support must be strictly increasing"
    ({"successes": 2 ** 63 - 1000, "prob": 1 - 1e-16}, "support entries must be 64-bit integers"),
    # ks + successes once raised numpy's OverflowError
    ({"successes": 2 ** 64, "prob": 1 - 1e-16},
     "successes must be <= 9223372036854775807, got 18446744073709551616"),
])
def test_negative_binomial_support_stays_in_int64(params, message):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{message}"):
            make_statistic_model("negative-binomial", params)


def test_hypergeometric_support_past_int64_refused():
    # np.arange would give an object or float64 support, which the model
    # must not take unchecked
    N = 2 ** 70
    with pytest.raises(ValueError, match=f"^support entries must be 64-bit integers, got {N - 1}$"):
        make_statistic_model("hypergeometric", {"population": N, "successes": N - 1,
                                                "draws": N - 1})


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


# ---------------------------------------------------------------------------
# make_statistic_model's memo and the sides a model keeps
# ---------------------------------------------------------------------------

SNP = {"population": 2000, "successes": 1400, "draws": 7}


def _model_bits(model):
    return (model.family, dict(model.params), model.support.tobytes(), model.pmf.tobytes(),
            *(pvalue_distribution(model, side).atoms.tobytes() for side in SIDES),
            *(pvalue_distribution(model, side).outcome_map.tobytes() for side in SIDES))


def test_equal_validated_parameters_return_one_model():
    model = make_statistic_model("hypergeometric", SNP)
    for same in ({"population": 2000.0, "successes": np.int64(1400), "draws": 7},
                 {"draws": np.float64(7.0), "successes": 1400, "population": 2000}):
        assert make_statistic_model("hypergeometric", same) is model
    rate = make_statistic_model("poisson", {"rate": 5})
    assert make_statistic_model("poisson", {"rate": 5.0}) is rate
    # the noncentral law at odds 1 has the same masses but is another family
    central = make_statistic_model("noncentral-hypergeometric", {**SNP, "odds": 1})
    assert central is not model and central.pmf.tobytes() == model.pmf.tobytes()
    assert make_statistic_model("noncentral-hypergeometric", {**SNP, "odds": 1.0}) is central
    assert make_statistic_model("hypergeometric", {**SNP, "draws": 8}) is not model


def test_a_stored_model_has_the_bits_of_a_fresh_one():
    stored = [make_statistic_model("binomial", {"trials": 40, "prob": 0.5}),
              make_statistic_model("poisson", {"rate": 1635.4}),
              make_statistic_model("noncentral-hypergeometric", {**SNP, "odds": 2.5})]
    kept = [_model_bits(m) for m in stored]
    distributions._memo.clear()
    assert [_model_bits(make_statistic_model(m.family, m.params)) for m in stored] == kept


def test_a_side_is_built_once_per_model():
    model = make_statistic_model("hypergeometric", SNP)
    dists = {side: pvalue_distribution(model, side) for side in SIDES}
    assert len({id(d) for d in dists.values()}) == 3
    for side in SIDES:
        assert pvalue_distribution(model, side) is dists[side]
        assert pvalue_distribution(make_statistic_model("hypergeometric", SNP), side) is dists[side]
    # the memo entry keeps the sides, so a model the memo does not hold keeps none
    custom = make_statistic_model("custom", {"support": [0, 1], "pmf": [0.5, 0.5]})
    assert pvalue_distribution(custom, "left") is not pvalue_distribution(custom, "left")
    copied = copy.deepcopy(model)
    assert pvalue_distribution(copied, "two") is not pvalue_distribution(copied, "two")


@pytest.mark.parametrize("family,params", [
    ("binomial", {"trials": True, "prob": 0.5}),
    ("binomial", {"trials": 5, "prob": np.True_}),
    ("binomial", {"trials": 5, "prob": 0.5, "rate": 1.0}),
    ("binomial", {"trials": 5}),
    ("binomial", {"trials": 0, "prob": 0.5}),
    ("binomial", {"trials": 5.5, "prob": 0.5}),
    ("binomial", {"trials": 5, "prob": 1.0}),
    ("hypergeometric", {**SNP, "draws": 2001}),
    ("hypergeometric", {**SNP, "successes": -1}),
    ("hypergeometric", {**SNP, "odds": 1.0}),
    ("noncentral-hypergeometric", {**SNP, "odds": 0.0}),
    ("noncentral-hypergeometric", {**SNP, "odds": True}),
    ("poisson", {"rate": math.nan}),
    ("no-such-family", {"rate": 5.0}),
])
def test_refusals_are_unchanged_when_the_model_is_stored(family, params):
    with pytest.raises(ValueError) as cold:
        make_statistic_model(family, params)
    for valid in (("binomial", {"trials": 5, "prob": 0.5}), ("hypergeometric", SNP),
                  ("noncentral-hypergeometric", {**SNP, "odds": 1.0}), ("poisson", {"rate": 5.0})):
        make_statistic_model(*valid)
    stored = len(distributions._memo)
    with pytest.raises(ValueError) as warm:
        make_statistic_model(family, params)
    assert str(warm.value) == str(cold.value)
    assert len(distributions._memo) == stored


def test_a_lowered_cap_refuses_a_stored_model(monkeypatch):
    # binomial(1000, 0.01) drops its underflowed masses: the cap counts the
    # 1,001 points the build would allocate, stored or not
    params = {"trials": 1000, "prob": 0.01}
    monkeypatch.setattr(_inputs, "SUPPORT_CAP", 1000)
    with pytest.raises(ValueError) as cold:
        make_statistic_model("binomial", params)
    monkeypatch.setattr(_inputs, "SUPPORT_CAP", 10_000_000)
    model = make_statistic_model("binomial", params)
    assert model.support.size < 1001 and make_statistic_model("binomial", params) is model
    monkeypatch.setattr(_inputs, "SUPPORT_CAP", 1000)
    with pytest.raises(ValueError) as warm:
        make_statistic_model("binomial", params)
    assert str(warm.value) == str(cold.value) == (
        "the support would have 1001 points, more than the cap of 1000")
    monkeypatch.setattr(_inputs, "SUPPORT_CAP", 1001)
    assert make_statistic_model("binomial", params) is model


def test_a_large_support_is_built_but_not_stored():
    at_bound = make_statistic_model("binomial", {"trials": distributions._MEMO_POINTS - 1,
                                                 "prob": 0.5})
    assert at_bound.support.size == distributions._MEMO_POINTS
    assert make_statistic_model("binomial", at_bound.params) is at_bound
    params = {"trials": distributions._MEMO_POINTS, "prob": 0.5}
    over = make_statistic_model("binomial", params)
    again = make_statistic_model("binomial", params)
    assert again is not over and _model_bits(again) == _model_bits(over)
    assert len(distributions._memo) == 1
    # nor does it keep its sides, which would tie it to them in a cycle
    assert pvalue_distribution(over, "two") is not pvalue_distribution(over, "two")


def test_custom_models_are_never_stored():
    params = {"support": [0, 1, 2], "pmf": [0.25, 0.5, 0.25]}
    assert make_statistic_model("custom", params) is not make_statistic_model("custom", params)
    assert not distributions._memo


def _charged():
    """The charges of the memo's entries: 64 B a point and one allowance each."""
    return sum(64 * points + distributions._MEMO_ENTRY
               for _, points, _ in distributions._memo.values())


def _large(i):
    return {"trials": distributions._MEMO_POINTS - 1, "prob": 0.3 + i * 1e-4}


def _one_point(i):
    return {"population": 1 + i, "successes": 0, "draws": 1}


def test_the_memo_keeps_the_most_recent_models_up_to_its_bound():
    fits = distributions._MEMO_BYTES // (64 * distributions._MEMO_POINTS
                                         + distributions._MEMO_ENTRY)
    assert fits == 240
    first = make_statistic_model("binomial", _large(0))
    for i in range(1, fits):
        make_statistic_model("binomial", _large(i))
    assert len(distributions._memo) == fits
    assert make_statistic_model("binomial", _large(0)) is first   # now the newest
    second = distributions._memo[("binomial", tuple(_large(1).values()))][0]
    for i in range(fits, fits + 10):
        make_statistic_model("binomial", _large(i))
    assert len(distributions._memo) == fits
    assert make_statistic_model("binomial", _large(0)) is first
    assert make_statistic_model("binomial", _large(1)) is not second
    # the bound is in bytes: the 64 KiB one large model frees take 16 one-point models
    assert make_statistic_model("hypergeometric", _one_point(0)).support.size == 1
    for i in range(1, 17):
        make_statistic_model("hypergeometric", _one_point(i))
    assert len(distributions._memo) == fits - 1 + 17
    assert make_statistic_model("binomial", _large(0)) is first
    assert distributions._memo.charged == _charged() <= distributions._MEMO_BYTES
    distributions._memo.clear()
    assert distributions._memo.charged == 0


def _fill_variances(sides):
    """Each side's five variances, kept as combinations keep them: 30 sides
    a call, so a call's arrays stay small."""
    for i in range(0, len(sides), 30):
        chunk = sides[i:i + 30]
        xs = [d.model.support.item(0) for d in chunk]
        for method in METHODS:
            with contextlib.suppress(ValueError):   # a one-point side's variance is 0
                combine_observations(method, xs, chunk)
    assert all(len(d._variances) == len(METHODS) for d in sides)


def _held_by_a_full_memo(params):
    """Bytes that filling the memo past its budget with the models of
    ``params`` and their sides, each side with its five variances, leaves
    traced, and the arrays it holds."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for family, p in params:
            model = make_statistic_model(family, p)
            for side in SIDES:
                pvalue_distribution(model, side)
        del model
        _fill_variances([d for _, _, sides in distributions._memo.values()
                         for d in sides.values()])
        _layout.cache_clear()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    stored = list(distributions._memo.values())
    assert len(stored) < len(params) and distributions._memo.charged == _charged()
    # support and pmf, then each side's atoms and outcome map: 8 B a point each
    arrays = sum(m.support.nbytes + m.pmf.nbytes
                 + sum(d.atoms.nbytes + d.outcome_map.nbytes for d in sides.values())
                 for m, _, sides in stored)
    assert arrays <= 64 * sum(points for _, points, _ in stored)
    return held, arrays, len(stored)


def test_the_full_memo_holds_its_arrays_and_little_else():
    held, arrays, stored = _held_by_a_full_memo([("binomial", _large(i)) for i in range(260)])
    assert stored == 240
    # the objects around them take a few KB a model; under 17 MiB in all
    assert arrays < held < arrays + distributions._MEMO_ENTRY * stored < 17 << 20


def test_a_memo_full_of_the_smallest_models_holds_their_objects_within_budget():
    # one-point models: the objects, not the arrays, take nearly all the bytes
    fits = distributions._MEMO_BYTES // (64 + distributions._MEMO_ENTRY)
    held, arrays, stored = _held_by_a_full_memo(
        [("hypergeometric", _one_point(i)) for i in range(fits + 20)])
    assert stored == fits and arrays == 64 * stored
    assert arrays < held < arrays + distributions._MEMO_ENTRY * stored < 17 << 20


def test_dropped_models_and_their_sides_leave_no_cycles(monkeypatch):
    # the memo entry, not the model, keeps the sides: a model kept them once,
    # and each side points back at its model, a cycle only the collector freed
    monkeypatch.setattr(distributions, "_MEMO_BYTES", 100 * (64 * 41 + distributions._MEMO_ENTRY))
    gc.collect()
    gc.disable()
    try:
        for i in range(120):   # 20 evicted, then the rest cleared
            model = make_statistic_model("binomial", {"trials": 40, "prob": 0.3 + i * 1e-4})
            for side in SIDES:
                pvalue_distribution(model, side)
        del model
        assert len(distributions._memo) == 100
        distributions._memo.clear()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_params_of_a_named_model_are_read_only():
    model = make_statistic_model("binomial", {"trials": 5, "prob": 0.5})
    with pytest.raises(TypeError):
        model.params["trials"] = 6
    assert model.params == {"trials": 5, "prob": 0.5}
    assert make_statistic_model(model.family, model.params) is model   # a read-only view is a mapping
    assert model.to_json() == {"family": "binomial", "params": {"trials": 5, "prob": 0.5}}
    assert StatisticModel.from_json(json.loads(json.dumps(model.to_json()))) is model


def test_models_and_distributions_pickle_and_copy_with_their_bits():
    model = make_statistic_model("noncentral-hypergeometric", {**SNP, "odds": 2.5})
    for copied in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model), copy.copy(model)):
        assert copied is not model and copied.params == model.params
        assert _model_bits(copied) == _model_bits(model)
    dist = pvalue_distribution(model, "two")
    again = pickle.loads(pickle.dumps(dist))
    assert again.atoms.tobytes() == dist.atoms.tobytes() and again.side == "two"
    assert again.outcome_map.tobytes() == dist.outcome_map.tobytes()
    assert _model_bits(again.model) == _model_bits(model)


def test_threads_building_the_same_models_get_equal_ones(monkeypatch):
    # more threads than cores and more models than the memo holds, so
    # lookups, stores and evictions interleave
    named = [("hypergeometric", {**SNP, "draws": d}) for d in range(1, 40)]
    named += [("poisson", {"rate": 0.5 + r}) for r in range(256)]
    want = [_model_bits(make_statistic_model(*n)) for n in named]
    budget = _charged() // 2
    distributions._memo.clear()
    assert distributions._memo.charged == 0
    monkeypatch.setattr(distributions, "_MEMO_BYTES", budget)
    done, wrong = [], []

    def worker(t):
        try:
            for rep in range(2):
                for i in range(len(named))[::1 if (t + rep) % 2 else -1]:
                    if _model_bits(make_statistic_model(*named[i])) != want[i]:
                        wrong.append((t, i))
            done.append(t)
        except Exception as exc:   # a race that raises fails the test, not only the thread
            wrong.append((t, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not wrong and sorted(done) == [0, 1, 2, 3]
    # a model two threads stored is charged once
    assert 0 < len(distributions._memo) < len(named)
    assert distributions._memo.charged == _charged() <= budget
    for (family, values), (model, points, sides) in distributions._memo.items():
        assert model.family == family and tuple(model.params.values()) == values
        assert points == model.support.size
        assert all(s in SIDES and d.side == s and d.model is model for s, d in sides.items())
    distributions._memo.clear()
    assert distributions._memo.charged == 0 and not distributions._memo
