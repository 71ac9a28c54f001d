import gc
import hashlib
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from pcomb import (METHODS, SurrogateDist, adjust, combine, combine_observations,
                   custom_pvalue_distribution, gene_example, make_statistic_model,
                   pvalue_distribution, surrogate)
from pcomb._laws import GammaLaw
from pcomb.combine import _layout, _match_atom
from pcomb.distributions import TIE_RTOL, DiscretePValueDist, _two_sided_grouping

TWO_ATOM = custom_pvalue_distribution([0.5, 1.0], "left")
BINOMIAL_LEFT = pvalue_distribution(make_statistic_model("binomial", {"trials": 5, "prob": 0.5}),
                                    "left")

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
            law = surrogate(method, nus).law
            mean, var = law.mean, law.variance
            assert mean == pytest.approx(17 * mean_y, abs=1e-12)
            assert var == pytest.approx(nus.sum(), rel=1e-12)

    def test_rejects_bad_variances(self):
        with pytest.raises(ValueError):
            surrogate("fisher", [])
        message = "every per-test variance must be positive and finite"
        for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
            for method in ("fisher", "stouffer"):
                with pytest.raises(ValueError, match=message):
                    surrogate(method, [1.0, bad])

    def test_zero_variance_names_both_causes(self):
        with pytest.raises(ValueError) as zero:
            surrogate("fisher", [1.0, 0.0])
        assert str(zero.value) == ("every per-test variance must be positive and finite, "
                                   "got 0.0 (a p-value distribution with one atom, or "
                                   "with all its mass on one atom, has zero variance)")
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError) as other:
                surrogate("fisher", [1.0, bad])
            assert str(other.value) == ("every per-test variance must be positive and "
                                        f"finite, got {bad!r}")

    def test_surrogate_is_its_law_and_tail(self):
        s = surrogate("fisher", [2.0, 3.0])
        for forwarder in ("moments", "cdf", "sf"):
            assert not hasattr(s, forwarder)
        assert s.p_value(4.0) == float(s.law.sf(4.0))
        lower = surrogate("stouffer", [1.0, 0.5])
        assert lower.p_value(-1.0) == float(lower.law.cdf(-1.0))


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
                assert s.law.cdf(s.quantile(p)) == pytest.approx(p, abs=1e-9)

    def test_gamma_tails_below_support(self):
        s = surrogate("fisher", [2.0, 2.0])
        assert s.p_value(0.0) == 1.0   # upper tail of nonpositive sum
        assert s.law.cdf(-1.0) == 0.0

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_pvalue_matches_no_atom(self, value):
        with pytest.raises(ValueError, match=f"^p-value {value!r} matches no atom"):
            combine("fisher", [value], [BINOMIAL_LEFT])

    @pytest.mark.parametrize("call,values,dists,message", [
        (combine_observations, [1, 2], [None], "got 2 observations for 1 distributions"),
        (combine_observations, [], [], "nothing to combine"),
        (combine_observations, [True], [BINOMIAL_LEFT],
         "observations entries must be 64-bit integers, got True"),
        (combine, [0.5], [], "got 1 p-values for 0 distributions"),
        (combine, [], [], "nothing to combine"),
    ])
    def test_malformed_inputs(self, call, values, dists, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call("fisher", values, dists)

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
            g = np.array([surr.law.cdf(x) for x in values])
            before = np.concatenate(([0.0], cum[:-1]))
            ks[n] = max(np.max(np.abs(cum - g)), np.max(np.abs(before - g)))
        assert ks[8] < ks[2]


def test_surrogate_variance_equals_adjusted_variance():
    # per-term surrogate matches the adjusted statistic's moments exactly
    adj = adjust("george", TWO_ATOM)
    s = surrogate("george", [adj.variance])
    mean, var = s.law.mean, s.law.variance
    assert mean == pytest.approx(0.0, abs=1e-15)
    assert var == pytest.approx(adj.variance, rel=1e-14)


# ---------------------------------------------------------------------------
# combine, all n tests at once, against the per-test path it replaced
# ---------------------------------------------------------------------------

COHORTS = ((1000, 1000), (500, 500), (600, 1400), (1400, 600), (300, 1700))


def _snp(rng):
    """(family, params, observation) of one SNP test, observed under its null."""
    cases, controls = COHORTS[int(rng.integers(len(COHORTS)))]
    u = rng.random()
    if u < 0.7:
        draws = int(rng.integers(3, 61))
        return ("hypergeometric",
                {"population": cases + controls, "successes": cases, "draws": draws},
                int(rng.hypergeometric(cases, controls, draws)))
    if u < 0.8:
        trials, prob = int(rng.integers(5, 61)), float(rng.uniform(0.05, 0.95))
        return "binomial", {"trials": trials, "prob": prob}, int(rng.binomial(trials, prob))
    if u < 0.9:
        rate = float(rng.uniform(0.5, 40.0))
        return "poisson", {"rate": rate}, int(rng.poisson(rate))
    r, prob = int(rng.integers(1, 6)), float(rng.uniform(0.2, 0.8))
    return ("negative-binomial", {"successes": r, "prob": prob},
            r + int(rng.negative_binomial(r, prob)))


def _genes(seed, count):
    rng = np.random.default_rng(seed)
    return [[_snp(rng) for _ in range(int(rng.integers(5, 41)))] for _ in range(count)]


def _per_test(method, indices, dists):
    """S, p and surrogate of the per-test path: one ``adjust`` per test."""
    adjusted = [adjust(method, d) for d in dists]
    statistic = float(sum(adj.z[i] for i, adj in zip(indices, adjusted)))
    surr = surrogate(method, [adj.variance for adj in adjusted])
    return statistic, surr.p_value(statistic), surr.to_json()


@pytest.mark.parametrize("seed", [11, 12])
def test_one_cell_pass_equals_the_per_test_path_bit_for_bit(seed):
    from test_laws import reference_adjust

    for gene in _genes(seed, 6):
        models = [make_statistic_model(f, p) for f, p, _ in gene]
        xs = [x for _, _, x in gene]
        for side in ("left", "right", "two"):
            dists = [pvalue_distribution(m, side) for m in models]
            indices = [d.atom_of(x)[1] for d, x in zip(dists, xs)]
            pvalues = [d.atoms[i] for d, i in zip(dists, indices)]
            want = {}
            for method in METHODS:
                # adjust must not share the batched segment sums: pin each
                # variance to the closed form summed with np.sum on its own
                for d in dists:
                    assert adjust(method, d).variance == reference_adjust(method, d.atoms)[2]
                want[method] = _per_test(method, indices, dists)
            # each path runs the five methods in a row, as a gene study
            # does: the first builds the gene side's layout, the rest reuse it
            for call, values in ((combine_observations, xs), (combine, pvalues)):
                for method in METHODS:
                    res = call(method, values, dists)
                    statistic, p, surr = want[method]
                    assert res.statistic == statistic and res.global_p == p
                    assert res.surrogate.to_json() == surr
                    assert res.atom_indices == tuple(indices)


# ---------------------------------------------------------------------------
# the one-entry layout memo of combine
# ---------------------------------------------------------------------------

def _bits(res):
    """Everything a combination returns, as bytes-exact values."""
    return (res.method, res.n, res.statistic.hex(), res.global_p.hex(), res.atom_indices,
            json.dumps(res.surrogate.to_json(), sort_keys=True))


def _fresh(call, method, values, dists):
    """``call`` on an empty memo, so it builds its layout itself."""
    _layout.cache_clear()
    return _bits(call(method, values, dists))


def _gene_sides(seed, count):
    """(observations, p-values, dists) of every side of ``count`` seeded genes."""
    out = []
    for gene in _genes(seed, count):
        models = [make_statistic_model(f, p) for f, p, _ in gene]
        xs = [x for _, _, x in gene]
        for side in ("left", "right", "two"):
            dists = [pvalue_distribution(m, side) for m in models]
            out.append((xs, [d.atom_of(x)[0] for d, x in zip(dists, xs)], dists))
    return out


def test_memo_hits_equal_fresh_calls_bit_for_bit():
    sides = _gene_sides(21, 4)
    calls = [(call, method, i) for i in range(len(sides)) for call in (combine_observations,
                                                                       combine)
             for method in METHODS]

    def args(call, i):
        xs, pvalues, dists = sides[i]
        return (xs if call is combine_observations else pvalues), dists

    want = {(call, method, i): _fresh(call, method, *args(call, i))
            for call, method, i in calls}
    _layout.cache_clear()
    # in a row (each gene side's first method misses, the next four hit),
    # then interleaved gene A, gene B, gene A, with gene_example between calls
    for call, method, i in calls:
        assert _bits(call(method, *args(call, i))) == want[call, method, i]
    hits = _layout.cache_info().hits
    assert hits == 4 * len(sides) * 2
    example = gene_example().to_csv()
    for call, method, i in calls:
        for j in (i, (i + 1) % len(sides), i):
            assert _bits(call(method, *args(call, j))) == want[call, method, j]
        if method == METHODS[-1]:
            assert gene_example().to_csv() == example


def test_memo_key_is_distribution_identity_values_and_lookup():
    model = make_statistic_model("binomial", {"trials": 5, "prob": 0.5})
    dists = [pvalue_distribution(model, "left"), pvalue_distribution(model, "right")]
    xs = [1, 4]
    want = _fresh(combine_observations, "fisher", xs, dists)
    # equal but distinct distributions miss
    twins = [pvalue_distribution(model, "left"), pvalue_distribution(model, "right")]
    misses = _layout.cache_info().misses
    assert _bits(combine_observations("fisher", xs, twins)) == want
    assert _layout.cache_info().misses == misses + 1
    # the same list changed between calls misses
    combine_observations("fisher", xs, dists)
    dists[1] = dists[0]
    assert _bits(combine_observations("fisher", xs, dists)) == _fresh(
        combine_observations, "fisher", xs, dists)
    # 1 == 1.0 and they hash alike: the observation 1 is atom 1, the p-value 1.0 atom 5
    d = dists[0]
    assert combine_observations("fisher", [1], [d]).atom_indices == (1,)
    assert combine("fisher", [1.0], [d]).atom_indices == (5,)
    assert _bits(combine("fisher", [1.0], [d])) == _fresh(combine, "fisher", [1.0], [d])


@pytest.mark.parametrize("call,values,dists,message", [
    (combine_observations, [99], [BINOMIAL_LEFT], "observation 99 is not in the model support"),
    (combine_observations, [1], [TWO_ATOM], "this distribution has no statistic model"),
    (combine, [0.123], [BINOMIAL_LEFT], "p-value 0.123 matches no atom"),
    (combine, [0.5, 0.5], [TWO_ATOM, None], r"dists\[1\] must be a p-value distribution"),
    (combine, [0.5], [TWO_ATOM], "unknown method"),
])
def test_a_refused_call_leaves_the_stored_entry(call, values, dists, message):
    kept = (combine_observations, "george", [2, 3], [BINOMIAL_LEFT, BINOMIAL_LEFT])
    want = _fresh(*kept)
    method = "no-such-method" if message == "unknown method" else "george"
    with pytest.raises(ValueError, match=message):
        call(method, values, dists)
    info = _layout.cache_info()
    assert info.currsize == 1
    assert _bits(kept[0](*kept[1:])) == want
    assert _layout.cache_info().hits == info.hits + 1


def test_memo_arrays_are_read_only():
    dists = [BINOMIAL_LEFT, TWO_ATOM]
    combine("stouffer", [0.5, 0.5], dists)
    hits = _layout.cache_info().hits
    _, picked, oriented, runs = _layout(tuple(dists), (0.5, 0.5), _match_atom)
    assert _layout.cache_info().hits == hits + 1
    for a in (picked, *runs, *oriented["p"], *oriented["1-p"]):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def _uniform_gene(tests, atoms):
    """``tests`` custom uniform models of ``atoms`` outcomes, left-sided, and
    observations whose atom indices stay among Python's cached small ints."""
    model = make_statistic_model("custom", {"support": list(range(atoms)),
                                            "pmf": [1.0 / atoms] * atoms})
    dists = [pvalue_distribution(model, "left") for _ in range(tests)]
    return [i % min(atoms, 200) for i in range(tests)], dists


def _held_and_accounted(xs, dists):
    """Bytes a call leaves held (tracemalloc), the bytes of its entry's arrays
    and of the key's and the indices' tuples, and its cells and tests."""
    _layout.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        combine_observations("pearson", xs, dists)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    indices, picked, oriented, runs = _layout(tuple(dists), tuple(xs),
                                              DiscretePValueDist._atom_index)
    arrays = sum(a.nbytes for a in (picked, *runs, *oriented["p"]))
    tuples = 3 * sys.getsizeof(indices)   # the indices, and the key's dists and values
    return np.array([held, arrays + tuples]), oriented["p"].p.size, len(dists)


def test_memo_holds_one_entry_of_the_size_of_its_arrays():
    # what stays held after a call is its entry: per cell five float64 cell
    # arrays and a mask byte; per test its picked cell, zero slot, mask byte
    # and three tuple slots (the observations' and indices' ints are cached)
    base, cells0, tests0 = _held_and_accounted(*_uniform_gene(20, 50))
    more, cells1, _ = _held_and_accounted(*_uniform_gene(20, 500))
    per_cell = (more - base) / (cells1 - cells0)
    wider, cells2, tests2 = _held_and_accounted(*_uniform_gene(200, 50))
    per_test = (wider - base - per_cell * (cells2 - cells0)) / (tests2 - tests0)
    assert per_cell[1] == 41.0 and per_test[1] == pytest.approx(41.0)
    assert per_cell[0] == pytest.approx(per_cell[1], rel=0.01)
    assert per_test[0] == pytest.approx(per_test[1], rel=0.05)
    assert 0 < base[0] - base[1] < 4096   # the objects around the arrays
    info = _layout.cache_info()
    assert info.maxsize == 1 and info.currsize == 1
    # the next call on other inputs frees the entry
    big = _uniform_gene(200, 500)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        combine_observations("pearson", *big)
        assert tracemalloc.get_traced_memory()[0] - before > 41 * 200 * 450
        combine("pearson", [1.0], [TWO_ATOM])
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - before < 4096
    finally:
        tracemalloc.stop()
    assert _layout.cache_info().currsize == 1


def test_two_threads_alternating_genes_get_the_single_threaded_results():
    sides = _gene_sides(23, 2)
    genes = [(xs, dists) for xs, _, dists in (sides[0], sides[3])]
    want = {(g, m): _fresh(combine_observations, m, *genes[g]) for g in (0, 1) for m in METHODS}
    wrong = []

    def worker(first):
        for i in range(200):
            g = (first + i) % 2
            method = METHODS[i % len(METHODS)]
            if _bits(combine_observations(method, *genes[g])) != want[g, method]:
                wrong.append((first, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(first,)) for first in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_single_atom_distribution_still_refused():
    single = custom_pvalue_distribution([1.0], "left")
    model = make_statistic_model("custom", {"support": [3], "pmf": [1.0]})
    message = "with one atom, or with all its mass on one atom, has zero variance"
    for method in METHODS:
        with pytest.raises(ValueError, match=message):
            combine(method, [0.5, 1.0, 1.0], [TWO_ATOM, single, TWO_ATOM])
        for side in ("left", "right", "two"):
            with pytest.raises(ValueError, match=message):
                combine_observations(method, [3], [pvalue_distribution(model, side)])


def _loop_grouping(pmf):
    """The two-sided grouping as a Python loop, each group anchored at its
    first element and summed with np.sum."""
    order = np.argsort(pmf, kind="stable")
    sorted_p = pmf[order]
    atoms = []
    outcome_map = np.empty(pmf.size, dtype=np.int64)
    total = 0.0
    i = 0
    while i < sorted_p.size:
        j = i
        while (j + 1 < sorted_p.size
               and sorted_p[j + 1] - sorted_p[i] <= TIE_RTOL * sorted_p[j + 1]):
            j += 1
        total += sorted_p[i:j + 1].sum()
        outcome_map[order[i:j + 1]] = len(atoms)
        atoms.append(total)
        i = j + 1
    atoms = np.asarray(atoms)
    atoms[-1] = 1.0
    return atoms, outcome_map


def test_two_sided_grouping_equals_the_loop_bit_for_bit():
    rng = np.random.default_rng(8)
    sizes = set()
    for _ in range(200):
        # masses repeated one to four times, some nudged into chains of
        # near ties p, p(1 + 0.6e-12), p(1 + 1.2e-12) that span over TIE_RTOL
        base = rng.uniform(0.01, 1.0, int(rng.integers(1, 12)))
        pmf = np.repeat(base, rng.integers(1, 5, base.size))
        pmf *= 1.0 + rng.choice([0.0, 0.6e-12, 1.2e-12, 3e-12], pmf.size)
        rng.shuffle(pmf)
        pmf /= pmf.sum()
        atoms, outcome_map = _two_sided_grouping(pmf)
        want_atoms, want_map = _loop_grouping(pmf)
        np.testing.assert_array_equal(atoms, want_atoms)
        np.testing.assert_array_equal(outcome_map, want_map)
        sizes.update(np.bincount(want_map).tolist())
    assert {1, 2, 3, 4} <= sizes

    # groups of 5 to 300 masses tied within 0.4 TIE_RTOL, past numpy's
    # pairwise blocks of 8 and 128, and pmfs that are one group
    sizes = set()
    for count in range(40):
        base = rng.uniform(0.01, 1.0, 1 if count % 8 == 0 else int(rng.integers(2, 6)))
        pmf = np.repeat(base, rng.integers(5, 301, base.size))
        pmf *= 1.0 + rng.uniform(0.0, 0.4 * TIE_RTOL, pmf.size)
        rng.shuffle(pmf)
        pmf /= pmf.sum()
        atoms, outcome_map = _two_sided_grouping(pmf)
        want_atoms, want_map = _loop_grouping(pmf)
        np.testing.assert_array_equal(atoms, want_atoms)
        np.testing.assert_array_equal(outcome_map, want_map)
        sizes.update(np.bincount(want_map).tolist())
    assert min(sizes) >= 5 and max(sizes) >= 256
    assert _two_sided_grouping(np.full(300, 1.0 / 300))[1].tolist() == [0] * 300

    # tie-free pmfs, which skip the group passes: every group is one outcome
    for _ in range(200):
        pmf = rng.uniform(0.01, 1.0, int(rng.integers(1, 60)))
        pmf /= pmf.sum()
        atoms, outcome_map = _two_sided_grouping(pmf)
        want_atoms, want_map = _loop_grouping(pmf)
        assert atoms.size == pmf.size
        np.testing.assert_array_equal(atoms, want_atoms)
        np.testing.assert_array_equal(outcome_map, want_map)

    p = 0.01
    chain = np.array([p, p * (1.0 + 0.6e-12), p * (1.0 + 1.2e-12), 0.3, 0.3, 0.3, 0.37])
    chain /= chain.sum()
    atoms, outcome_map = _two_sided_grouping(chain)
    assert outcome_map.tolist() == [0, 0, 1, 2, 2, 2, 3]
    np.testing.assert_array_equal(atoms, _loop_grouping(chain)[0])


#: ``_analyze_digest()`` recorded before the per-call numpy overhead of the
#: gene path was cut
ANALYZE_SHA256 = "3a8891d3f1c89fba7703421a89ca0d9ad9df1b56690231c77e07fc388a9a2bb4"


def _analyze_digest(seeds=(31, 32), count=8):
    """sha256 over the whole gene path at full precision: the atoms and
    outcome map of every distribution, every ``combine_observations`` JSON
    and atom indices on all sides and methods, and ``gene_example``."""
    h = hashlib.sha256()
    for seed in seeds:
        for gene in _genes(seed, count):
            models = [make_statistic_model(f, p) for f, p, _ in gene]
            xs = [x for _, _, x in gene]
            for side in ("left", "right", "two"):
                dists = [pvalue_distribution(m, side) for m in models]
                for d in dists:
                    h.update(d.atoms.tobytes())
                    h.update(d.outcome_map.tobytes())
                for method in METHODS:
                    res = combine_observations(method, xs, dists)
                    h.update(json.dumps(res.to_json(), sort_keys=True).encode())
                    h.update(repr(res.atom_indices).encode())
    h.update(json.dumps(gene_example().to_json(), sort_keys=True).encode())
    return h.hexdigest()


def test_gene_path_outputs_are_pinned_bit_for_bit():
    # any moved bit of any output changes the digest
    assert _analyze_digest() == ANALYZE_SHA256


#: ``_combine_digest()`` recorded before ``combine_observations`` and
#: ``atom_of`` came to share one observation lookup
COMBINE_SHA256 = "537868c28a7e842c6525c17506a0a2668cd518422b5118399ef487e1388ac0f9"


def _combine_digest(seeds=(31, 32), count=8):
    """sha256 over every ``combine`` JSON and atom indices of the gene sets
    of ``_analyze_digest``, each observed p-value given as its test's atom,
    on all sides and methods: the p-value matching path of ``_combined``."""
    h = hashlib.sha256()
    for seed in seeds:
        for gene in _genes(seed, count):
            models = [make_statistic_model(f, p) for f, p, _ in gene]
            for side in ("left", "right", "two"):
                dists = [pvalue_distribution(m, side) for m in models]
                pvalues = [d.atoms[d.atom_of(x)[1]] for d, (_, _, x) in zip(dists, gene)]
                for method in METHODS:
                    res = combine(method, pvalues, dists)
                    h.update(json.dumps(res.to_json(), sort_keys=True).encode())
                    h.update(repr(res.atom_indices).encode())
    return h.hexdigest()


def test_pvalue_matching_path_is_pinned_bit_for_bit():
    assert _combine_digest() == COMBINE_SHA256
