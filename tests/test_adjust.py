import copy
import hashlib
import math
import pickle
import re
import struct
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import special, stats

from pcomb import (METHODS, DiscretePValueDist, StatisticModel, adjust, adjust_generic,
                   custom_pvalue_distribution, make_statistic_model, method_spec,
                   pvalue_distribution, synthetic_scenario, w2_discrete_continuous)
from pcomb._laws import Cells, GammaLaw, LogisticLaw, NormalLaw, QuantileLaw, _norm_pdf, _xlogx
from pcomb.adjust import ORIENT_ONE_MINUS_P, ORIENT_P, AdjustedStatistic
from pcomb.distributions import _run_sums

from conftest import make_random_dists

TWO_ATOM = custom_pvalue_distribution([0.5, 1.0], "left")

#: generic quantile functions reproducing each method's transform
GENERIC = {
    "fisher": (lambda w: -2.0 * np.log1p(-w), ORIENT_ONE_MINUS_P),
    "pearson": (lambda w: -2.0 * np.log1p(-w), ORIENT_P),
    "george": (lambda w: np.log(w) - np.log1p(-w), ORIENT_P),
    "stouffer": (stats.norm.ppf, ORIENT_P),
    "edgington": (lambda w: w, ORIENT_P),
}


def _law_moments(method):
    law = method_spec(method).law
    return law.mean, law.variance


class TestContinuousMoments:
    def test_values(self):
        assert _law_moments("fisher") == (2.0, 4.0)
        assert _law_moments("pearson") == (2.0, 4.0)
        assert _law_moments("stouffer") == (0.0, 1.0)
        assert _law_moments("edgington") == (0.5, 1.0 / 12.0)
        mean, var = _law_moments("george")
        assert mean == 0.0 and var == pytest.approx(math.pi ** 2 / 3.0, rel=1e-15)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            method_spec("tippett")


class TestClosedForms:
    def test_edgington_two_atoms(self):
        adj = adjust("edgington", TWO_ATOM)
        np.testing.assert_allclose(adj.z, [0.25, 0.75], atol=1e-15)
        assert adj.variance == pytest.approx(0.0625, abs=1e-15)

    def test_fisher_two_atoms(self):
        adj = adjust("fisher", TWO_ATOM)
        np.testing.assert_allclose(
            adj.z, [2.0 + 2.0 * math.log(2.0), 2.0 - 2.0 * math.log(2.0)], rtol=1e-14)

    def test_single_atom_forces_continuous_mean(self):
        one = custom_pvalue_distribution([1.0], "left")
        for method in METHODS:
            adj = adjust(method, one)
            assert adj.is_degenerate
            assert adj.variance == 0.0
            assert adj.z[0] == pytest.approx(method_spec(method).law.mean, abs=1e-12)

    def test_circular_n11_variances(self):
        atoms = (2.0 * np.arange(6) + 1.0) / 11.0
        d = custom_pvalue_distribution(atoms, "right")
        expected = {"fisher": 3.5387421, "pearson": 3.2261324, "george": 2.9380077,
                    "stouffer": 0.92762231, "edgington": 0.080766341}
        for method, nu in expected.items():
            assert adjust(method, d).variance == pytest.approx(nu, abs=1e-6)

    def test_synthetic_pl_fisher_variance(self):
        d = synthetic_scenario("PL").null_dists()[0]
        assert adjust("fisher", d).variance == pytest.approx(2.399950, abs=1e-6)

    def test_boundary_atoms_stay_finite(self):
        d = custom_pvalue_distribution([1e-9, 0.5, 1.0 - 1e-9, 1.0], "left")
        for method in METHODS:
            adj = adjust(method, d)
            assert np.all(np.isfinite(adj.z))
            assert np.isfinite(adj.variance) and adj.variance >= 0.0


class TestInvariants:
    def test_mean_preserved(self, random_dists):
        for d in random_dists[:80]:
            for method in METHODS:
                adj = adjust(method, d)
                assert adj.mean == pytest.approx(method_spec(method).law.mean, abs=1e-10)

    def test_monotone_z(self, random_dists):
        for d in random_dists[:80]:
            for method in METHODS:
                z = adjust(method, d).z
                diffs = np.diff(z)
                if method == "fisher":
                    assert np.all(diffs < 0)
                else:
                    assert np.all(diffs > 0)

    def test_george_is_half_difference(self, random_dists):
        for d in random_dists[:40]:
            zg = adjust("george", d).z
            zp = adjust("pearson", d).z
            zf = adjust("fisher", d).z
            np.testing.assert_array_equal(zg, (zp - zf) / 2.0)

    def test_george_entropy_variance_matches_moments(self, random_dists):
        # the entropy-increment formula must equal the direct second moment
        for d in random_dists[:60]:
            adj = adjust("george", d)
            direct = float(np.sum(adj.masses * adj.z ** 2) - adj.mean ** 2)
            assert adj.variance == pytest.approx(direct, abs=1e-9)

    def test_variance_below_continuous(self, random_dists):
        for d in random_dists[:80]:
            for method in METHODS:
                assert adjust(method, d).variance <= method_spec(method).law.variance


class TestAdjustGeneric:
    def test_identity_quantile_uniform_cells(self):
        adj = adjust_generic(lambda w: w, ORIENT_P, TWO_ATOM)
        np.testing.assert_allclose(adj.z, [0.25, 0.75], atol=1e-12)

    def test_normal_quantile_equals_stouffer(self):
        d = make_random_dists(1, seed=5, max_atoms=9)[0]
        gen = adjust_generic(stats.norm.ppf, ORIENT_P, d)
        ref = adjust("stouffer", d)
        np.testing.assert_allclose(gen.z, ref.z, atol=1e-9)
        assert gen.variance == pytest.approx(ref.variance, abs=1e-9)

    def test_chisquare_reflected_on_pr(self):
        d = synthetic_scenario("PR").null_dists()[0]
        gen = adjust_generic(lambda w: -2.0 * np.log1p(-w), ORIENT_ONE_MINUS_P, d)
        assert gen.variance == pytest.approx(3.922, abs=1e-3)
        ref = adjust("fisher", d)
        np.testing.assert_allclose(gen.z, ref.z, atol=1e-9)

    def test_agreement_with_closed_forms(self):
        for d in make_random_dists(12, seed=77, max_atoms=8):
            for method, (qfun, orient) in GENERIC.items():
                gen = adjust_generic(qfun, orient, d)
                ref = adjust(method, d)
                np.testing.assert_allclose(gen.z, ref.z, atol=1e-9)
                assert gen.variance == pytest.approx(ref.variance, abs=1e-9)

    def test_non_monotone_quantile_rejected(self):
        with pytest.raises(ValueError):
            adjust_generic(lambda w: -w, ORIENT_P,
                           custom_pvalue_distribution([0.3, 0.6, 1.0], "left"))

    def test_bad_orientation(self):
        with pytest.raises(ValueError):
            adjust_generic(lambda w: w, "sideways", TWO_ATOM)

    @pytest.mark.parametrize("atoms,orientation,cell", [
        # the reflected first cell rounds to zero width
        ([1e-17, 0.5, 1.0], ORIENT_ONE_MINUS_P, "(1.0, 1.0)"),
        # cells touching 1 with no double strictly inside
        ([1e-16, 0.5, 1.0], ORIENT_ONE_MINUS_P, "(0.9999999999999999, 1.0)"),
        ([0.5, 1.0 - 1e-16, 1.0], ORIENT_P, "(0.9999999999999999, 1.0)"),
    ])
    def test_too_narrow_cell_names_the_cell(self, atoms, orientation, cell):
        d = custom_pvalue_distribution(atoms, "left")
        with np.errstate(divide="ignore"), pytest.raises(ValueError) as info:
            adjust_generic(lambda w: -2.0 * np.log1p(-w), orientation, d)
        assert str(info.value) == (f"the cell {cell} is too narrow to integrate over: "
                                   f"no double lies strictly inside it")

    def test_non_finite_cell_mean_names_the_cell(self):
        d = custom_pvalue_distribution([0.3, 0.6, 1.0], "left")
        with pytest.raises(ValueError) as info:
            adjust_generic(lambda w: np.where(w < 0.6, w, np.inf), ORIENT_P, d)
        assert str(info.value) == "the quantile has no finite mean on cell (0.6, 1.0)"

    def test_tied_cell_means_name_both_cells(self):
        # the first two atoms are the subnormals 1e-323 and 3.5e-323; the
        # identity increases, but doubles cannot separate the cell means
        d = pvalue_distribution(make_statistic_model("poisson", {"rate": 2000}), "left")
        with pytest.raises(ValueError) as info:
            adjust_generic(lambda w: w, ORIENT_P, d)
        assert str(info.value) == (
            "the cell means of quantile_fn do not increase from cell (0.0, 1e-323) with mean "
            "0.0 to cell (1e-323, 3.5e-323) with mean 0.0: either quantile_fn does not "
            "increase there or the cells are too narrow for doubles to separate their means")

    def test_cell_with_no_double_inside_is_too_narrow(self):
        d = pvalue_distribution(make_statistic_model("poisson", {"rate": 2000}), "right")
        with pytest.raises(ValueError) as info:
            adjust_generic(lambda w: w, ORIENT_P, d)
        assert str(info.value) == ("the cell (0.9999999999999996, 0.9999999999999997) is too "
                                   "narrow to integrate over: no double lies strictly inside it")

    @pytest.mark.parametrize("shift", [0.0, 1e2, 1e4])
    def test_variance_does_not_move_with_a_shifted_quantile(self, shift):
        d = pvalue_distribution(make_statistic_model("binomial", {"trials": 20, "prob": 0.3}),
                                "two")
        gen = adjust_generic(lambda w: shift + w, ORIENT_P, d)
        assert gen.variance == pytest.approx(adjust("edgington", d).variance, rel=1e-10, abs=0)

    def test_quadrature_failure_prints_plain_floats(self):
        d = custom_pvalue_distribution([0.3, 0.6, 1.0], "left")
        with pytest.raises(RuntimeError, match=r"failed on cell \(0\.3, 0\.6\): "):
            adjust_generic(lambda w: 1.0 / (0.6 - w) ** 2, ORIENT_P, d)

    def test_quadrature_failure_is_one_line_naming_the_cell(self):
        d = custom_pvalue_distribution([0.3, 0.6, 1.0], "left")
        with pytest.raises(RuntimeError) as info:
            adjust_generic(lambda w: -1.0 / w, ORIENT_P, d)
        message = str(info.value)
        assert "\n" not in message
        assert message.startswith("quantile quadrature failed on cell (0.0, 0.3): ")

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        message = f"tol must be a positive finite number, got {tol!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            adjust_generic(lambda w: w, ORIENT_P, TWO_ATOM, tol=tol)

    def test_scalar_only_quantiles_are_mapped_over_the_nodes(self):
        # math.log raises TypeError on an array; the sum turns an array into
        # one number, the wrong shape; both are called one float at a time
        scalar_only = {
            "fisher": (lambda w: -2.0 * math.log1p(-w), ORIENT_ONE_MINUS_P),
            "george": (lambda w: math.log(w) - math.log1p(-w), ORIENT_P),
            "stouffer": (lambda w: np.sum(stats.norm.ppf(w)), ORIENT_P),
        }
        for d in make_random_dists(4, seed=31, max_atoms=6):
            for method, (qfun, orient) in scalar_only.items():
                gen = adjust_generic(qfun, orient, d)
                ref = adjust(method, d)
                np.testing.assert_allclose(gen.z, ref.z, rtol=0.0, atol=1e-9)
                assert gen.variance == pytest.approx(ref.variance, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(first=st.floats(-6.0, -1.0), top=st.floats(-6.0, -1.0),
       middle=st.lists(st.floats(0.0, 1.0), max_size=8))
def test_generic_matches_closed_forms_across_the_atom_range(first, top, middle):
    # atoms as close as 1e-6 to 0 and to 1, no cell narrower than 1e-6
    lo, hi = 10.0 ** first, 1.0 - 10.0 ** top
    atoms = np.unique([lo, hi, 1.0, *(lo + (hi - lo) * np.array(middle))])
    assume(np.min(np.diff(atoms, prepend=0.0)) >= 1e-6)
    d = custom_pvalue_distribution(atoms, "left")
    for method, (qfun, orient) in GENERIC.items():
        gen = adjust_generic(qfun, orient, d)
        ref = adjust(method, d)
        assert np.max(np.abs(gen.z - ref.z)) <= 1e-9
        assert abs(gen.variance - ref.variance) <= 1e-9
        cells = ref.cells
        np.testing.assert_allclose(
            QuantileLaw(qfun).cell_sq_moment(ref.z, cells),
            method_spec(method).law.cell_sq_moment(ref.z, cells),
            rtol=1e-9, atol=1e-12)


def test_inverse_normal_quantile_contract():
    # the normal kernel rides on ndtri, which must hold ~1e-12 absolute
    # error across the full double range; references at 20 digits
    from scipy.special import ndtri
    references = [
        (1e-300, -37.047096299361199237),
        (1e-100, -21.273453560965324295),
        (1e-16, -8.2220822161304356127),
        (0.3, -0.52440051270804078404),
        (0.975, 1.9599639845400542355),
    ]
    for p, q in references:
        assert abs(ndtri(p) - q) <= 1e-12
    for p, q in references[-2:]:  # upper-tail mirror where 1-p is exact
        assert abs(ndtri(1.0 - p) + q) <= 1e-12


def test_two_sided_distribution_roundtrip_through_adjust():
    # adjusted values indexed like the distribution's atoms
    m = make_statistic_model("binomial", {"trials": 5, "prob": 0.5})
    d = pvalue_distribution(m, "two")
    adj = adjust("edgington", d)
    assert adj.z.size == len(d)
    np.testing.assert_allclose(adj.z, (d.atoms + np.concatenate(([0.0], d.atoms[:-1]))) / 2.0,
                               rtol=1e-14)


# ---------------------------------------------------------------------------
# byte-identity pin of the quadrature path: z, variance and the W2 cells of
# ``adjust_generic`` with bare quantile callables, recorded before the
# quadrature schedule was reworked; every bit must stay the same
# ---------------------------------------------------------------------------

#: the bare quantiles of the five transforms, Pearson's being Fisher's in the
#: other orientation; each runs in both, and Stouffer's is scipy's ndtri
BARE_QUANTILES = {
    "fisher": lambda w: -2.0 * np.log1p(-w),
    "george": lambda w: np.log(w) - np.log1p(-w),
    "stouffer": special.ndtri,
    "edgington": lambda w: w,
}

QUADRATURE_PIN_SHA256 = {
    "edgington 1-p": "2f2e40d605adb8051a80e4f65d8e493f96dbd7b7bc97941deb61c03ce8abce1c",
    "edgington p": "23313bd83f053685b2b659b6eab6894db30c08ae5738fe7a2affb9a88a8d5513",
    "fisher 1-p": "421213b4dfd19dffe8b308a01ae686417e5776f042e355d6e49e7e99144be2e7",
    "fisher p": "2b052fb4ede4750d18374700672958014a1365bb4338b417fc7815d8f74585d4",
    "george 1-p": "f338582219e03636c18c294d0b1cf0ef179d5850a92cf735e9212994da84a07e",
    "george p": "5932a0ea5f6d3f549a4ada928cdc338c79afd7cb13bddb9543f1aed78a94a82a",
    "stouffer 1-p": "c8bf323f81de6bc8e31399d8ca62c554d412952814937801e0a3237c703c9373",
    "stouffer p": "47e6c8222018a8691c6079c3550802fa543b42fafe4ae7271e3151bb8b75ff12",
    "w2 edgington 1-p": "9d7c0d5f3e31c6a10f54ef5e07197f94b3688da930a70cc2e2b8f0911cd1bbe0",
    "w2 edgington p": "90f87f437ff60623ea0252b0c97b4c4b61a65e0ce9dbcae8dbd26b6e99acd298",
    "w2 fisher 1-p": "37dda2e7db6c5d6b15c538801a4db4102746f10c60338e594ddaf32de3c260dc",
    "w2 fisher p": "cace2489a901143504c67f8f650fd2dbd4a98b61be9bd65cfc6ac74327ddd104",
    "w2 george 1-p": "3819a87d45d7b172d8a0cf1058dc17c90898dcd98bb8d60e77aa3b0508c5fd90",
    "w2 george p": "d1a7e45e1d2cae322b4e6368cbcf9a8b44ceee93d0d95b6a678602e76445e7e5",
    "w2 stouffer 1-p": "e76df7e84f0fe1ff1ccb824f6f993edf9f1dfebedad78030cb78511e6e1f2424",
    "w2 stouffer p": "34610b4906226d8875b6670d566dedf631da1ec8848ea94ba317f426bf71ff63",
}


def _quadrature_digests(dists):
    out = {}
    for name, q in BARE_QUANTILES.items():
        for orient in (ORIENT_P, ORIENT_ONE_MINUS_P):
            adj_hash, w2_hash = hashlib.sha256(), hashlib.sha256()
            for d in dists:
                adj = adjust_generic(q, orient, d)
                adj_hash.update(adj.z.tobytes())
                adj_hash.update(struct.pack("<d", adj.variance))
                w2_hash.update(struct.pack("<d", w2_discrete_continuous(adj, q)))
            out[f"{name} {orient}"] = adj_hash.hexdigest()
            out[f"w2 {name} {orient}"] = w2_hash.hexdigest()
    return out


def test_quadrature_outputs_are_pinned_bit_for_bit():
    assert _quadrature_digests(make_random_dists(40, seed=20261019)) == QUADRATURE_PIN_SHA256


def test_generic_adjustment_calls_the_quantile_once_when_every_cell_finishes_at_step_1_32():
    calls = []

    def quantile(w):
        calls.append(w.shape)
        return special.ndtri(w)
    d = custom_pvalue_distribution([0.05, 0.2, 0.33, 0.5, 0.61, 0.8, 1.0], "left")
    for orient in (ORIENT_P, ORIENT_ONE_MINUS_P):
        calls.clear()
        adjust_generic(quantile, orient, d)
        assert calls == [(7, 290)]


def test_arrays_handed_out_are_read_only():
    # writing into a distribution's atoms once changed the adjusted
    # statistics already built from it, which share that array
    d = custom_pvalue_distribution([0.5, 1.0], "left")
    a = adjust("stouffer", d)
    with pytest.raises(ValueError, match="read-only"):
        d.atoms[0] = 0.9
    assert a.atoms.tolist() == [0.5, 1.0]

    model = make_statistic_model("binomial", {"trials": 6, "prob": 0.5})
    named = pvalue_distribution(model, "two")
    arrays = [model.support, model.pmf, named.atoms, named.outcome_map]
    for method in ("fisher", "stouffer"):   # both orientations of the cells
        adjusted = adjust(method, named)
        arrays += [adjusted.z, adjusted.atoms, *adjusted.cells[:5]]
    adjusted = adjust_generic(*GENERIC["pearson"], named)
    arrays += [adjusted.z, *adjusted.cells[:5]]   # the arrays, not is_reflected
    for array in arrays:
        assert not array.flags.writeable


def test_arrays_the_caller_passed_stay_writable():
    support, pmf = np.array([0, 1, 2]), np.array([0.25, 0.5, 0.25])
    atoms, outcome_map = np.array([0.25, 1.0]), np.array([0, 1, 0])
    model = make_statistic_model("custom", {"support": support, "pmf": pmf})
    direct = StatisticModel("custom", {}, support, pmf)
    dist = custom_pvalue_distribution(atoms, "two")
    mapped = DiscretePValueDist(atoms, "two", direct, outcome_map)
    for array in (support, pmf, atoms, outcome_map):
        assert array.flags.writeable
    for array in (model.support, model.pmf, direct.support, direct.pmf, dist.atoms,
                  mapped.atoms, mapped.outcome_map):
        assert not array.flags.writeable
    support[0], pmf[0], atoms[0], outcome_map[0] = 9, 0.0, 0.5, 1
    assert model.support[0] == direct.support[0] == 0 and direct.pmf[0] == 0.25
    assert dist.atoms[0] == mapped.atoms[0] == 0.25 and mapped.outcome_map[0] == 0


COPIES = {"pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
          "deepcopy": copy.deepcopy, "copy": copy.copy}


def _flat(obj):
    """Every value a record holds, the records it holds opened in turn."""
    if isinstance(obj, Cells):
        return [v for f in obj for v in _flat(f)]
    if isinstance(obj, (StatisticModel, DiscretePValueDist, AdjustedStatistic)):
        return [type(obj), *(v for f in fields(obj) for v in _flat(getattr(obj, f.name)))]
    return [obj]


@pytest.mark.parametrize("how", COPIES)
def test_copies_and_pickles_keep_every_bit_and_read_only_arrays(how):
    # a writable array in a copy would let the layout memo, keyed by the
    # distributions' identity, hand back a result of the old values
    model = make_statistic_model("binomial", {"trials": 6, "prob": 0.5})
    named = pvalue_distribution(model, "two")
    records = [model, named, custom_pvalue_distribution([0.25, 1.0], "left"),
               StatisticModel("custom", {}, [0, 1], [0.5, 0.5]),
               adjust("fisher", named), adjust("stouffer", named),
               adjust_generic(*GENERIC["pearson"], named)]
    records += [r.cells for r in records[-3:]]
    for record in records:
        flat, again = _flat(record), _flat(COPIES[how](record))
        assert len(again) == len(flat) and any(isinstance(v, np.ndarray) for v in flat)
        for want, got in zip(flat, again):
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert not got.flags.writeable
            else:   # a read-only params view equals the dict a copy holds
                assert got == want


def test_a_cells_field_cannot_be_assigned():
    cells = adjust("fisher", pvalue_distribution(
        make_statistic_model("binomial", {"trials": 6, "prob": 0.5}), "two")).cells
    for name in Cells._fields:
        with pytest.raises(AttributeError):
            setattr(cells, name, np.zeros(3))
    for array in cells[:5]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5


# ---------------------------------------------------------------------------
# combine's variances: one zero-led reduceat for every test, one law call per edge
# ---------------------------------------------------------------------------

#: values mixed into the shares: +0.0, subnormals, near 1e-300 and 1e300, +inf
_SPECIAL_SHARES = {
    "zero": lambda rng, k: np.zeros(k),
    "subnormal": lambda rng, k: rng.random(k) * 2.2e-308,
    "tiny": lambda rng, k: rng.random(k) * 1e-300,
    "huge": lambda rng, k: rng.random(k) * 1e300,
    "inf": lambda rng, k: np.full(k, math.inf),
}


@settings(max_examples=300, deadline=None)
@given(sizes=st.lists(st.integers(1, 16) | st.integers(120, 136) | st.integers(248, 264)
                      | st.integers(1, 3000), min_size=1, max_size=60),
       special=st.sampled_from(sorted(_SPECIAL_SHARES)), share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(sizes=[127, 128], special="zero", share=0.5, seed=1)
@example(sizes=[7, 8, 1, 127, 2, 300], special="subnormal", share=0.3, seed=2)
@example(sizes=[255, 256, 257, 1, 3000, 2047], special="huge", share=0.2, seed=3)
def test_run_sums_equal_each_runs_own_reduce_bit_for_bit(sizes, special, share, seed):
    # This pins the installed numpy's pairwise order of np.add.reduce and
    # np.add.reduceat, which the output pins already assume: every variance
    # of a combination must be the bits its shares sum to alone, with runs
    # from 1 to 3,000 long, past numpy's recursion at 128 and 256, and shares
    # from +0.0 and subnormals to +inf.
    rng = np.random.default_rng(seed)
    sizes = np.array(sizes)
    shares = rng.random(sizes.sum()) * 10.0 ** rng.integers(-20, 20, sizes.sum())
    mixed = rng.random(shares.size) < share
    shares[mixed] = _SPECIAL_SHARES[special](rng, int(mixed.sum()))
    starts = sizes.cumsum() - sizes
    alone = [np.add.reduce(shares[a:a + n]) for a, n in zip(starts, sizes)]
    assert _run_sums(shares, starts).tobytes() == np.array(alone).tobytes()


@pytest.mark.parametrize("scale", [1, 10])
def test_run_sums_peak_memory_is_proportional_to_the_values(scale):
    # many 2-value runs beside one of 127: the zero-led copy and its mask take
    # 9 bytes per value and per run, the shifted starts and the sums 16 bytes
    # per run, about 21.5 bytes per value here, whatever the longest run
    sizes = np.array([2] * (4000 * scale) + [127])
    starts = sizes.cumsum() - sizes
    shares = np.random.default_rng(3).random(sizes.sum())
    tracemalloc.start()
    try:
        _run_sums(shares, starts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 22 * shares.size


def _two_ended(law, cells):
    """The cell means and shares of Var(Z) with the antiderivative at both
    ends of every cell."""
    if isinstance(law, NormalLaw):
        dk = _norm_pdf(special.ndtri(cells.lo)) - _norm_pdf(special.ndtri(cells.hi))
        return law.mean + law.sd * dk / cells.p, dk * dk / cells.p * law.sd ** 2
    b = _xlogx(cells.one_minus_lo) - _xlogx(cells.one_minus_hi)
    if isinstance(law, GammaLaw):
        s = law.scale
        return s - s * b / cells.p, b * b / cells.p * (s * s)
    a = _xlogx(cells.hi) - _xlogx(cells.lo)
    dh = a - b
    return ((2.0 - 2.0 * b / cells.p) - (2.0 - 2.0 * a / cells.p)) / 2.0, dh * dh / cells.p


_ATOM = (st.floats(1e-300, 1e-12) | st.floats(0.0, 1.0, exclude_min=True)
         | st.floats(1.0 - 1e-12, 1.0, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(partitions=st.lists(st.lists(_ATOM, max_size=12), min_size=1, max_size=6))
@example(partitions=[[], [0.5], []])
@example(partitions=[[1e-300, 2e-300, 1e-12], [1.0 - 1e-12, 1.0 - 1e-16]])
def test_edge_once_cell_means_equal_the_two_ended_formulas_bit_for_bit(partitions):
    atoms = [np.unique([*p, 1.0]) for p in partitions]
    starts = np.concatenate(([0], np.cumsum([a.size for a in atoms])[:-1])).tolist()
    cells = Cells.of_atoms(np.concatenate(atoms), starts)
    for law in (NormalLaw(), NormalLaw(0.3, 1.7), GammaLaw(1.0, 2.0), GammaLaw(1.0, 0.5),
                LogisticLaw()):
        for oriented in (cells, cells.reflected()):
            got, want = law.cell_means(oriented), _two_ended(law, oriented)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), (law, oriented.is_reflected)
