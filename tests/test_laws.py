"""The vectorised cell kernels of the continuous laws against the scalar
formulas they replaced, the laws' cell means against the closed forms
``adjust`` used before the laws owned them, and the surrogate's
serialised form against output recorded before the surrogate became a
law plus a tail."""

import importlib.util
import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special
from scipy.special import _ufuncs

from pcomb import (METHODS, FAMILIES, adjust, custom_pvalue_distribution,
                   make_statistic_model, pvalue_distribution, surrogate)
from pcomb import _laws, distributions
from pcomb.adjust import METHOD_SPECS
from pcomb._laws import (Cells, GammaLaw, LogisticLaw, NormalLaw, QuantileLaw, UniformLaw,
                         _cells_quad)
from pcomb.cli import run

from conftest import make_random_dists

RTOL, ATOL = 1e-12, 1e-14

# ---------------------------------------------------------------------------
# scalar reference formulas: one cell at a time, with the boundary limits
# written out as branches
# ---------------------------------------------------------------------------


def _norm_pdf(t):
    return 0.0 if not math.isfinite(t) else math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def _t_phi(t):
    return 0.0 if not math.isfinite(t) else t * _norm_pdf(t)


def ref_normal(law, z, c0, c1):
    if c1 <= c0:
        return 0.0
    t0 = special.ndtri(c0) if c0 > 0.0 else -math.inf
    t1 = special.ndtri(c1) if c1 < 1.0 else math.inf
    a = z - law.mean
    dphi = _norm_pdf(t0) - _norm_pdf(t1)
    mass = c1 - c0
    second = mass + _t_phi(t0) - _t_phi(t1)
    return a * a * mass - 2.0 * a * law.sd * dphi + law.sd ** 2 * second


def ref_gamma(law, z, c0, c1):
    if c1 <= c0:
        return 0.0
    k, s = law.shape, law.scale

    def reg(m, y):
        if y <= 0.0:
            return 0.0
        if math.isinf(y):
            return 1.0
        return float(special.gammainc(k + m, y / s))

    y0 = float(s * special.gammaincinv(k, c0)) if c0 > 0.0 else 0.0
    y1 = float(s * special.gammaincinv(k, c1)) if c1 < 1.0 else math.inf
    d1 = reg(1, y1) - reg(1, y0)
    d2 = reg(2, y1) - reg(2, y0)
    return z * z * (c1 - c0) - 2.0 * z * k * s * d1 + k * (k + 1.0) * s * s * d2


def ref_uniform(law, z, c0, c1):
    if c1 <= c0:
        return 0.0
    return ((z - c0) ** 3 - (z - c1) ** 3) / 3.0


def _entropy_antideriv(w):
    if w <= 0.0 or w >= 1.0:
        return 0.0
    return w * math.log(w) + (1.0 - w) * math.log1p(-w)


def _logistic_sq_antideriv(w):
    if w <= 0.0:
        return -math.pi ** 2 / 3.0
    if w >= 1.0:
        return 0.0
    lw, l1w = math.log(w), math.log1p(-w)
    return (w * lw * lw - 2.0 * w * lw * l1w + (w - 1.0) * l1w * l1w
            - 2.0 * float(special.spence(w)))


def ref_logistic(law, z, c0, c1):
    if c1 <= c0:
        return 0.0
    da = _entropy_antideriv(c1) - _entropy_antideriv(c0)
    db = _logistic_sq_antideriv(c1) - _logistic_sq_antideriv(c0)
    return z * z * (c1 - c0) - 2.0 * z * da + db


LAWS = [
    (NormalLaw(0.0, 1.0), ref_normal),
    (NormalLaw(3.0, 2.0), ref_normal),
    (GammaLaw(1.0, 2.0), ref_gamma),
    (GammaLaw(40.6845, 1.9218121), ref_gamma),
    (UniformLaw(), ref_uniform),
    (LogisticLaw(), ref_logistic),
]
LAW_IDS = ["normal", "normal-3-2", "gamma-1-2", "gamma-surrogate", "uniform", "logistic"]


def _cells(seed):
    """Random cells, zero-width cells (interior, at 0 and at 1), cells
    touching 0 or 1, the whole interval and narrow cells at both ends."""
    rng = np.random.default_rng(seed)
    w = np.sort(rng.uniform(0.0, 1.0, (300, 2)), axis=1)
    same = rng.uniform(0.0, 1.0, 20)
    edge = rng.uniform(0.0, 1.0, 20)
    c0 = np.concatenate([w[:, 0], same, [0.0, 1.0], np.zeros(20), edge,
                         [0.0, 0.0, 1e-12, 1.0 - 1e-12, 0.5]])
    c1 = np.concatenate([w[:, 1], same, [0.0, 1.0], edge, np.ones(20),
                         [1.0, 1e-12, 2e-12, 1.0, 0.5 + 1e-9]])
    return c0, c1


@pytest.mark.parametrize("law,ref", LAWS, ids=LAW_IDS)
def test_cell_kernel_matches_scalar_formulas(law, ref):
    c0, c1 = _cells(2024)
    rng = np.random.default_rng(7)
    z = np.asarray(law.quantile(rng.uniform(0.001, 0.999, c0.size)), dtype=float)
    got = law.cell_sq_moment(z, c0, c1)
    want = np.array([ref(law, float(a), float(b), float(c)) for a, b, c in zip(z, c0, c1)])
    assert got.shape == z.shape
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)
    # zero-width cells are exactly zero, and no cell is negative beyond roundoff
    assert np.all(got[c1 <= c0] == 0.0)
    assert np.all(got >= -ATOL)


@pytest.mark.parametrize("law,ref", LAWS, ids=LAW_IDS)
def test_cell_kernel_broadcasts_a_scalar_z(law, ref):
    c0, c1 = _cells(99)
    z = float(law.quantile(0.3))
    want = np.array([ref(law, z, float(b), float(c)) for b, c in zip(c0, c1)])
    np.testing.assert_allclose(law.cell_sq_moment(z, c0, c1), want, rtol=RTOL, atol=ATOL)


def test_quantile_law_cells_match_the_closed_form():
    c0, c1 = _cells(5)
    keep = slice(0, 40)
    law = NormalLaw(0.0, 1.0)
    z = np.linspace(-2.0, 2.0, 40)
    got = QuantileLaw(special.ndtri).cell_sq_moment(z, c0[keep], c1[keep])
    np.testing.assert_allclose(got, law.cell_sq_moment(z, c0[keep], c1[keep]),
                               rtol=1e-9, atol=1e-11)


def test_quadrature_calls_f_once_when_every_cell_finishes_at_step_1_32():
    # cells (0, 1e-300), (1 - 1e-6, 1), one holding a single double
    # (0.5 + 1 ulp), and (1e-300, 0.5)
    lo = np.array([0.0, 1.0 - 1e-6, 0.5, 1e-300])
    hi = np.array([1e-300, 1.0, np.nextafter(np.nextafter(0.5, 1.0), 1.0), 0.5])
    calls = []

    def f(w, i):
        calls.append((w.copy(), np.arange(lo.size)[i]))
        return w
    means = _cells_quad(f, lo, hi, 1e-12)
    assert len(calls) == 1  # f(w) = w is done at step 1/32, the first estimate
    w, cells = calls[0]
    assert w.shape == (lo.size, 2 * (73 + 72))   # per end, t = 0 to 4.5 by 1/16, then 1/32
    assert np.all((w > lo[cells, None]) & (w < hi[cells, None]))
    assert means[2] == np.nextafter(0.5, 1.0)
    np.testing.assert_allclose(means, (lo + hi) / 2.0, rtol=1e-15)


def test_quadrature_calls_f_once_a_later_step_on_the_cells_still_going():
    # |w - 0.4|^3.5 takes the second cell, which holds 0.4, to step 1/128;
    # the other cells finish at step 1/32
    lo, hi = np.array([0.1, 0.3, 0.6]), np.array([0.2, 0.5, 0.9])
    calls = []

    def f(w, i):
        calls.append((w.copy(), np.arange(lo.size)[i]))
        return np.abs(w - 0.4) ** 3.5
    _cells_quad(f, lo, hi, 1e-12)
    assert [c.tolist() for _, c in calls] == [[0, 1, 2], [1], [1]]
    for (w, cells), nodes in zip(calls[1:], (144, 288)):   # per end, at steps 1/64, 1/128
        assert w.shape == (cells.size, 2 * nodes)
        assert np.all((w > lo[cells, None]) & (w < hi[cells, None]))


@pytest.mark.parametrize("law", [law for law, _ in LAWS] + [QuantileLaw(special.ndtri)],
                         ids=LAW_IDS + ["quantile-ndtri"])
def test_a_partition_of_live_cells_equals_the_masked_path_bit_for_bit(law):
    # every cell of a left-sided partition has positive width, so no mask is
    # taken; a zero-width cell put after it sends the call through the mask
    hi = np.array([1e-300, 1e-12, 0.1, 0.35, 0.5, 0.9, 1.0 - 1e-12, 1.0])
    cells = Cells.of_atoms(hi, 0)
    z = np.linspace(-1.0, 3.0, hi.size)
    got = law.cell_sq_moment(z, cells.lo, cells.hi)
    masked = law.cell_sq_moment(np.append(z, z[3]), np.append(cells.lo, 0.5),
                                np.append(cells.hi, 0.5))
    assert got.tobytes() == masked[:-1].tobytes() and masked[-1] == 0.0


def test_quantile_law_zero_width_cells_are_zero():
    got = QuantileLaw(special.ndtri).cell_sq_moment(0.0, [0.3, 1.0], [0.3, 1.0])
    assert got.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("lo,hi", [(0.3, 0.3), (0.5, np.nextafter(0.5, 1.0))])
def test_quadrature_refuses_a_cell_with_no_double_inside(lo, hi):
    with pytest.raises(ValueError, match=r"^the cell \(.*\) is too narrow to integrate over: "
                                          r"no double lies strictly inside it$"):
        _cells_quad(lambda w, i: w, np.array([0.0, lo]), np.array([0.1, hi]), 1e-12)


# ---------------------------------------------------------------------------
# the coupling cells of one partition take their edge terms once per edge;
# every bit must be that of each cell evaluated alone
# ---------------------------------------------------------------------------

#: the laws whose coupling cells take terms at the edges: gamma at shape 1
#: and at a surrogate's shape, normal and logistic
EDGE_LAWS = [GammaLaw(1.0, 2.0), GammaLaw(40.6845, 1.9218121), NormalLaw(0.0, 1.0),
             NormalLaw(3.0, 2.0), LogisticLaw()]

_ATOM = (st.floats(1e-300, 1e-12) | st.floats(0.0, 1.0, exclude_min=True)
         | st.floats(1.0 - 1e-12, 1.0, exclude_max=True))


@settings(max_examples=150, deadline=None)
@given(atoms=st.lists(_ATOM, max_size=16), ties=st.lists(st.integers(0, 3), max_size=16),
       seed=st.integers(0, 2 ** 32 - 1))
@example(atoms=[1e-300, 2e-300, 1e-17, 0.5], ties=[0, 0, 2, 0], seed=1)
@example(atoms=[1.0 - 1e-12, 1.0 - 1e-16], ties=[3, 1], seed=2)
def test_shared_edge_coupling_equals_each_cell_alone_bit_for_bit(atoms, ties, seed):
    # near-tied atoms: each atom is followed by its next ``ties`` doubles;
    # near 0 the reflected cells (1 - F_i, 1 - F_{i-1}) have zero width
    tied = []
    for a, t in zip(atoms, ties):
        for _ in range(t):
            a = np.nextafter(a, 2.0)
            tied.append(a)
    hi = np.unique(np.minimum([*atoms, *tied, 1.0], 1.0))
    rng = np.random.default_rng(seed)
    for law in EDGE_LAWS:
        z = np.asarray(law.quantile(rng.uniform(0.001, 0.999, hi.size)), dtype=float)
        for cells in (Cells.of_atoms(hi, 0), Cells.of_atoms(hi, 0).reflected()):
            got = law.cell_sq_moment(z, cells.lo, cells.hi)
            alone = [law.cell_sq_moment(z[i:i + 1], cells.lo[i:i + 1], cells.hi[i:i + 1])
                     for i in range(hi.size)]
            assert got.tobytes() == np.concatenate(alone).tobytes(), (law, cells.is_reflected)


@settings(max_examples=150, deadline=None)
@given(atoms=st.lists(_ATOM, max_size=16), ties=st.lists(st.integers(0, 3), max_size=16),
       cut=st.integers(0, 16))
@example(atoms=[1e-300, 2e-300, 1e-17, 0.5], ties=[0, 0, 2, 0], cut=2)
@example(atoms=[1.0 - 1e-12, 1.0 - 1e-16], ties=[3, 1], cut=1)
def test_an_observed_cell_alone_has_the_bits_of_its_partition(atoms, ties, cut):
    # two partitions laid end to end, as combine lays its tests, one of
    # near-tied atoms and atoms near 0 and 1; the cells not tiled take their
    # edge terms at both ends, each alone and all together
    tied = []
    for a, t in zip(atoms, ties):
        for _ in range(t):
            a = np.nextafter(a, 2.0)
            tied.append(a)
    first = np.unique(np.minimum([*atoms, *tied, 1.0], 1.0))
    second = np.unique([*first[:cut], 1.0])
    laid = Cells.of_atoms(np.concatenate((first, second)), [0, first.size])
    apart = Cells.of_edges(laid.lo, laid.hi)
    alone = [Cells.of_edges(laid.lo[i:i + 1], laid.hi[i:i + 1]) for i in range(laid.p.size)]
    for method in METHODS:
        law = METHOD_SPECS[method].law
        for flip in (lambda c: c, Cells.reflected):
            want = law.cell_means(flip(laid))[0].tobytes()
            assert law.cell_means(flip(apart))[0].tobytes() == want, (method, flip)
            got = b"".join(law.cell_means(flip(c))[0].tobytes() for c in alone)
            assert got == want, (method, flip)


class _SpecialSpy:
    """Stands in for ``scipy.special`` and records how many points each
    function is called on."""

    def __init__(self):
        self.points = {}

    def __getattr__(self, name):
        f = getattr(special, name)

        def counted(*args):
            self.points.setdefault(name, []).append(np.size(args[-1]))
            return f(*args)
        return counted


@pytest.mark.parametrize("law,calls", [
    (GammaLaw(1.0, 2.0), {"gammaincinv": 1, "gammainc": 2}),
    (GammaLaw(40.6845, 1.9218121), {"gammaincinv": 1, "gammainc": 2}),
    (NormalLaw(0.0, 1.0), {"ndtri": 1}),
    (LogisticLaw(), {"spence": 1}),
])
def test_one_partition_evaluates_each_special_function_once_per_edge(monkeypatch, law, calls):
    m = 40
    cells = Cells.of_atoms(np.linspace(0.0, 1.0, m + 1)[1:], 0)
    for oriented in (cells, cells.reflected()):
        spy = _SpecialSpy()
        monkeypatch.setattr(_laws, "special", spy)
        law.cell_sq_moment(np.linspace(-1.0, 1.0, m), oriented.lo, oriented.hi)
        assert spy.points == {name: [m + 1] * n for name, n in calls.items()}


def _unread_special_handle():
    """A new instance of the module ``_laws`` and ``distributions`` read
    scipy.special through, no name read from it yet."""
    spec = importlib.util.find_spec("pcomb._special")
    handle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(handle)
    return handle


def test_the_special_handle_gives_scipys_own_objects_fetched_once():
    assert _laws.special is distributions.special
    handle = _unread_special_handle()
    assert not hasattr(handle, "__wrapped__")
    fetch, fetched = handle.__getattr__, []
    handle.__getattr__ = lambda name: fetched.append(name) or fetch(name)
    names = ("ndtri", "gammainc", "spence", "pdtrc", "_binom_pmf", "_binom_cdf")
    got = [[getattr(handle, name) for name in names] for _ in range(3)]
    # the first read keeps every name; later reads are plain module attributes
    assert fetched == ["ndtri"] and "__getattr__" not in vars(handle)
    want = [getattr(_ufuncs if name in ("_binom_pmf", "_binom_cdf") else special, name)
            for name in names]
    assert all(a is b for row in got for a, b in zip(row, want))
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        handle.nosuch


def test_threads_reading_an_unread_special_handle_at_once_get_one_object():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for name in ("ndtri", "gammaincc", "betainc", "_binom_pmf"):
            handle, barrier, got = _unread_special_handle(), threading.Barrier(8), []

            def read():
                barrier.wait(timeout=30)
                got.append(getattr(handle, name))
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(got) == 8 and all(f is getattr(handle, name) for f in got)
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# the quadrature against the schedule it replaced: one call of f a step,
# steps 1/16 and 1/32 apart; every mean and every message must stay the same
# ---------------------------------------------------------------------------

def _level_by_level_tables(k):
    h = 2.0 ** -(4 + k)
    t = np.arange(0.0, 4.5 + h / 2.0, h) if k == 0 else np.arange(h, 4.5, 2.0 * h)
    e = np.exp(-math.pi * np.sinh(t))
    d = e / (1.0 + e)
    g = np.where(t > 0.0, h, h / 2.0) * math.pi * np.cosh(t) * d * (1.0 - d)
    return d, np.concatenate((g, g))


LEVEL_BY_LEVEL = tuple(_level_by_level_tables(k) for k in range(4))


def _cells_quad_level_by_level(f, lo, hi, tol):
    """The quadrature as it was before steps 1/16 and 1/32 shared a call of f."""
    def cell(i):
        return f"({float(lo[i])!r}, {float(hi[i])!r})"

    inside_lo, inside_hi = np.nextafter(lo, hi), np.nextafter(hi, lo)
    if np.any(inside_lo >= hi):
        raise ValueError(f"the cell {cell(np.argmax(inside_lo >= hi))} is too narrow "
                         f"to integrate over: no double lies strictly inside it")
    ends, widths = np.empty((lo.size, 2, 1)), np.empty((lo.size, 2, 1))
    ends[:, 0, 0], ends[:, 1, 0], widths[:, 0, 0], widths[:, 1, 0] = lo, hi, hi - lo, lo - hi
    unreached = np.stack((inside_lo - lo, hi - inside_hi), axis=1) / (2.0 * widths[:, :1, 0])
    tol, mean = np.full_like(lo, tol), np.zeros(lo.size)
    index, cells = np.arange(lo.size), slice(None)
    for level, (d, g) in enumerate(LEVEL_BY_LEVEL):
        w = widths[cells] * d
        w += ends[cells]
        np.minimum(np.maximum(w, inside_lo[cells, None, None], out=w),
                   inside_hi[cells, None, None], out=w)
        fw = f(w.reshape(w.shape[0], 2 * d.size), cells)
        finite = np.isfinite(fw).all(axis=1)
        if not finite.all():
            raise ValueError(f"the quantile has no finite mean on cell "
                             f"{cell(index[cells][np.argmin(finite)])}")
        m = fw @ g + mean[cells] / 2.0
        err = np.abs(m - mean[cells])
        mean[cells] = m
        if not level:
            outer = fw.reshape(lo.size, 2, d.size)[:, :, -1]
            continue
        err += (unreached[cells] * np.abs(outer[cells] - m[:, None])).sum(axis=1)
        going = err > tol[cells] * np.maximum(1.0, np.abs(m))
        cells = index[cells][going]
        if not cells.size:
            return mean
    raise RuntimeError(f"quantile quadrature failed on cell {cell(cells[0])}: estimated "
                       f"error {err[going][0]:.1e} in the mean at step 1/128")


def _outcome(quad, f, lo, hi, tol):
    """The means as bytes, or the type and message of the error raised,
    with the number of calls of f.  The singular integrands overflow near
    0, and so does a per-cell ``tol`` on the narrowest cells: numpy's
    warnings are off."""
    calls = []

    def counted(w, i):
        calls.append(i)
        return f(w, i)
    try:
        with np.errstate(all="ignore"):
            return quad(counted, lo, hi, tol).tobytes(), len(calls)
    except (ValueError, RuntimeError) as e:
        return (type(e), str(e)), len(calls)


def _quad_cells(seed):
    """Random cells, a partition of (0, 1), and narrow cells at both ends."""
    rng = np.random.default_rng(seed)
    edges = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 9)), [1.0]))
    w = np.sort(rng.uniform(0.0, 1.0, (8, 2)), axis=1)
    lo = np.concatenate((edges[:-1], w[:, 0], [0.0, 1e-300, 1e-17, 1.0 - 1e-9, 1.0 - 2.0 ** -40]))
    hi = np.concatenate((edges[1:], w[:, 1], [1e-300, 1e-12, 1e-9, 1.0, 1.0]))
    return lo, hi


def _integrands(seed, lo):
    rng = np.random.default_rng(seed)
    z, kink = rng.normal(0.0, 2.0, lo.size), float(rng.uniform(0.05, 0.95))
    return {
        "identity": lambda w, i: w,
        "ndtri": lambda w, i: special.ndtri(w),
        "logit": lambda w, i: np.log(w) - np.log1p(-w),
        "fisher": lambda w, i: -2.0 * np.log1p(-w),
        "w2-ndtri": lambda w, i: (z[i, None] - special.ndtri(w)) ** 2,
        "kink": lambda w, i: np.sqrt(np.abs(w - kink)),
        "cusp-2.5": lambda w, i: np.abs(w - kink) ** 2.5,
        "cusp-3.5": lambda w, i: np.abs(w - kink) ** 3.5,
        "singular": lambda w, i: w ** -0.75,
        "step": lambda w, i: (w > kink).astype(float),
    }


def test_fused_quadrature_equals_the_level_by_level_one_bit_for_bit():
    depths = set()
    for seed in range(6):
        lo, hi = _quad_cells(seed)
        for name, f in _integrands(seed, lo).items():
            for tol in (1e-10, 1e-12, 1e-12 / (hi - lo)):
                want = _outcome(_cells_quad_level_by_level, f, lo, hi, tol)
                got = _outcome(_cells_quad, f, lo, hi, tol)
                assert got[0] == want[0], (seed, name)
                assert got[1] == want[1] - 1, (seed, name)   # 1/16 and 1/32 share a call
                depths.add(want[1] if isinstance(want[0], bytes) else want[0][0])
    # the last cells finish at step 1/32, 1/64 or 1/128, or never
    assert depths == {2, 3, 4, RuntimeError}


def test_fused_quadrature_on_no_cells_returns_no_means():
    empty = np.array([])
    got = _outcome(_cells_quad, lambda w, i: w, empty, empty, 1e-12)
    assert got == (b"", 1)
    assert got[0] == _outcome(_cells_quad_level_by_level, lambda w, i: w, empty, empty, 1e-12)[0]


@pytest.mark.parametrize("level", range(4))
def test_a_value_that_is_not_finite_is_refused_at_its_step_as_before(level):
    lo, hi = np.array([0.1, 0.3, 0.6]), np.array([0.2, 0.5, 0.9])
    # a node of the step on the one cell that goes on to step 1/128
    bad = (hi[1] - lo[1]) * LEVEL_BY_LEVEL[level][0][1] + lo[1]

    def f(w, i):
        return np.where(w == bad, np.nan, np.sqrt(np.abs(w - 0.4)))
    want = _outcome(_cells_quad_level_by_level, f, lo, hi, 1e-12)[0]
    assert want == (ValueError, "the quantile has no finite mean on cell (0.3, 0.5)")
    assert _outcome(_cells_quad, f, lo, hi, 1e-12)[0] == want


def test_the_cell_named_is_the_first_at_step_1_16_before_any_at_step_1_32():
    lo, hi = np.array([0.1, 0.3, 0.6]), np.array([0.2, 0.5, 0.9])
    # a node of step 1/32 on the first cell and one of step 1/16 on the last
    bad = [(hi[0] - lo[0]) * LEVEL_BY_LEVEL[1][0][1] + lo[0],
           (hi[2] - lo[2]) * LEVEL_BY_LEVEL[0][0][1] + lo[2]]

    def f(w, i):
        return np.where(np.isin(w, bad), np.inf, w)
    want = _outcome(_cells_quad_level_by_level, f, lo, hi, 1e-12)[0]
    assert want == (ValueError, "the quantile has no finite mean on cell (0.6, 0.9)")
    assert _outcome(_cells_quad, f, lo, hi, 1e-12)[0] == want


def test_finite_values_whose_sum_overflows_are_taken_as_before():
    lo, hi = np.array([0.1, 0.3]), np.array([0.2, 0.5])

    def f(w, i):
        return np.full_like(w, 1e308)
    want = _outcome(_cells_quad_level_by_level, f, lo, hi, 1e-12)[0]
    assert isinstance(want, bytes)
    assert _outcome(_cells_quad, f, lo, hi, 1e-12)[0] == want


def test_gamma_and_normal_tails_below_and_at_support():
    g = GammaLaw(2.5, 1.5)
    np.testing.assert_array_equal(g.cdf([-1.0, 0.0]), [0.0, 0.0])
    np.testing.assert_array_equal(g.sf([-1.0, 0.0]), [1.0, 1.0])
    n = NormalLaw(1.0, 2.0)
    assert n.cdf(1.0) == 0.5 and n.sf(1.0) == 0.5
    assert float(g.cdf(3.0) + g.sf(3.0)) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# cell means: the closed forms as ``adjust`` wrote them, one method at a
# time, before they moved into the laws; every bit must stay the same
# ---------------------------------------------------------------------------


def _xlogx(x):
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = x[pos] * np.log(x[pos])
    return out


_XLOGX_EDGES = [0.0, 5e-324, 1e-300, 1.0 - 2.0 ** -53, 1.0]


def test_xlogx_equals_the_masked_form_on_random_values():
    rng = np.random.default_rng(17)
    x = np.concatenate((rng.random(200_000), 10.0 ** rng.uniform(-320.0, 0.0, 200_000),
                        _XLOGX_EDGES))
    np.testing.assert_array_equal(_laws._xlogx(x).view(np.uint64), _xlogx(x).view(np.uint64))


def _normal_kernel(F):
    out = np.zeros_like(F)
    interior = (F > 0.0) & (F < 1.0)
    q = special.ndtri(F[interior])
    out[interior] = np.exp(-0.5 * q * q) / math.sqrt(2.0 * math.pi)
    return out


def reference_adjust(method, atoms):
    """(z, mean, variance) of the closed-form adjustment."""
    hi = atoms
    lo = np.concatenate(([0.0], hi[:-1]))
    p = hi - lo
    if method in ("fisher", "pearson", "george"):
        a = _xlogx(hi) - _xlogx(lo)
        b = _xlogx(1.0 - lo) - _xlogx(1.0 - hi)
        z_f = 2.0 - 2.0 * a / p
        z_p = 2.0 - 2.0 * b / p
        if method == "fisher":
            z, variance = z_f, 4.0 * np.sum(a * a / p)
        elif method == "pearson":
            z, variance = z_p, 4.0 * np.sum(b * b / p)
        else:
            z = (z_p - z_f) / 2.0
            dh = a - b
            variance = float(np.sum(dh * dh / p))
    elif method == "stouffer":
        K = _normal_kernel(np.concatenate(([0.0], hi)))
        z = (K[:-1] - K[1:]) / p
        variance = float(np.sum((K[1:] - K[:-1]) ** 2 / p))
    else:
        z = (hi + lo) / 2.0
        variance = float(np.sum(hi * lo * p) / 4.0)
    return z, float(np.sum(p * z)), float(variance)


def _oracle_dists():
    """Random atoms, near-tied atoms, atoms within 1e-12 of 0 and 1, and
    every named family on all three sides."""
    dists = make_random_dists(120, seed=4242)
    dists += make_random_dists(40, seed=17, max_atoms=30, min_gap=1e-15)
    rng = np.random.default_rng(31)
    for gap in (1e-9, 1e-12, 1e-15):
        base = np.sort(rng.uniform(0.05, 0.95, 5))
        dists.append(custom_pvalue_distribution(
            np.concatenate([np.sort(np.concatenate([base, base + gap])), [1.0]]), "left"))
    for tiny in (1e-300, 1e-100, 1e-16, 1e-12):
        dists.append(custom_pvalue_distribution([tiny, 2.0 * tiny, 0.5, 1.0], "left"))
    for near_one in (1e-12, 1e-15):
        dists.append(custom_pvalue_distribution(
            [0.3, 1.0 - 2.0 * near_one, 1.0 - near_one, 1.0], "left"))
    dists.append(custom_pvalue_distribution([1e-12, 0.5, 1.0 - 1e-12, 1.0], "left"))
    params = {"binomial": {"trials": 30, "prob": 0.3},
              "poisson": {"rate": 12.5},
              "negative-binomial": {"successes": 3, "prob": 0.4},
              "geometric": {"prob": 0.2},
              "hypergeometric": {"population": 400, "successes": 90, "draws": 40},
              "noncentral-hypergeometric": {"population": 100, "successes": 30,
                                            "draws": 20, "odds": 2.0},
              "custom": {"support": [0, 1, 2, 3], "pmf": [0.1, 0.4, 0.4, 0.1]}}
    assert set(params) == set(FAMILIES)
    for family, p in params.items():
        model = make_statistic_model(family, p)
        dists += [pvalue_distribution(model, side) for side in ("left", "right", "two")]
    return dists


@pytest.mark.parametrize("method", METHODS)
def test_cell_means_equal_the_adjust_closed_forms_bit_for_bit(method):
    for d in _oracle_dists():
        adj = adjust(method, d)
        z, mean, variance = reference_adjust(method, d.atoms)
        np.testing.assert_array_equal(adj.z, z)
        assert adj.mean == mean and adj.variance == variance, (method, d.atoms)


def test_gamma_cell_means_need_shape_one():
    with pytest.raises(ValueError, match="shape 1"):
        GammaLaw(2.0, 1.0).cell_means(Cells.of_atoms(np.array([0.5, 1.0]), [0]))


def test_logistic_variance_is_fixed():
    # the quantile, cdf and cell means are those of the standard laws, so
    # the moments are constants and no field a formula would ignore is taken
    assert (LogisticLaw().mean, LogisticLaw().variance) == (0.0, math.pi ** 2 / 3.0)
    assert (UniformLaw().mean, UniformLaw().variance) == (0.5, 1.0 / 12.0)
    for law, args in [(LogisticLaw, (0.0, 1.0)), (LogisticLaw, (1.0,)),
                      (UniformLaw, (0.4,)), (UniformLaw, (0.5, 1.0 / 12.0))]:
        with pytest.raises(TypeError):
            law(*args)


# ---------------------------------------------------------------------------
# serialised surrogate and combine output, recorded before the change
# ---------------------------------------------------------------------------

RECORDED_SURROGATES = {
    ("fisher", (3.8436241, 1.2, 2.9)):
        '{"family": "gamma", "n": 3, "tail": "upper", "shape": 4.5319364998653455, '
        '"scale": 1.3239373499999998}',
    ("pearson", (1.9853109,)):
        '{"family": "gamma", "n": 1, "tail": "lower", "shape": 2.0147977830575554, '
        '"scale": 0.99265545}',
    ("george", (2.5683806, 2.0)):
        '{"family": "normal", "n": 2, "tail": "lower", "mean": 0.0, '
        '"sd": 2.1373770373988767}',
    ("stouffer", (0.80546377,) * 5):
        '{"family": "normal", "n": 5, "tail": "lower", "mean": 0.0, '
        '"sd": 2.006818090909089}',
    ("edgington", (1.0 / 14.0, 0.05, 0.08)):
        '{"family": "normal", "n": 3, "tail": "lower", "mean": 1.5, '
        '"sd": 0.4488079449258574}',
}


@pytest.mark.parametrize("method,variances", list(RECORDED_SURROGATES))
def test_surrogate_json_is_unchanged(method, variances):
    got = json.dumps(surrogate(method, variances).to_json())
    assert got == RECORDED_SURROGATES[(method, variances)]


# combine --input with {"pvalues", "dists"}: the atoms are given, so the
# output depends on the adjustment and the surrogate only
COMBINE_INPUT = {"pvalues": [0.4, 0.42, 1.0],
                 "dists": [{"side": "left", "F": [0.4, 0.41, 0.42, 1.0]}] * 3}
RECORDED_COMBINE = {
    "fisher": '{\n  "method": "fisher",\n  "n": 3,\n  "S": 6.335203237136916,\n'
              '  "p": 0.39318895259784326,\n  "surrogate": {\n    "family": "gamma",\n'
              '    "n": 3,\n    "tail": "upper",\n    "shape": 5.310164522596104,\n'
              '    "scale": 1.1299084942601063\n  }\n}\n',
    "pearson": '{\n  "method": "pearson",\n  "n": 3,\n  "S": 4.629288694071292,\n'
               '  "p": 0.29286512847959717,\n  "surrogate": {\n    "family": "gamma",\n'
               '    "n": 3,\n    "tail": "lower",\n    "shape": 7.291929389957626,\n'
               '    "scale": 0.8228274958700426\n  }\n}\n',
    "george": '{\n  "method": "george",\n  "n": 3,\n  "S": -0.8529572715328122,\n'
              '  "p": 0.36159201001970664,\n  "surrogate": {\n    "family": "normal",\n'
              '    "n": 3,\n    "tail": "lower",\n    "mean": 0.0,\n'
              '    "sd": 2.4080780831669224\n  }\n}\n',
    "stouffer": '{\n  "method": "stouffer",\n  "n": 3,\n  "S": -0.506608727715923,\n'
                '  "p": 0.3570741038232071,\n  "surrogate": {\n    "family": "normal",\n'
                '    "n": 3,\n    "tail": "lower",\n    "mean": 0.0,\n'
                '    "sd": 1.383078523073026\n  }\n}\n',
    "edgington": '{\n  "method": "edgington",\n  "n": 3,\n  "S": 1.325,\n'
                 '  "p": 0.34214230996912764,\n  "surrogate": {\n    "family": "normal",\n'
                 '    "n": 3,\n    "tail": "lower",\n    "mean": 1.5,\n'
                 '    "sd": 0.4303736748454766\n  }\n}\n',
}


@pytest.mark.parametrize("method", list(RECORDED_COMBINE))
def test_combine_cli_output_is_unchanged(capsys, tmp_path, method):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(COMBINE_INPUT))
    assert run(["combine", "--method", method, "--input", str(f)]) == 0
    assert capsys.readouterr().out == RECORDED_COMBINE[method]
