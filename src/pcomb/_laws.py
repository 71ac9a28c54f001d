"""Continuous reference laws with closed-form probability-cell integrals.

A law with quantile function Q owns two elementwise operations on the
probability cells of a ``Cells``:

- ``cell_means(cells)``: the means of Q over the cells, which are the
  adjusted statistic z, and each cell's share of Var(Z), scaled by the
  law, so the shares of one partition of (0, 1) sum to its Var(Z).  The
  cells may hold several partitions laid end to end, so one call serves
  every test of a combination;
- ``cell_sq_moment(z, cells)``: the integral over each cell of
  (z - Q(w))^2 dw, the quantile-coupling cell of the W2 diagnostics, on
  one partition or on cells that do not tile.

Both work through exact partial moments on (Q(lo), Q(hi)), with the
limits x log x -> 0 and phi(Phi^-1(F)) -> 0 at F in {0, 1}, so cells in
the far tails need no quadrature.  W2's mass term is hi - lo, not p: a
reflected cell whose 1 - F rounds to 1 has positive mass but zero width,
and on any zero-width cell every difference of edge terms is +0.0, so the
closed forms give exactly 0.0.

Only ``Cells.terms`` knows how cells tile, and it takes each term k once
per edge.  Within a partition a cell's lo is the hi of the cell before it,
bit for bit, as ``Cells.of_atoms`` copies it (reflected, its hi is the lo
of the cell before), so tiled cells take k on their start edge, 0 or 1,
then on each cell's own edge.  Where a later partition starts, the cell
before ends the partition before at the other end of (0, 1), so a k with
k(0) = k(1) serves many partitions laid end to end; one that differs, as
``cell_sq_moment``'s do, needs one partition.  Cells that do not tile,
such as combine's observed cells, take k at both ends of each: a cell's
terms are then the bits it has in its partition, as k of an edge depends
on that double alone.

``QuantileLaw`` is the fallback for arbitrary quantile callables:
``_cells_quad`` integrates all cells of a call at once by tanh-sinh
quadrature, one call of the quantile for steps 1/16 and 1/32 together, then
one more for each later step on the cells still going; zero-width cells,
which hold no double to integrate over, never reach it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple, Sequence

import numpy as np

from . import _special as special

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class Cells(NamedTuple):
    """Probability cells (lo, hi) of mass p = hi - lo, carrying 1 - lo and
    1 - hi, so a reflected cell never recomputes 1 - (1 - hi).  The cells
    hold partitions of (0, 1) laid end to end, in the order of their atoms
    even when reflected, or, if not ``tiled``, cells taken from such
    partitions one by one.  A tuple, so no field can be assigned, and its
    arrays are read-only; a copy or an unpickled one keeps them so."""

    lo: np.ndarray
    hi: np.ndarray
    p: np.ndarray
    one_minus_lo: np.ndarray
    one_minus_hi: np.ndarray
    is_reflected: bool = False
    tiled: bool = True

    def __reduce__(self):
        return _read_only, (Cells, *self)

    @classmethod
    def of_atoms(cls, hi: np.ndarray, starts: int | Sequence[int]) -> "Cells":
        """The cells (F_{i-1}, F_i) of p-value distributions whose atoms are
        laid end to end in ``hi``; ``starts`` (0 for one) holds the index of
        each one's first atom, whose cell takes F_0 = 0."""
        lo = np.empty_like(hi)
        lo[1:] = hi[:-1]
        lo[starts] = 0.0
        return cls.of_edges(lo, hi, tiled=True)

    @classmethod
    def of_edges(cls, lo: np.ndarray, hi: np.ndarray, tiled: bool = False) -> "Cells":
        """The cells (lo, hi), which unless ``tiled`` need not meet end to end,
        such as the one observed cell of each test of a combination."""
        cells = cls(lo, hi, hi - lo, 1.0 - lo, 1.0 - hi, tiled=tiled)
        for a in cells[:5]:   # hi too: the cells keep it, read-only as built
            a.setflags(write=False)
        return cells

    def reflected(self) -> "Cells":
        """(1 - hi, 1 - lo): the mean of Q(1 - W) on a cell is that of Q on these."""
        return Cells(self.one_minus_hi, self.one_minus_lo, self.p, self.hi, self.lo,
                     not self.is_reflected, self.tiled)

    def terms(self, k: Callable[[np.ndarray], np.ndarray | tuple], tail: bool = False
              ) -> tuple:
        """(k(lo), k(hi)), or (k(1 - lo), k(1 - hi)) if ``tail``, from one call
        of k on the edges the module docstring names; k gives an array or a tuple."""
        if tail:   # two plain assignments: warm combinations call this most
            lo, hi = self.one_minus_lo, self.one_minus_hi
        else:
            lo, hi = self.lo, self.hi
        if not self.tiled:
            at, m = k(np.concatenate((lo, hi))), lo.size
            if type(at) is tuple:
                return tuple(t[:m] for t in at), tuple(t[m:] for t in at)
            return at[:m], at[m:]
        edges = np.empty(lo.size + 1)   # filling one buffer beats np.concatenate here
        edges[0], edges[1:] = (hi[0], lo) if self.is_reflected else (lo[0], hi)
        at = k(edges)
        shared, own = ((tuple(t[:-1] for t in at), tuple(t[1:] for t in at))
                       if type(at) is tuple else (at[:-1], at[1:]))
        return (own, shared) if self.is_reflected else (shared, own)


def _read_only(cls, *fields):
    """``cls(*fields)``, each 1-D array field copied into immutable bytes: how
    a ``Cells`` or an ``AdjustedStatistic`` copies and unpickles."""
    return cls(*(np.frombuffer(f.tobytes(), f.dtype) if isinstance(f, np.ndarray) else f
                 for f in fields))


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x log x with the limit 0 at x = 0."""
    return x * np.log(np.where(x > 0.0, x, 1.0))


def _entropy_increment(cells: Cells, tail: bool = False) -> np.ndarray:
    """Cell increments of F log F, or of -(1-F) log(1-F) if ``tail``."""
    at_lo, at_hi = cells.terms(_xlogx, tail)
    return at_lo - at_hi if tail else at_hi - at_lo


class _CellLaw:
    """``sd`` from a law's ``variance``."""

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)


def _norm_pdf(t: np.ndarray) -> np.ndarray:
    """phi(t), zero at +-inf."""
    return np.exp(-0.5 * t * t) / _SQRT_2PI


def _norm_pdf_terms(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi(t) and t * phi(t), both with the zero limit at +-inf."""
    phi = _norm_pdf(t)
    return phi, np.where(np.isfinite(t), t, 0.0) * phi


@dataclass(frozen=True)
class NormalLaw(_CellLaw):
    mean: float = 0.0
    sd: float = 1.0
    family = "normal"

    @property
    def variance(self) -> float:
        return self.sd ** 2

    def quantile(self, w):
        return self.mean + self.sd * special.ndtri(w)

    def cdf(self, y):
        return special.ndtr((np.asarray(y, dtype=float) - self.mean) / self.sd)

    def sf(self, y):
        return special.ndtr((self.mean - np.asarray(y, dtype=float)) / self.sd)

    def cell_means(self, cells: Cells) -> tuple[np.ndarray, np.ndarray]:
        # integral of Phi^-1 over a cell is phi(Phi^-1(lo)) - phi(Phi^-1(hi))
        at_lo, at_hi = cells.terms(lambda w: _norm_pdf(special.ndtri(w)))
        dk = at_lo - at_hi
        return self.mean + self.sd * dk / cells.p, dk * dk / cells.p * self.sd ** 2

    def cell_sq_moment(self, z: np.ndarray, cells: Cells) -> np.ndarray:
        # standardized bounds (ndtri is -inf/+inf at 0/1); the edges are exact
        # probabilities, so the mass term takes no cdf round trip
        (phi0, tphi0), (phi1, tphi1) = cells.terms(
            lambda w: _norm_pdf_terms(special.ndtri(w)))
        a = z - self.mean
        dphi = phi0 - phi1
        mass = cells.hi - cells.lo
        second = mass + tphi0 - tphi1
        return a * a * mass - 2.0 * a * self.sd * dphi + self.sd ** 2 * second


@dataclass(frozen=True)
class GammaLaw(_CellLaw):
    shape: float
    scale: float
    family = "gamma"

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale ** 2

    def quantile(self, w):
        return self.scale * special.gammaincinv(self.shape, w)

    def _standardized(self, y) -> np.ndarray:
        # the support starts at zero: cdf 0 and sf 1 at or below it
        return np.maximum(np.asarray(y, dtype=float), 0.0) / self.scale

    def cdf(self, y):
        return special.gammainc(self.shape, self._standardized(y))

    def sf(self, y):
        return special.gammaincc(self.shape, self._standardized(y))

    def cell_means(self, cells: Cells) -> tuple[np.ndarray, np.ndarray]:
        # at shape 1, the only shape of a transform law, Q(w) = -s log(1-w),
        # whose cell integral is s p - s * (increment of -(1-F) log(1-F))
        if self.shape != 1.0:
            raise ValueError(f"closed-form cell means need gamma shape 1, got {self.shape}")
        s = self.scale
        b = _entropy_increment(cells, tail=True)
        # the scale goes on the finished share: inside the product it moves the rounding
        return s - s * b / cells.p, b * b / cells.p * (s * s)

    def _edge_terms(self, w):
        # Regularized lower incomplete gamma at shape shifted by m turns
        # partial moments of order m into plain cdf differences; the
        # quantile is 0/inf at 0/1, where gammainc is 0/1.
        y = self.quantile(w) / self.scale
        return special.gammainc(self.shape + 1.0, y), special.gammainc(self.shape + 2.0, y)

    def cell_sq_moment(self, z: np.ndarray, cells: Cells) -> np.ndarray:
        k, s = self.shape, self.scale
        (g0, h0), (g1, h1) = cells.terms(self._edge_terms)
        return (z * z * (cells.hi - cells.lo) - 2.0 * z * k * s * (g1 - g0)
                + k * (k + 1.0) * s * s * (h1 - h0))


@dataclass(frozen=True)
class UniformLaw(_CellLaw):
    """Uniform(0, 1); the quantile is the identity."""

    mean: ClassVar[float] = 0.5
    variance: ClassVar[float] = 1.0 / 12.0

    def quantile(self, w):
        return np.asarray(w, dtype=float)

    def cell_means(self, cells: Cells) -> tuple[np.ndarray, np.ndarray]:
        # Var(Z) = sum (hi + lo)^2 p / 4 - 1/4 telescopes to sum hi lo p / 4
        return (cells.hi + cells.lo) / 2.0, cells.hi * cells.lo * cells.p / 4.0

    def cell_sq_moment(self, z: np.ndarray, cells: Cells) -> np.ndarray:
        return ((z - cells.lo) ** 3 - (z - cells.hi) ** 3) / 3.0


def _logit_antiderivs(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Antiderivatives of log(w/(1-w)) and of its square on (0, 1).

    A(w) = w log w + (1-w) log(1-w), with A(0) = A(1) = 0;
    B(w) = w log^2 w - 2 w log w log(1-w) + (w-1) log^2(1-w) - 2 Li2(1-w),
    with B(0) = -pi^2/3 and B(1) = 0; scipy's spence(w) is Li2(1-w).
    """
    inside = (w > 0.0) & (w < 1.0)
    v = np.where(inside, w, 0.5)
    lw, l1w = np.log(v), np.log1p(-v)
    a = v * lw + (1.0 - v) * l1w
    b = v * lw * lw - 2.0 * v * lw * l1w + (v - 1.0) * l1w * l1w - 2.0 * special.spence(v)
    return (np.where(inside, a, 0.0),
            np.where(inside, b, np.where(w <= 0.0, -math.pi ** 2 / 3.0, 0.0)))


@dataclass(frozen=True)
class LogisticLaw(_CellLaw):
    """Standard logistic; mean 0, variance pi^2/3."""

    mean: ClassVar[float] = 0.0
    variance: ClassVar[float] = math.pi ** 2 / 3.0

    def quantile(self, w):
        w = np.asarray(w, dtype=float)
        return np.log(w) - np.log1p(-w)

    def cell_means(self, cells: Cells) -> tuple[np.ndarray, np.ndarray]:
        # the half difference of the two chi-square(2) cell means, kept in that
        # form ((a - b) / p moves the last bits); the variance uses the cell
        # increments of h(F) = F log F + (1-F) log(1-F), stable at F = 1
        a, b = _entropy_increment(cells), _entropy_increment(cells, tail=True)
        z = ((2.0 - 2.0 * b / cells.p) - (2.0 - 2.0 * a / cells.p)) / 2.0
        dh = a - b
        return z, dh * dh / cells.p

    def cell_sq_moment(self, z: np.ndarray, cells: Cells) -> np.ndarray:
        (a0, b0), (a1, b1) = cells.terms(_logit_antiderivs)
        return z * z * (cells.hi - cells.lo) - 2.0 * z * (a1 - a0) + (b1 - b0)


def _tanh_sinh_level(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-sinh nodes that step h = 2^-(4+k) adds, t = 0, h, ... if k = 0,
    else t = h, 3h, ..., up to 4.5: their signed distances from the lower
    end in cell widths, d, and from the upper, -d, as two rows, and the
    weights h (dw/dt) / width from the lower end, then the upper."""
    h = 2.0 ** -(4 + k)
    t = np.arange(0.0, 4.5 + h / 2.0, h) if k == 0 else np.arange(h, 4.5, 2.0 * h)
    e = np.exp(-math.pi * np.sinh(t))   # exp(-2s), s = (pi/2) sinh t
    d = e / (1.0 + e)                   # 1 / (1 + exp(2s)) without overflow
    # both ends reach the midpoint t = 0, so each takes half its weight
    g = np.where(t > 0.0, h, h / 2.0) * math.pi * np.cosh(t) * d * (1.0 - d)
    return np.array((d, -d)), np.concatenate((g, g))


#: the steps 1/16 to 1/128: the mean at a step is its level's weighted sum
#: plus half the mean at the step before
_TS_LEVELS = tuple(_tanh_sinh_level(k) for k in range(4))
#: the nodes of steps 1/16 and 1/32, which share one call of f: step 1/16
#: only seeds the error estimate, so it never finishes a cell
_TS_FIRST_NODES = np.concatenate((_TS_LEVELS[0][0], _TS_LEVELS[1][0]), axis=1)


def _cells_quad(f, lo: np.ndarray, hi: np.ndarray, tol) -> np.ndarray:
    """Means of f over the cells (lo, hi), all at once, by tanh-sinh
    quadrature (Takahasi & Mori 1974); ``f(w, i)`` gets the nodes of the
    cells i (an index array or slice) as an array of shape (cells, nodes).

    Steps 1/16 and 1/32 take one call of f on all cells; steps 1/64 and
    1/128 take one call each on the cells still going.  A node lies (hi -
    lo) / (1 + exp(2s)) from the nearer end, so nothing cancels next to 0 or
    1; one that rounds onto an end moves to the nearest double inside.  A
    cell's error estimate is the change of its mean from the step before,
    plus the mass of the half-spacings at its ends that no double reaches
    times the gap between the mean and f at the outermost nodes.  Cells whose
    estimate exceeds ``tol`` * max(1, |mean|) (``tol`` one number or one per
    cell) go on to the next step.
    """
    def cell(i):
        return f"({float(lo[i])!r}, {float(hi[i])!r})"

    def values(cells, nodes):
        """f at the nodes of the cells, shaped (cells, 2 ends, nodes)."""
        w = width[cells, None, None] * nodes
        w += ends[cells]
        np.minimum(np.maximum(w, inside_lo[cells, None, None], out=w),
                   inside_hi[cells, None, None], out=w)
        return f(w.reshape(w.shape[0], w.shape[2] * 2), cells).reshape(w.shape)

    def level_sum(fw, k):
        """Step k's weighted sum of its values fw, (cells, 2 ends, nodes).
        The reshape copies the columns of a step that shared its call of f
        into a contiguous array, so the product has the bits of a call of f
        on this step alone."""
        g = _TS_LEVELS[k][1]
        return fw.reshape(fw.shape[0], g.size) @ g

    inside_lo, inside_hi = np.nextafter(lo, hi), np.nextafter(hi, lo)
    if (inside_lo >= hi).any():
        raise ValueError(f"the cell {cell(np.argmax(inside_lo >= hi))} is too narrow "
                         f"to integrate over: no double lies strictly inside it")
    width, ends = hi - lo, np.array((lo, hi)).T[:, :, None]
    # the half-spacings at the lower and the upper ends, in cell widths
    unreached = np.array((inside_lo - lo, hi - inside_hi)) / (2.0 * width)
    fw = values(slice(None), _TS_FIRST_NODES)
    n = _TS_LEVELS[0][0].shape[1]
    parts = (fw[:, :, :n], fw[:, :, n:])   # the values of the steps that this call of f served
    mean, outer = level_sum(parts[0], 0), fw[:, :, n - 1].T
    cells = slice(None)   # the cells still going
    for k in range(1, len(_TS_LEVELS)):
        if k > 1:
            parts = (values(cells, _TS_LEVELS[k][0]),)
        m = level_sum(parts[-1], k) + mean[cells] / 2.0
        if not np.isfinite(m).all():   # weights > 0: a value not finite makes its sum one too
            for part in parts:
                finite = np.isfinite(part).all(axis=(1, 2))
                if not finite.all():
                    raise ValueError(f"the quantile has no finite mean on cell "
                                     f"{cell(np.arange(lo.size)[cells][np.argmin(finite)])}")
        err = np.abs(m - mean[cells])
        mean[cells] = m
        err += np.add.reduce(unreached[:, cells] * np.abs(outer[:, cells] - m), axis=0)
        going = err > tol * np.maximum(1.0, np.abs(m))
        if not going.any():
            return mean
        cells, tol = np.arange(lo.size)[cells][going], np.broadcast_to(tol, going.shape)[going]
    raise RuntimeError(f"quantile quadrature failed on cell {cell(cells[0])}: estimated "
                       f"error {err[going][0]:.1e} in the mean at step 1/128")


class QuantileLaw:
    """Adapter for an arbitrary quantile callable, whose cell integrals go
    through ``_cells_quad``: each cell mean to an estimated error of ``tol``
    * max(1, |mean|), and each ``cell_sq_moment`` integral to ``tol`` *
    max(1, |m|), m the mean of its integrand over the cell.  A cell's share
    of Var(Z) is p (z - m)^2, m the mass-weighted mean of all the cells
    given; unlike the mean square less the squared mean, it does not cancel
    when m is large.  ``adjust_generic``, the only caller of ``cell_means``,
    passes one distribution: one partition of (0, 1)."""

    def __init__(self, quantile_fn: Callable[[float], float], tol: float = 1e-12):
        self._q = quantile_fn
        self._tol = tol

    def _values(self, w: np.ndarray) -> np.ndarray:
        """Q at the nodes w, mapped over them one float at a time when the
        callable raises TypeError on an array or returns another shape."""
        try:
            q = np.asarray(self._q(w), dtype=float)
        except TypeError:
            q = None
        if q is None or q.shape != w.shape:
            q = np.frompyfunc(self._q, 1, 1)(w).astype(float)
        return q

    def cell_means(self, cells: Cells) -> tuple[np.ndarray, np.ndarray]:
        z = _cells_quad(lambda w, _: self._values(w), cells.lo, cells.hi, self._tol)
        return z, cells.p * (z - (cells.p * z).sum()) ** 2

    def cell_sq_moment(self, z: np.ndarray, cells: Cells) -> np.ndarray:
        live = cells.hi > cells.lo
        z, lo, hi = z[live], cells.lo[live], cells.hi[live]
        out = np.zeros(live.shape)
        out[live] = (hi - lo) * _cells_quad(lambda w, i: (z[i, None] - self._values(w)) ** 2,
                                            lo, hi, self._tol / (hi - lo))
        return out
