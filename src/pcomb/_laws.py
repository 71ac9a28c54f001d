"""Continuous reference laws with closed-form probability-cell integrals.

The quantile-coupling machinery repeatedly needs, for a law with quantile
function Q and probability cells (c0, c1),

    cell_sq_moment(z, c0, c1) = integral over (c0, c1) of (z - Q(w))^2 dw,

evaluated elementwise over arrays of z, c0 and c1.  Each law here
evaluates that integral through exact partial moments on (Q(c0), Q(c1))
instead of quadrature, so cells in the far tails lose no accuracy; cells
of zero width are exactly zero.  ``QuantileLaw`` is the fallback for
arbitrary quantile callables and integrates on the probability scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _cell_arrays(z, c0, c1) -> list[np.ndarray]:
    return np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (z, c0, c1)))


class _ClosedFormCells:
    """``cell_sq_moment`` from a law's ``_cells`` formula, with zero-width
    cells pinned to exactly zero."""

    def cell_sq_moment(self, z, c0, c1) -> np.ndarray:
        z, c0, c1 = _cell_arrays(z, c0, c1)
        return np.where(c1 > c0, self._cells(z, c0, c1), 0.0)


def _norm_pdf_terms(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi(t) and t * phi(t), both with the zero limit at +-inf."""
    phi = np.exp(-0.5 * t * t) / _SQRT_2PI
    return phi, np.where(np.isfinite(t), t, 0.0) * phi


@dataclass(frozen=True)
class NormalLaw(_ClosedFormCells):
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

    def _cells(self, z, c0, c1):
        # Standardized bounds (ndtri is -inf/+inf at 0/1); c0/c1 are exact
        # probabilities, so the mass term is c1 - c0 with no cdf round trip.
        phi0, tphi0 = _norm_pdf_terms(special.ndtri(c0))
        phi1, tphi1 = _norm_pdf_terms(special.ndtri(c1))
        a = z - self.mean
        dphi = phi0 - phi1
        mass = c1 - c0
        second = mass + tphi0 - tphi1
        return a * a * mass - 2.0 * a * self.sd * dphi + self.sd ** 2 * second


@dataclass(frozen=True)
class GammaLaw(_ClosedFormCells):
    shape: float
    scale: float
    family = "gamma"

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale ** 2

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def quantile(self, w):
        return self.scale * special.gammaincinv(self.shape, w)

    def _standardized(self, y) -> np.ndarray:
        # the support starts at zero: cdf 0 and sf 1 at or below it
        return np.maximum(np.asarray(y, dtype=float), 0.0) / self.scale

    def cdf(self, y):
        return special.gammainc(self.shape, self._standardized(y))

    def sf(self, y):
        return special.gammaincc(self.shape, self._standardized(y))

    def _cells(self, z, c0, c1):
        # Regularized lower incomplete gamma at shape shifted by m turns
        # partial moments of order m into plain cdf differences; the
        # quantile is 0/inf at 0/1, where gammainc is 0/1.
        k, s = self.shape, self.scale
        y0, y1 = self.quantile(c0) / s, self.quantile(c1) / s
        d1 = special.gammainc(k + 1.0, y1) - special.gammainc(k + 1.0, y0)
        d2 = special.gammainc(k + 2.0, y1) - special.gammainc(k + 2.0, y0)
        return z * z * (c1 - c0) - 2.0 * z * k * s * d1 + k * (k + 1.0) * s * s * d2


@dataclass(frozen=True)
class UniformLaw(_ClosedFormCells):
    """Uniform(0, 1); the quantile is the identity."""

    mean: float = 0.5
    variance: float = 1.0 / 12.0

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def quantile(self, w):
        return np.asarray(w, dtype=float)

    def cdf(self, y):
        return np.clip(np.asarray(y, dtype=float), 0.0, 1.0)

    def _cells(self, z, c0, c1):
        return ((z - c0) ** 3 - (z - c1) ** 3) / 3.0


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
class LogisticLaw(_ClosedFormCells):
    """Standard logistic; mean 0, variance pi^2/3."""

    mean: float = 0.0

    @property
    def variance(self) -> float:
        return math.pi ** 2 / 3.0

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def quantile(self, w):
        w = np.asarray(w, dtype=float)
        return np.log(w) - np.log1p(-w)

    def cdf(self, y):
        return special.expit(np.asarray(y, dtype=float))

    def _cells(self, z, c0, c1):
        a0, b0 = _logit_antiderivs(c0)
        a1, b1 = _logit_antiderivs(c1)
        return z * z * (c1 - c0) - 2.0 * z * (a1 - a0) + (b1 - b0)


class QuantileLaw:
    """Adapter for an arbitrary quantile callable; each cell goes through
    adaptive quadrature on the probability scale (absolute tol 1e-12)."""

    def __init__(self, quantile_fn: Callable[[float], float], tol: float = 1e-12):
        self._q = quantile_fn
        self._tol = tol

    def quantile(self, w):
        return self._q(w)

    def cell_sq_moment(self, z, c0, c1) -> np.ndarray:
        from scipy.integrate import quad  # here, so importing pcomb does not load it

        z, c0, c1 = _cell_arrays(z, c0, c1)
        out = np.zeros(z.shape)
        for i in np.ndindex(z.shape):
            zi, lo, hi = z[i], c0[i], c1[i]
            if hi <= lo:
                continue
            val, err = quad(lambda w: (zi - self._q(w)) ** 2, lo, hi,
                            epsabs=self._tol, epsrel=1e-12, limit=500)
            if err > max(self._tol * 100.0, 1e-9 * max(abs(val), 1.0)):
                raise RuntimeError(
                    f"cell quadrature did not converge on ({lo}, {hi}): "
                    f"estimated error {err:.3e}")
            out[i] = val
        return out
