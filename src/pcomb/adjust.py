"""Wasserstein-minimal adjustment of transformed discrete p-values.

For a combination method with transform quantile G^-1, the adjusted
statistic replaces the transformed atom at F_i by the conditional mean of
G^-1(U) (or G^-1(1-U)) over the probability cell (F_{i-1}, F_i).  Closed
forms exist for the five classical methods; ``adjust_generic`` integrates
an arbitrary quantile function cell by cell.

Boundary conventions used throughout: x log x -> 0 as x -> 0, the normal
kernel K(F) = phi(Phi^-1(F)) -> 0 at F in {0, 1}, and the entropy
h(F) = F log F + (1-F) log(1-F) -> 0 at both endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from ._laws import GammaLaw, LogisticLaw, NormalLaw, UniformLaw
from .distributions import DiscretePValueDist

#: Fixed method order; also the deterministic tie-break order in reports.
METHODS = ("fisher", "pearson", "george", "stouffer", "edgington")

ORIENT_P = "p"                 # transform applied to P
ORIENT_ONE_MINUS_P = "1-p"     # transform applied to 1 - P

MEAN_TOL = 1e-10


@dataclass(frozen=True)
class MethodSpec:
    """Orientation, exact continuous law of the per-term transform
    Y = G^-1(U), and rejection tail."""

    name: str
    orientation: str
    law: object        # one of the ``_laws`` laws
    tail: str          # which tail of the combined statistic rejects

    @property
    def mean(self) -> float:
        return self.law.mean

    @property
    def variance(self) -> float:
        return self.law.variance

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)


#: the Fisher and Pearson transforms are chi-square with 2 degrees of freedom
METHOD_SPECS = {
    "fisher": MethodSpec("fisher", ORIENT_ONE_MINUS_P, GammaLaw(1.0, 2.0), "upper"),
    "pearson": MethodSpec("pearson", ORIENT_P, GammaLaw(1.0, 2.0), "lower"),
    "george": MethodSpec("george", ORIENT_P, LogisticLaw(), "lower"),
    "stouffer": MethodSpec("stouffer", ORIENT_P, NormalLaw(0.0, 1.0), "lower"),
    "edgington": MethodSpec("edgington", ORIENT_P, UniformLaw(), "lower"),
}


def method_spec(method: str) -> MethodSpec:
    try:
        return METHOD_SPECS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}") from None


def continuous_moments(method: str) -> tuple[float, float]:
    """(mean, variance) of the per-term transform under continuity."""
    spec = method_spec(method)
    return spec.mean, spec.variance


@dataclass(frozen=True, eq=False)
class AdjustedStatistic:
    """Adjusted per-atom values z_i with their masses and moments.

    ``z[i]`` is the adjusted value taken when the p-value equals
    ``atoms[i]``; ``variance`` is the per-term variance used to build the
    surrogate null.  A single-atom source is allowed here (variance 0) and
    flagged via ``is_degenerate`` so downstream surrogates can reject it.
    """

    method: str
    z: np.ndarray
    atoms: np.ndarray
    masses: np.ndarray
    mean: float
    variance: float
    source: DiscretePValueDist | None = None

    @property
    def is_degenerate(self) -> bool:
        return self.z.size < 2

    def to_json(self) -> dict:
        return {"method": self.method, "z": self.z.tolist(),
                "F": self.atoms.tolist(), "mean": self.mean,
                "variance": self.variance}


def _xlogx(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def _normal_kernel(F: np.ndarray) -> np.ndarray:
    """K(F) = phi(Phi^-1(F)), zero at both endpoints."""
    out = np.zeros_like(F)
    interior = (F > 0.0) & (F < 1.0)
    q = special.ndtri(F[interior])
    out[interior] = np.exp(-0.5 * q * q) / math.sqrt(2.0 * math.pi)
    return out


def _cells(dist: DiscretePValueDist) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    upper = dist.atoms
    lower = np.concatenate(([0.0], upper[:-1]))
    return lower, upper, upper - lower


def adjust(method: str, dist: DiscretePValueDist) -> AdjustedStatistic:
    """Closed-form adjusted statistic and its variance for one method."""
    spec = method_spec(method)
    lo, hi, p = _cells(dist)

    if method in ("fisher", "pearson", "george"):
        a = _xlogx(hi) - _xlogx(lo)                    # d/dF of F log F cells
        b = _xlogx(1.0 - lo) - _xlogx(1.0 - hi)
        z_f = 2.0 - 2.0 * a / p
        z_p = 2.0 - 2.0 * b / p
        if method == "fisher":
            z, variance = z_f, 4.0 * np.sum(a * a / p)
        elif method == "pearson":
            z, variance = z_p, 4.0 * np.sum(b * b / p)
        else:
            # entropy-stable form: the cell increments of
            # h(F) = F log F + (1-F) log(1-F) avoid the odds ratio at F = 1
            z = (z_p - z_f) / 2.0
            dh = a - b
            variance = float(np.sum(dh * dh / p))
    elif method == "stouffer":
        K = _normal_kernel(np.concatenate(([0.0], hi)))
        z = (K[:-1] - K[1:]) / p
        variance = float(np.sum((K[1:] - K[:-1]) ** 2 / p))
    else:  # edgington
        z = (hi + lo) / 2.0
        variance = float(np.sum(hi * lo * p) / 4.0)

    mean = float(np.sum(p * z))
    return AdjustedStatistic(method=method, z=np.asarray(z, dtype=float),
                             atoms=dist.atoms, masses=p, mean=mean,
                             variance=float(variance), source=dist)


def _cell_average(quantile_fn: Callable[[float], float], lo: float, hi: float,
                  tol: float) -> float:
    from scipy.integrate import quad  # here, so importing pcomb does not load it

    val, err, info, *msg = quad(quantile_fn, lo, hi, epsabs=tol, epsrel=tol,
                                limit=500, full_output=True)
    if msg:
        raise RuntimeError(
            f"quantile quadrature failed on cell ({lo!r}, {hi!r}): {msg[0]}")
    return val / (hi - lo)


def adjust_generic(quantile_fn: Callable[[float], float], orientation: str,
                   dist: DiscretePValueDist, tol: float = 1e-10) -> AdjustedStatistic:
    """Quadrature path of the adjustment for an arbitrary quantile function.

    ``quantile_fn`` must be strictly increasing on (0, 1) with a finite
    second moment (caller-asserted; non-monotone samples seen during
    integration raise).  Each cell integral is computed to absolute
    tolerance ``tol``.
    """
    if orientation not in (ORIENT_P, ORIENT_ONE_MINUS_P):
        raise ValueError(f"orientation must be {ORIENT_P!r} or {ORIENT_ONE_MINUS_P!r}")
    lo, hi, p = _cells(dist)

    z = np.empty(p.size)
    for i in range(p.size):
        if orientation == ORIENT_P:
            z[i] = _cell_average(quantile_fn, lo[i], hi[i], tol)
        else:
            # integral of Q(1-w) over the cell equals the integral of Q
            # over the reflected cell
            z[i] = _cell_average(quantile_fn, 1.0 - hi[i], 1.0 - lo[i], tol)

    # cell averages of a strictly increasing quantile must be strictly
    # monotone; a violation means the supplied function is not a quantile
    diffs = np.diff(z) if orientation == ORIENT_P else -np.diff(z)
    if np.any(diffs <= 0.0):
        raise ValueError("quantile_fn is not strictly increasing on (0, 1)")

    mean = float(np.sum(p * z))
    variance = float(np.sum(p * z * z) - mean * mean)
    return AdjustedStatistic(method="generic", z=z, atoms=dist.atoms,
                             masses=p, mean=mean, variance=variance,
                             source=dist)
