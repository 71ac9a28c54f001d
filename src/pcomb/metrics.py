"""Method-selection diagnostics: variance ratios and scaled Wasserstein
distances between adjusted statistics and their continuous laws.

All distances are order-2 Wasserstein by quantile coupling on the cells
an ``AdjustedStatistic`` carries: z_i is the mean of the transform over
cell i, and z runs monotone along the cells, so z_i is paired with the
same probability cell of any continuous law Q.  The squared distance is
the sum of the cell integrals int (z_i - Q(w))^2 dw, in closed form for
normal, gamma, uniform and logistic laws, which evaluate each cell edge
once since the cells tile (0, 1) end to end.  Distances are reported
scaled by the standard deviation of the continuous transform Y (not of
the surrogate), following the variance-ratio convention Var(Z)/Var(Y).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import _laws
from ._inputs import _instance, _require, sequence
from .adjust import METHODS, AdjustedStatistic, adjust, method_spec
from .combine import surrogate
from .distributions import DiscretePValueDist, _dist_entries


def _root(x: float) -> float:
    # cell integrals are nonnegative up to roundoff
    return math.sqrt(max(float(x), 0.0))


def w2_discrete_continuous(adjusted: AdjustedStatistic, continuous_quantile) -> float:
    """W2 between an adjusted statistic and a continuous law, coupled on
    the adjusted statistic's own cells.

    ``continuous_quantile`` is either one of the law objects used in this
    package or a bare quantile callable, whose cell integrals go through
    tanh-sinh quadrature, each to an estimated error of 1e-12 * max(1, m),
    m the mean of the integrand (z_i - Q(w))^2 over the cell.
    """
    _instance(adjusted, AdjustedStatistic, "adjusted", "an adjusted statistic")
    law = continuous_quantile
    if not hasattr(law, "cell_sq_moment"):
        law = _laws.QuantileLaw(continuous_quantile)
    return _root(np.sum(law.cell_sq_moment(adjusted.z, adjusted.cells.lo, adjusted.cells.hi)))


def _surrogate_cells(method: str, adjusted: AdjustedStatistic) -> np.ndarray:
    """Coupling cells of an adjusted statistic against its per-term
    surrogate, which ``surrogate`` refuses for a distribution of zero
    variance: one with one atom, or with all its mass on one atom."""
    law = surrogate(method, [adjusted.variance]).law
    return law.cell_sq_moment(adjusted.z, adjusted.cells.lo, adjusted.cells.hi)


def _scaled(method: str, x: float) -> float:
    """sqrt(x) / SD(Y): a squared distance on the scale of the transform."""
    return _root(x) / method_spec(method).law.sd


def scaled_w2(method: str, dist: DiscretePValueDist) -> float:
    """W2(Z, per-term surrogate) / SD(Y)."""
    return _scaled(method, np.sum(_surrogate_cells(method, adjust(method, dist))))


def _dist_list(dists, name: str) -> list[DiscretePValueDist]:
    """One distribution or a list of them, as a nonempty list."""
    dists = ([dists] if isinstance(dists, DiscretePValueDist)
             else _dist_entries(sequence(dists, name, "p-value distributions"), name))
    _require(dists, "need at least one distribution")
    return dists


def variance_ratio(method: str, dist) -> float:
    """Var(Z)/Var(Y); for a sequence of distributions, the average ratio."""
    variances = [adjust(method, d).variance for d in _dist_list(dist, "dist")]
    return float(np.mean(variances)) / method_spec(method).law.variance


def w2_lower_bound(method: str, dist: DiscretePValueDist) -> float:
    """Largest single-cell contribution to W2(Z, surrogate), scaled by SD(Y).

    A lower bound for ``scaled_w2`` since the squared distance is the sum
    of the nonnegative cell integrals."""
    return _scaled(method, np.max(_surrogate_cells(method, adjust(method, dist))))


@dataclass(frozen=True)
class MethodMetrics:
    method: str
    variance: float
    ratio: float
    scaled_w2: float
    w2_to_y: float
    lower_bound: float


@dataclass(frozen=True)
class MetricsReport:
    """Per-method diagnostics plus two recommendations: the method with
    the highest variance ratio and the one with the smallest scaled
    distance (ties broken by the fixed method order)."""

    rows: tuple[MethodMetrics, ...]
    recommended_by_ratio: str
    recommended_by_distance: str

    def row(self, method: str) -> MethodMetrics:
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(method)

    def to_json(self) -> dict:
        return {
            "methods": [vars(r) for r in self.rows],
            "recommended_by_ratio": self.recommended_by_ratio,
            "recommended_by_distance": self.recommended_by_distance,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("method,variance,ratio,scaled_w2,w2_to_Y,lower_bound\n")
        for r in self.rows:
            buf.write(f"{r.method},{r.variance:.6f},{r.ratio:.6f},"
                      f"{r.scaled_w2:.6f},{r.w2_to_y:.6f},{r.lower_bound:.6f}\n")
        return buf.getvalue()


def rank_methods(dists) -> MetricsReport:
    """Full diagnostic table over all methods for one distribution or,
    for a sequence, the across-distribution averages of each column."""
    dists = _dist_list(dists, "dists")
    rows = []
    for method in METHODS:
        spec = method_spec(method)
        columns = []
        for d in dists:
            adjusted = adjust(method, d)
            cells = _surrogate_cells(method, adjusted)
            columns.append((adjusted.variance, _scaled(method, np.sum(cells)),
                            w2_discrete_continuous(adjusted, spec.law),
                            _scaled(method, np.max(cells))))
        variance, sw2, w2y, lb = (float(np.mean(c)) for c in zip(*columns))
        rows.append(MethodMetrics(method=method, variance=variance,
                                  ratio=variance / spec.law.variance, scaled_w2=sw2,
                                  w2_to_y=w2y, lower_bound=lb))

    by_ratio = max(rows, key=lambda r: r.ratio).ratio
    by_dist = min(rows, key=lambda r: r.scaled_w2).scaled_w2
    rec_ratio = next(r.method for r in rows if r.ratio == by_ratio)
    rec_dist = next(r.method for r in rows if r.scaled_w2 == by_dist)
    return MetricsReport(rows=tuple(rows), recommended_by_ratio=rec_ratio,
                         recommended_by_distance=rec_dist)
