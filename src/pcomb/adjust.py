"""Wasserstein-minimal adjustment of transformed discrete p-values.

For a combination method with transform quantile G^-1, the adjusted
statistic replaces the transformed atom at F_i by the conditional mean of
G^-1(U) (or G^-1(1-U)) over the probability cell (F_{i-1}, F_i).  That is
one operation for every method: build the cells of the distribution,
reflect them to (1 - F_i, 1 - F_{i-1}) when the transform applies to
1 - P, and ask the continuous law of the transform for its cell means.
The five classical methods differ only in their ``MethodSpec``; their
laws (``pcomb._laws``) hold the closed forms, and ``adjust_generic``
wraps an arbitrary quantile function in a quadrature law.

``adjust`` does this for one distribution; ``pcomb.combine`` does it for
the n tests of a combination at once, their cells laid end to end, in one
call into the law per method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._inputs import _instance, number
from ._laws import Cells, GammaLaw, LogisticLaw, NormalLaw, QuantileLaw, UniformLaw
from .distributions import DiscretePValueDist

#: Fixed method order; also the deterministic tie-break order in reports.
METHODS = ("fisher", "pearson", "george", "stouffer", "edgington")

ORIENT_P = "p"                 # transform applied to P
ORIENT_ONE_MINUS_P = "1-p"     # transform applied to 1 - P


@dataclass(frozen=True)
class MethodSpec:
    """Orientation, exact continuous law of the per-term transform
    Y = G^-1(U), and rejection tail."""

    name: str
    orientation: str
    law: object        # one of the ``_laws`` laws
    tail: str          # which tail of the combined statistic rejects


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
    except (KeyError, TypeError):   # TypeError: an unhashable method
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}") from None


@dataclass(frozen=True, eq=False)
class AdjustedStatistic:
    """Adjusted per-atom values z_i with their probability cells and moments.

    ``z[i]`` is the adjusted value taken when the p-value equals
    ``atoms[i]``: the mean of the transform's quantile over ``cells[i]``.
    The cells are (F_{i-1}, F_i), reflected to (1 - F_i, 1 - F_{i-1}) for
    "1-p" methods, so z[i] and cells[i] are already paired in
    quantile-coupling order.  ``variance`` is the per-term variance used
    to build the surrogate null.  A single-atom source is allowed here
    (variance 0, ``is_degenerate``); ``surrogate`` refuses it.
    """

    method: str
    z: np.ndarray
    atoms: np.ndarray
    cells: Cells
    mean: float
    variance: float

    @property
    def masses(self) -> np.ndarray:
        return self.cells.p

    @property
    def is_degenerate(self) -> bool:
        return self.z.size < 2

    def to_json(self) -> dict:
        return {"method": self.method, "z": self.z.tolist(),
                "F": self.atoms.tolist(), "mean": self.mean,
                "variance": self.variance}


def _adjusted(name: str, law, orientation: str,
              dist: DiscretePValueDist) -> AdjustedStatistic:
    _instance(dist, DiscretePValueDist, "dist", "a p-value distribution")
    # one partition, its shares summed as one run (the bits
    # ``distributions._run_sums`` gives a run in a combination)
    cells = Cells.of_atoms(dist.atoms, 0)
    if orientation == ORIENT_ONE_MINUS_P:
        cells = cells.reflected()
    z, shares = law.cell_means(cells)
    for a in (z, *cells):
        a.setflags(write=False)
    return AdjustedStatistic(method=name, z=z, atoms=dist.atoms, cells=cells,
                             mean=float((cells.p * z).sum()), variance=float(shares.sum()))


def adjust(method: str, dist: DiscretePValueDist) -> AdjustedStatistic:
    """Closed-form adjusted statistic and its variance for one method."""
    spec = method_spec(method)
    return _adjusted(method, spec.law, spec.orientation, dist)


def adjust_generic(quantile_fn: Callable[[float], float], orientation: str,
                   dist: DiscretePValueDist, tol: float = 1e-10) -> AdjustedStatistic:
    """Quadrature path of the adjustment for an arbitrary quantile function.

    ``quantile_fn`` must be strictly increasing on (0, 1) with a finite
    second moment (caller-asserted; non-monotone cell means raise, and so
    does a cell whose mean is not finite).  It is called on arrays of
    nodes, or one float at a time if it takes floats only.  All cells go
    through one tanh-sinh quadrature (``pcomb._laws``), and each cell mean
    z_i is refined until its estimated error is at most ``tol`` * max(1,
    |z_i|), a finite ``tol`` > 0.  One call of ``quantile_fn`` on all cells
    serves steps 1/16 and 1/32; the cells still short of ``tol`` then take
    one call together for step 1/64 and one for 1/128.  So a call whose
    cells all finish at step 1/32 calls ``quantile_fn`` once.  A cell that
    cannot get there raises RuntimeError: next to 1 the doubles leave a
    sliver no node can reach, so for -2 log(1 - w) at the default ``tol`` a
    top cell narrower than about 1e-6 fails.
    """
    if orientation not in (ORIENT_P, ORIENT_ONE_MINUS_P):
        raise ValueError(f"orientation must be {ORIENT_P!r} or {ORIENT_ONE_MINUS_P!r}")
    law = QuantileLaw(quantile_fn, number(tol, "tol", positive=True))
    adjusted = _adjusted("generic", law, orientation, dist)
    # cell means of a strictly increasing quantile must be strictly
    # monotone; the cells of "1-p" methods run from right to left
    c, z = adjusted.cells, adjusted.z
    steps = z[1:] - z[:-1]
    stalls = steps <= 0.0 if orientation == ORIENT_P else steps >= 0.0
    if stalls.any():
        i = int(np.argmax(stalls))
        a, b = (f"({float(c.lo[j])!r}, {float(c.hi[j])!r}) with mean {float(z[j])!r}"
                for j in ((i, i + 1) if orientation == ORIENT_P else (i + 1, i)))
        raise ValueError(f"the cell means of quantile_fn do not increase from cell {a} "
                         f"to cell {b}: either quantile_fn does not increase there or the "
                         f"cells are too narrow for doubles to separate their means")
    return adjusted
