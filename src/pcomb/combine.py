"""Moment-matched surrogate nulls and global p-values for sum statistics.

The combined statistic is the sum of adjusted per-test values.  Its null
is approximated by a parametric law matched to the first two moments:
a Gamma for the chi-square based transforms (mean 2n preserved by shape
4n/nu, scale nu/2) and a Normal for the others.  Independent but
non-identically distributed tests use the same families with the variance
replaced by the sum of the per-test variances.

``combine`` and ``combine_observations`` adjust all n tests at once and
build no per-test ``AdjustedStatistic``; S is the left-to-right sum of the
observed cells' adjusted values.  A test's variance depends only on its
distribution and the method, so a combination keeps it on the
distribution (``DiscretePValueDist._variances``).  A call whose every test
keeps its variance evaluates the law on the n observed cells only.  They
do not tile, so each takes its edge terms at both ends; a cell's z
depends on its two edge doubles alone, so it has the bits it has in its
partition.  Any other call takes the full pass and keeps every test's
variance: the law evaluates its antiderivative once per edge of the cells
of every distribution laid end to end, and one zero-led ``reduceat``
(``distributions._run_sums``) gives every variance with the bits of its
shares summed alone.  What does not depend on the method, each test's
atom, its observed cell and, for a full pass, the cells laid end to end
and the layout of their variance runs, is built once per gene side, the
first time a call needs it: ``_layout`` keeps it for the last
(distributions, values, lookup) it saw, so the five methods of one gene
side share it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import _laws
from ._inputs import _refuse, _require, integers, number, numbers, probability, sequence
from .adjust import ORIENT_ONE_MINUS_P, ORIENT_P, MethodSpec, method_spec
from .distributions import DiscretePValueDist, _dist_entries, _laid_sums, _run_layout

#: relative tolerance for matching a supplied p-value to an atom
ATOM_MATCH_RTOL = 1e-9


@dataclass(frozen=True)
class SurrogateDist:
    """Parametric null for the sum of n adjusted terms: a Gamma or Normal
    ``law``, which holds its moments, cdf and sf, and the rejection
    ``tail`` of the method that produced it."""

    law: _laws.GammaLaw | _laws.NormalLaw
    n: int
    tail: str

    def p_value(self, s: float) -> float:
        """Global p-value of an observed sum under the rejection tail."""
        s = number(s, "s", finite=False)
        return float(self.law.sf(s) if self.tail == "upper" else self.law.cdf(s))

    def quantile(self, p: float) -> float:
        return float(self.law.quantile(probability(p, "p")))

    def to_json(self) -> dict:
        return {"family": self.law.family, "n": self.n, "tail": self.tail,
                **asdict(self.law)}


def surrogate(method: str, variances: Sequence[float]) -> SurrogateDist:
    """Surrogate null of the n-term sum from the per-test variances.

    The i.i.d. case is the constant-sequence special case; in general the
    surrogate mean is n E[Y] and the variance is the sum of the inputs.
    Gamma-distributed transforms get a Gamma surrogate, the others a Normal.
    """
    spec = method_spec(method)
    nus = numbers(variances, "variances", finite=False)
    _require(nus.size, "variances must be a nonempty sequence")
    return _surrogate(spec, nus)


def _surrogate(spec: MethodSpec, nus: np.ndarray) -> SurrogateDist:
    """``surrogate`` of a float64 array of one or more variances, which pcomb
    built itself or read through the input policy; only their values are checked."""
    valid = (nus > 0.0) & (nus < math.inf)   # NaN fails both
    if not valid.all():
        bad = float(nus[~valid][0])
        hint = (" (a p-value distribution with one atom, or with all its mass on one atom, "
                "has zero variance)" if bad == 0.0 else "")
        raise _refuse("every per-test variance", "positive and finite", f"{bad!r}{hint}", str)
    n = int(nus.size)
    nu_bar = float(np.add.reduce(nus)) / n   # the bits of nus.mean(), without its wrapper
    mu = spec.law.mean
    if isinstance(spec.law, _laws.GammaLaw):
        law = _laws.GammaLaw(shape=mu * mu * n / nu_bar, scale=nu_bar / mu)
    else:
        law = _laws.NormalLaw(mean=n * mu, sd=math.sqrt(n * nu_bar))
    return SurrogateDist(law=law, n=n, tail=spec.tail)


@dataclass(frozen=True, eq=False)
class CombinedResult:
    method: str
    n: int
    statistic: float
    surrogate: SurrogateDist
    global_p: float
    atom_indices: tuple[int, ...]

    def to_json(self) -> dict:
        return {"method": self.method, "n": self.n, "S": self.statistic,
                "p": self.global_p, "surrogate": self.surrogate.to_json()}


def _match_atom(dist: DiscretePValueDist, value: float) -> int:
    atoms = dist.atoms
    i = int(np.argmin(np.abs(atoms - value)))
    # NaN fails the first comparison, and an infinite value the second
    if not abs(atoms[i] - value) <= ATOM_MATCH_RTOL * max(abs(value), atoms[i]) < math.inf:
        raise ValueError(f"p-value {value!r} matches no atom of the distribution")
    return i


class _Layout:
    """The part of a combination no method changes, each piece built the
    first time a call needs it: the tests' atom ``indices``; their
    ``observed`` cells in each orientation; and for a ``full`` pass, each
    test's cell among the cells of every distribution laid end to end,
    those cells in each orientation and the layout of their variance runs.
    Its arrays are read-only."""

    def __init__(self, dists: tuple, indices: tuple):
        self.dists, self.indices = dists, indices

    @functools.cached_property
    def observed(self) -> dict:
        picks = list(zip(self.dists, self.indices))
        hi = np.array([d.atoms.item(j) for d, j in picks])
        lo = np.array([d.atoms.item(j - 1) if j else 0.0 for d, j in picks])
        cells = _laws.Cells.of_edges(lo, hi)
        return {ORIENT_P: cells, ORIENT_ONE_MINUS_P: cells.reflected()}

    @functools.cached_property
    def full(self) -> tuple:
        atoms = [d.atoms for d in self.dists]
        sizes = np.array([a.size for a in atoms])
        starts = sizes.cumsum() - sizes
        cells = _laws.Cells.of_atoms(np.concatenate(atoms), starts)
        picked = np.add(starts, self.indices)
        runs = _run_layout(cells.p.size, starts)
        for a in (picked, *runs):
            a.setflags(write=False)
        return picked, {ORIENT_P: cells, ORIENT_ONE_MINUS_P: cells.reflected()}, runs


@functools.lru_cache(maxsize=1)
def _layout(dists: tuple, values: tuple, atom) -> _Layout:
    """The ``_Layout`` of ``dists`` at ``values``.  One entry: it holds the
    last call's distributions (by identity) and arrays until a call on
    other inputs.  The lookup ``atom`` is part of the key, since an
    observation 1 and a p-value 1.0 are equal keys.  A lookup that raises
    stores nothing."""
    return _Layout(dists, tuple(atom(d, v) for v, d in zip(values, dists)))


def _combined(method: str, values: list, dists: Sequence[DiscretePValueDist], noun: str,
              atom) -> CombinedResult:
    """Combination of the tests whose atom indices ``atom(dist, value)`` finds."""
    dists = sequence(dists, "dists", "p-value distributions")
    if len(values) != len(dists):
        raise ValueError(f"got {len(values)} {noun} for {len(dists)} distributions")
    if len(dists) == 0:
        raise ValueError("nothing to combine")
    dists = tuple(_dist_entries(dists, "dists"))
    spec = method_spec(method)
    layout = _layout(dists, tuple(values), atom)
    name, nus = spec.name, None
    if name in dists[0]._variances:   # a cold call looks no further than its first test
        try:
            nus = np.array([d._variances[name] for d in dists])
        except KeyError:
            pass
    if nus is None:   # the full pass, which keeps every test's variance
        picked, oriented, runs = layout.full
        z, shares = spec.law.cell_means(oriented[spec.orientation])
        z, nus = z[picked], _laid_sums(shares, *runs)
        for d, nu in zip(dists, nus.tolist()):
            d._variances[name] = nu
    else:
        z = spec.law.cell_means(layout.observed[spec.orientation])[0]
    statistic = 0.0
    for v in z.tolist():
        statistic += v   # plain left to right: sum() compensates on 3.12+
    surr = _surrogate(spec, nus)
    return CombinedResult(method=method, n=len(dists), statistic=statistic,
                          surrogate=surr, global_p=surr.p_value(statistic),
                          atom_indices=layout.indices)


def combine(method: str, observed_pvalues: Sequence[float],
            dists: Sequence[DiscretePValueDist]) -> CombinedResult:
    """Combined statistic and global p-value from observed p-value atoms.

    Each observed value must equal one atom of its distribution within
    ``ATOM_MATCH_RTOL`` relative; independence across tests is assumed.
    """
    pvalues = numbers(observed_pvalues, "observed_pvalues", finite=False).tolist()
    return _combined(method, pvalues, dists, "p-values", _match_atom)


def combine_observations(method: str, observations: Sequence[int],
                         dists: Sequence[DiscretePValueDist]) -> CombinedResult:
    """Combine raw statistic observations against model-backed
    distributions; avoids the atom-matching tolerance entirely."""
    xs = integers(observations, "observations")
    return _combined(method, xs, dists, "observations", DiscretePValueDist._atom_index)
