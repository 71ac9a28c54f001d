"""Reference computations made apart from pcomb.

Everything here starts from ``scipy.stats`` and the paper's definitions, so
the benchmark's output checks compare the program against numbers it did
not compute itself:

* a null model's support and pmf, and the sided p-value of every outcome;
* the adjusted value of a p-value cell, E[T(U) | U in cell], by adaptive
  quadrature of the method's transform T on the probability scale;
* the global p-value as the tail of a Gamma (Fisher, Pearson) or Normal
  (George, Stouffer, Edgington) law fitted to the first two moments of the
  adjusted sum;
* the exact tail of a sum of geometric trials, which is the uniformly most
  powerful test of the geometric scenario;
* the gene-level association table printed in the paper.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special, stats

#: Unbounded count models are cut at the first outcome whose upper tail is
#: below this mass, the tail folded into that outcome; pcomb documents the
#: same rule, so the reference describes the same finite model.
TAIL_EPS = 1e-14
#: Two outcomes whose pmf agree within this relative tolerance are a tie in
#: the two-sided p-value.  Symmetric designs give ties that differ in the
#: last bits only; 1e-9 is far above rounding and far below any real gap.
TIE_RTOL = 1e-9

#: Per-term transform T(p), the rejecting tail of the sum, and E[T(U)].
#: T is given twice: as a function of w on (0, 1/2] and of v = 1 - w on
#: (0, 1/2], so cells next to 1 are integrated without rounding 1 - w.
TRANSFORMS = {
    "fisher": ((lambda w: -2.0 * math.log(w), lambda v: -2.0 * math.log1p(-v)),
               "upper", 2.0),
    "pearson": ((lambda w: -2.0 * math.log1p(-w), lambda v: -2.0 * math.log(v)),
                "lower", 2.0),
    "george": ((lambda w: math.log(w) - math.log1p(-w),
                lambda v: math.log1p(-v) - math.log(v)), "lower", 0.0),
    "stouffer": ((lambda w: float(special.ndtri(w)), lambda v: -float(special.ndtri(v))),
                 "lower", 0.0),
    "edgington": ((lambda w: w, lambda v: 1.0 - v), "lower", 0.5),
}
#: Var[T(U)] for a uniform U: chi-square(2), logistic, normal, uniform
CONTINUOUS_VARIANCE = {"fisher": 4.0, "pearson": 4.0, "george": math.pi ** 2 / 3.0,
                       "stouffer": 1.0, "edgington": 1.0 / 12.0}

#: Gene-level association table of the paper: (gene, side) -> method -> (S, p)
PAPER_GENE_TABLE = {
    ("gene1", "two"): {"fisher": (19.00, 0.0370), "pearson": (1.77, 0.0003),
                       "edgington": (0.8, 0.0030), "stouffer": (-5.11, 0.0075),
                       "george": (-8.61, 0.0111)},
    ("gene1", "right"): {"fisher": (25.93, 0.0034), "pearson": (0.84, 0.0001),
                         "edgington": (0.4, 0.0005), "stouffer": (-7.16, 0.0006),
                         "george": (-12.54, 0.0009)},
    ("gene1", "left"): {"fisher": (0.84, 0.9999), "pearson": (25.93, 0.9966),
                        "edgington": (4.6, 0.9995), "stouffer": (7.16, 0.9994),
                        "george": (12.54, 0.9991)},
    ("gene2", "two"): {"fisher": (22.26, 0.3232), "pearson": (13.96, 0.1079),
                       "edgington": (4.05, 0.1347), "stouffer": (-2.57, 0.1899),
                       "george": (-4.15, 0.2145)},
    ("gene2", "right"): {"fisher": (31.20, 0.0496), "pearson": (9.72, 0.0244),
                         "edgington": (3.08, 0.0160), "stouffer": (-6.23, 0.0227),
                         "george": (-10.74, 0.0284)},
    ("gene2", "left"): {"fisher": (9.72, 0.9756), "pearson": (31.20, 0.9504),
                        "edgington": (6.92, 0.9840), "stouffer": (6.23, 0.9773),
                        "george": (10.74, 0.9716)},
}


def frozen_law(family: str, params: dict):
    """The scipy law of a statistic family and the shift of its support."""
    if family == "binomial":
        return stats.binom(params["trials"], params["prob"]), 0
    if family == "poisson":
        return stats.poisson(params["rate"]), 0
    if family == "negative-binomial":
        # pcomb counts trials up to the r-th success; scipy counts failures
        return stats.nbinom(params["successes"], params["prob"]), params["successes"]
    if family == "hypergeometric":
        return stats.hypergeom(params["population"], params["successes"], params["draws"]), 0
    if family == "noncentral-hypergeometric":
        return stats.nchypergeom_fisher(params["population"], params["successes"],
                                        params["draws"], params["odds"]), 0
    raise ValueError(f"no reference law for family {family!r}")


def support_pmf(family: str, params: dict) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes and masses of the model, the upper tail of an unbounded law
    folded into its last kept outcome, zero-mass outcomes dropped."""
    law, shift = frozen_law(family, params)
    lo, hi = (int(v) if math.isfinite(v) else v for v in law.support())
    if math.isinf(hi):
        hi = max(lo, int(law.isf(TAIL_EPS)))
        while law.sf(hi) >= TAIL_EPS:
            hi += 1
        while hi > lo and law.sf(hi - 1) < TAIL_EPS:
            hi -= 1
    ks = np.arange(lo, hi + 1)
    pmf = law.pmf(ks)
    if hi > lo:
        pmf[-1] = law.sf(hi - 1)
    keep = pmf > 0.0
    return ks[keep] + shift, pmf[keep]


def outcome_pvalues(pmf: np.ndarray, side: str) -> np.ndarray:
    """Sided p-value of every outcome, from its definition."""
    if side == "left":          # P(X <= x)
        p = np.array([pmf[:i + 1].sum() for i in range(pmf.size)])
    elif side == "right":       # P(X >= x)
        p = np.array([pmf[i:].sum() for i in range(pmf.size)])
    elif side == "two":         # P(f(X) <= f(x)), ties within TIE_RTOL
        p = np.array([pmf[pmf <= f * (1.0 + TIE_RTOL)].sum() for f in pmf])
    else:
        raise ValueError(f"unknown side {side!r}")
    return np.minimum(p, 1.0)


def atoms(pmf: np.ndarray, side: str) -> np.ndarray:
    """Distinct p-values in increasing order; the largest is pinned to 1."""
    a = np.unique(outcome_pvalues(pmf, side))
    a[-1] = 1.0
    return a


def _quad(fn, a: float, b: float) -> float:
    if b <= a:
        return 0.0
    return integrate.quad(fn, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]


def cell_mean(method: str, lo: float, hi: float) -> float:
    """E[T(U) | lo < U < hi] by adaptive quadrature, the part of the cell
    above 1/2 integrated in v = 1 - w."""
    of_w, of_v = TRANSFORMS[method][0]
    val = _quad(of_w, lo, min(hi, 0.5)) + _quad(of_v, 1.0 - hi, min(1.0 - lo, 0.5))
    return val / (hi - lo)


def adjusted(method: str, atom_seq: np.ndarray) -> tuple[np.ndarray, float]:
    """Adjusted value of every atom and the per-test variance."""
    lower = np.concatenate(([0.0], atom_seq[:-1]))
    z = np.array([cell_mean(method, a, b) for a, b in zip(lower, atom_seq)])
    mass = atom_seq - lower
    mean = float(np.sum(mass * z))
    return z, float(np.sum(mass * z * z) - mean * mean)


def surrogate_tail(method: str, statistic: float, variances) -> float:
    """Global p-value: the rejecting tail of the two-moment surrogate."""
    _, tail, per_term_mean = TRANSFORMS[method]
    n = len(variances)
    mean, var = n * per_term_mean, float(np.sum(variances))
    if method in ("fisher", "pearson"):
        law = stats.gamma(a=mean * mean / var, scale=var / mean)
    else:
        law = stats.norm(loc=mean, scale=math.sqrt(var))
    return float(law.sf(statistic) if tail == "upper" else law.cdf(statistic))


def combination(method: str, tests) -> tuple[float, float]:
    """(S, global p) of one gene: ``tests`` holds (family, params, side, x)."""
    statistic, variances = 0.0, []
    for family, params, side, x in tests:
        support, pmf = support_pmf(family, params)
        pvals = outcome_pvalues(pmf, side)
        atom_seq = atoms(pmf, side)
        observed = min(float(pvals[int(np.flatnonzero(support == x)[0])]), 1.0)
        z, nu = adjusted(method, atom_seq)
        statistic += float(z[int(np.searchsorted(atom_seq, observed))])
        variances.append(nu)
    return statistic, surrogate_tail(method, statistic, variances)


def geometric_sum_threshold(n: int, p0: float, alpha: float) -> int:
    """Smallest t with P(S >= t) <= alpha for S the sum of n geometric(p0)
    trial counts; S - n is negative binomial (n, p0) in failures."""
    failures = np.arange(0, 100 * n + 1000)
    sf = stats.nbinom.sf(failures - 1, n, p0)       # P(S - n >= failures)
    return n + int(failures[np.argmax(sf <= alpha)])


def geometric_sum_power(n: int, p0: float, p1: float, alpha: float) -> float:
    """Rejection probability of the exact UMP test at success probability p1."""
    t = geometric_sum_threshold(n, p0, alpha)
    return float(stats.nbinom.sf(t - n - 1, n, p1))
