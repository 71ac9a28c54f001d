"""Output checks of the benchmark.

Each check is a pure function that returns a list of failure messages, an
empty list when the output passes.  The tolerances are fixed here; the
README says where each comes from.
"""

from __future__ import annotations

import math

from reference import CONTINUOUS_VARIANCE, PAPER_GENE_TABLE

#: adjusted sum and global p-value against the quadrature recomputation
COMBINE_S_TOL = 1e-10           # absolute, scaled by max(1, |S|)
COMBINE_P_RTOL = 1e-9            # relative, plus COMBINE_P_ATOL absolute
COMBINE_P_ATOL = 1e-15
#: the paper prints S to two decimals and p to four
GENE_S_TOL = 0.01
GENE_P_TOL = 5e-4
#: Var(Y) = Var(Z) + W2(Z, Y)^2, and closed form against quadrature
IDENTITY_TOL = 1e-8
GENERIC_TOL = 1e-9
#: p-value atoms against the scipy recomputation (pcomb's own atom tolerance)
ATOM_TOL = 1e-12
#: Monte-Carlo checks, in standard errors of the expected proportion
LRT_K = 4.0
FISHER_K = 4.0 * math.sqrt(2.0)
CIRCULAR_K = 5.0
#: geometric-noniid Type I error, above alpha: the two-moment surrogate lets
#: the size drift up on this very discrete design (Pearson at n=10 rejects at
#: 0.0615 at 10^5 replicates, 2.4 SE of alpha at 2,000 replicates)
NONIID_K_ABOVE = 8.0


def identical(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: outputs differ"]


def combination(label: str, s: float, p: float, s_ref: float, p_ref: float) -> list[str]:
    out = []
    if not abs(s - s_ref) <= COMBINE_S_TOL * max(1.0, abs(s_ref)):
        out.append(f"{label}: S {s!r} vs reference {s_ref!r}")
    if not abs(p - p_ref) <= COMBINE_P_RTOL * p_ref + COMBINE_P_ATOL:
        out.append(f"{label}: p {p!r} vs reference {p_ref!r}")
    return out


def pvalue_range(label: str, p: float) -> list[str]:
    return [] if 0.0 <= p <= 1.0 else [f"{label}: p {p!r} outside [0, 1]"]


def gene_table(rows: dict) -> list[str]:
    """``rows`` maps (gene, side, method) to (S, p)."""
    out = []
    for (gene, side), per_method in PAPER_GENE_TABLE.items():
        for method, (want_s, want_p) in per_method.items():
            got = rows.get((gene, side, method))
            if got is None:
                out.append(f"gene table: row {gene}/{side}/{method} missing")
                continue
            s, p = got
            if not abs(s - want_s) <= GENE_S_TOL:
                out.append(f"gene table {gene}/{side}/{method}: S {s:.4f} vs {want_s}")
            if not abs(p - want_p) <= GENE_P_TOL:
                out.append(f"gene table {gene}/{side}/{method}: p {p:.5f} vs {want_p}")
    return out


def decomposition(label: str, method: str, variance: float, w2_to_y: float,
                  lower_bound: float, scaled_w2: float) -> list[str]:
    out = []
    gap = abs(CONTINUOUS_VARIANCE[method] - variance - w2_to_y ** 2)
    if not gap <= IDENTITY_TOL:
        out.append(f"{label}/{method}: |Var(Y) - nu - W2^2| = {gap:.3e}")
    if not lower_bound <= scaled_w2:
        out.append(f"{label}/{method}: lower bound {lower_bound!r} > scaled W2 {scaled_w2!r}")
    return out


def generic_vs_closed(label: str, z_generic, z_closed, nu_generic: float,
                      nu_closed: float) -> list[str]:
    out = []
    if len(z_generic) != len(z_closed):
        return [f"{label}: {len(z_generic)} generic values for {len(z_closed)} atoms"]
    worst = max(abs(a - b) for a, b in zip(z_generic, z_closed))
    if not worst <= GENERIC_TOL:
        out.append(f"{label}: z gap {worst:.3e}")
    if not abs(nu_generic - nu_closed) <= GENERIC_TOL:
        out.append(f"{label}: variance gap {abs(nu_generic - nu_closed):.3e}")
    return out


def atoms(label: str, got, want) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} atoms, reference has {len(want)}"]
    worst = max(abs(a - b) for a, b in zip(got, want))
    return [] if worst <= ATOM_TOL else [f"{label}: atom gap {worst:.3e}"]


def proportion(label: str, rejections: int, reps: int, expected: float,
               k: float, k_above: float | None = None) -> list[str]:
    """Rejections/reps at most k standard errors of ``expected`` below it,
    and at most ``k_above`` (default k) above it."""
    se = math.sqrt(expected * (1.0 - expected) / reps)
    got = rejections / reps
    z = (got - expected) / se
    limit = k if z <= 0 or k_above is None else k_above
    if abs(z) <= limit:
        return []
    return [f"{label}: rate {got:.5f} vs expected {expected:.5f} "
            f"({z:+.2f} SE, limit {limit:.2f})"]


def failures(failed: set, expected: set) -> list[str]:
    """Only the operations of the known fault may fail."""
    unexpected = sorted(failed - expected)
    return [f"unexpected failure: {op}" for op in unexpected[:10]]
