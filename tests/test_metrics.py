import hashlib
import math
import struct

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from pcomb import (METHODS, adjust, adjust_generic, custom_pvalue_distribution,
                   geometric_scenario,
                   make_statistic_model, method_spec, pvalue_distribution, rank_methods,
                   scaled_w2, surrogate, synthetic_scenario, variance_ratio,
                   w2_discrete_continuous,
                   w2_lower_bound)
from pcomb._laws import GammaLaw, NormalLaw, UniformLaw

from conftest import make_random_dists, midpoint_w2

TWO_ATOM = custom_pvalue_distribution([0.5, 1.0], "left")
PL = synthetic_scenario("PL").null_dists()[0]
PC = synthetic_scenario("PC").null_dists()[0]
PS = synthetic_scenario("PS").null_dists()[0]


class TestW2DiscreteContinuous:
    def test_edgington_two_atom_vs_uniform(self):
        # independent oracle: Var(Y) = Var(Z) + W2^2(Z, Y)
        adj = adjust("edgington", TWO_ATOM)
        w2 = w2_discrete_continuous(adj, UniformLaw())
        assert w2 == pytest.approx(math.sqrt(1.0 / 12.0 - 0.0625), abs=1e-10)

    def test_point_mass_vs_exponential(self):
        adj = adjust("fisher", custom_pvalue_distribution([1.0], "left"))
        assert adj.z[0] == pytest.approx(2.0, abs=1e-14)
        assert w2_discrete_continuous(adj, GammaLaw(1.0, 2.0)) == pytest.approx(2.0, rel=1e-12)

    def test_fisher_pl_vs_surrogate(self):
        adj = adjust("fisher", PL)
        law = GammaLaw(4.0 / adj.variance, adj.variance / 2.0)
        assert w2_discrete_continuous(adj, law) / 2.0 == pytest.approx(0.469873, abs=1e-5)

    def test_callable_quantile_agrees_with_law(self):
        adj = adjust("stouffer", TWO_ATOM)
        law = NormalLaw(0.0, math.sqrt(adj.variance))
        direct = w2_discrete_continuous(adj, law)
        via_callable = w2_discrete_continuous(
            adj, lambda w: stats.norm.ppf(w, scale=math.sqrt(adj.variance)))
        assert via_callable == pytest.approx(direct, abs=1e-9)

    def test_scalar_only_quantile_callables(self):
        # math.log raises TypeError on an array, so the cells fall back to
        # calling the quantile one float at a time
        scalar_only = {
            "pearson": lambda w: -2.0 * math.log1p(-w),
            "george": lambda w: math.log(w) - math.log1p(-w),
        }
        d = custom_pvalue_distribution([0.1, 0.3, 0.55, 0.8, 0.94, 1.0], "left")
        for method, qfun in scalar_only.items():
            adj = adjust(method, d)
            assert w2_discrete_continuous(adj, qfun) == pytest.approx(
                w2_discrete_continuous(adj, method_spec(method).law), abs=1e-9)

    def test_accepts_generic_adjustment(self):
        d = custom_pvalue_distribution([0.1, 0.3, 0.55, 0.8, 0.94, 1.0], "left")
        generic = adjust_generic(stats.norm.ppf, "p", d)
        w2 = w2_discrete_continuous(generic, NormalLaw(0.0, 1.0))
        assert w2 == pytest.approx(w2_discrete_continuous(adjust("stouffer", d),
                                                          method_spec("stouffer").law), rel=1e-9)

    def test_matches_midpoint_oracle(self):
        # sorted-coupling against a dense equal-mass discretization
        for d in (TWO_ATOM, custom_pvalue_distribution([0.1, 0.3, 0.55, 0.8, 0.94, 1.0], "left")):
            for method in METHODS:
                adj = adjust(method, d)
                law = surrogate(method, [adj.variance]).law
                ours = w2_discrete_continuous(adj, law)
                oracle = midpoint_w2(adj, law.quantile)
                assert ours == pytest.approx(oracle, abs=1e-3)


class TestScaledW2:
    def test_table_values(self):
        assert scaled_w2("pearson", PL) == pytest.approx(0.138873, abs=1e-5)
        assert scaled_w2("edgington", PC) == pytest.approx(0.270974, abs=1e-5)
        # the printed table transposes these two entries; quadrature and the
        # midpoint oracle both give stouffer 0.373, george 0.361
        assert scaled_w2("stouffer", PS) == pytest.approx(0.373250, abs=1e-5)
        assert scaled_w2("george", PS) == pytest.approx(0.360598, abs=1e-5)

    def test_single_atom_rejected(self):
        # by the surrogate, in its words
        with pytest.raises(ValueError, match="with one atom, or with all its mass on one atom, "
                                             "has zero variance"):
            scaled_w2("fisher", custom_pvalue_distribution([1.0], "left"))


class TestVarianceRatio:
    def test_examples(self):
        pr = synthetic_scenario("PR").null_dists()[0]
        assert variance_ratio("fisher", pr) == pytest.approx(0.980625, abs=1e-5)
        circ199 = custom_pvalue_distribution((2.0 * np.arange(100) + 1.0) / 199.0, "right")
        assert variance_ratio("edgington", circ199) == pytest.approx(0.99989937, abs=1e-7)

    def test_averaged_over_dists(self):
        dists = [geometric_scenario(p0, "right").null_dists()[0] for p0 in (0.2, 0.5, 0.8)]
        assert variance_ratio("fisher", dists) == pytest.approx(0.92208, abs=1e-4)


class TestLowerBound:
    def test_edgington_two_atom_value(self):
        # closed-form normal partial moments over (-inf, 0.5] for N(0.5, 0.25)
        assert w2_lower_bound("edgington", TWO_ATOM) == pytest.approx(0.38934, abs=1e-4)

    def test_bounded_by_scaled_w2(self, random_dists):
        for d in random_dists[:60]:
            for method in METHODS:
                assert w2_lower_bound(method, d) <= scaled_w2(method, d) + 1e-9

    def test_point_mass_location_drives_fisher(self):
        # the big left-end mass hurts the right-skewed Fisher surrogate most
        assert w2_lower_bound("fisher", PL) > w2_lower_bound("pearson", PL)


class TestVarianceDecomposition:
    def test_variance_decomposition(self, random_dists):
        for d in random_dists[:60]:
            for method in METHODS:
                adj = adjust(method, d)
                w2y = w2_discrete_continuous(adj, method_spec(method).law)
                var_y = method_spec(method).law.variance
                assert var_y - adj.variance - w2y ** 2 == pytest.approx(0.0, abs=1e-8)

    def test_triangle_inequality_observable(self):
        for d in (TWO_ATOM, PL):
            for method in METHODS:
                adj = adjust(method, d)
                law_y = method_spec(method).law
                law_s = surrogate(method, [adj.variance]).law
                lhs = w2_discrete_continuous(adj, law_s)
                z_to_y = w2_discrete_continuous(adj, law_y)
                y_to_s = math.sqrt(max(quad(
                    lambda w: (law_y.quantile(w) - law_s.quantile(w)) ** 2,
                    0.0, 1.0, limit=400)[0], 0.0))
                assert lhs <= z_to_y + y_to_s + 1e-9

    def test_scale_equivariance(self):
        from pcomb.adjust import AdjustedStatistic
        adj = adjust("stouffer", PL)
        law = NormalLaw(0.0, math.sqrt(adj.variance))
        base = w2_discrete_continuous(adj, law)
        for a in (2.0, 7.5):
            scaled = AdjustedStatistic(method="stouffer", z=adj.z * a,
                                       atoms=adj.atoms, cells=adj.cells,
                                       mean=adj.mean * a, variance=adj.variance * a * a)
            law_a = NormalLaw(0.0, a * math.sqrt(adj.variance))
            assert w2_discrete_continuous(scaled, law_a) == pytest.approx(a * base, rel=1e-9)


def _fisher_w2_oracle(atoms) -> float:
    """W2(Z, Y) for Fisher in 60-digit arithmetic on the exact atoms.

    z_i is the mean of -2 log v over (F_{i-1}, F_i), the increment of
    J(v) = -2 (v log v - v) over the cell's mass, and W2^2 = E[Y^2] - E[Z^2]
    with E[Y^2] = 8 for chi-square(2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        F = [mpmath.mpf(0)] + [mpmath.mpf(float(a)) for a in atoms]
        J = [-2 * (v * mpmath.log(v) - v) if v > 0 else mpmath.mpf(0) for v in F]
        ez2 = sum((j1 - j0) ** 2 / (f1 - f0)
                  for f0, f1, j0, j1 in zip(F, F[1:], J, J[1:]))
        return float(mpmath.sqrt(8 - ez2))


class TestHighPrecisionOracle:
    """The coupling runs on the cells z was averaged over, so W2 keeps the
    digits of 1 - F near the top of the support."""

    DISTS = [
        ("binomial", {"trials": 120, "prob": 0.3}, "two"),
        ("binomial", {"trials": 120, "prob": 0.3}, "right"),
        ("binomial", {"trials": 400, "prob": 0.3}, "right"),
        ("poisson", {"rate": 2000}, "left"),
    ]

    @pytest.mark.parametrize("family,params,side", DISTS)
    def test_fisher_w2_to_y_and_variance_identity(self, family, params, side):
        d = pvalue_distribution(make_statistic_model(family, params), side)
        w2 = w2_discrete_continuous(adjust("fisher", d), method_spec("fisher").law)
        assert w2 == pytest.approx(_fisher_w2_oracle(d.atoms), rel=1e-11)
        for method in METHODS:
            w2y = w2_discrete_continuous(adjust(method, d), method_spec(method).law)
            var_y = method_spec(method).law.variance
            assert abs(var_y - adjust(method, d).variance - w2y ** 2) <= 1e-13


class TestRankMethods:
    def test_pl_recommendations(self):
        rep = rank_methods(PL)
        assert rep.recommended_by_ratio == "pearson"
        assert rep.recommended_by_distance == "pearson"
        assert rep.row("pearson").ratio == pytest.approx(0.9806, abs=1e-4)

    def test_ps_extremes(self):
        rep = rank_methods(PS)
        ratios = {r.method: r.ratio for r in rep.rows}
        assert ratios["fisher"] == pytest.approx(0.696824, abs=1e-5)
        assert ratios["pearson"] == pytest.approx(0.696824, abs=1e-5)
        assert rep.recommended_by_ratio == "edgington"
        assert ratios["edgington"] == pytest.approx(0.945960, abs=1e-5)

    def test_binomial_skewed_ordering(self):
        m = make_statistic_model("binomial", {"trials": 5, "prob": 0.9})
        rep = rank_methods(pvalue_distribution(m, "left"))
        ratios = {r.method: r.ratio for r in rep.rows}
        assert (ratios["fisher"] > ratios["edgington"] > ratios["stouffer"]
                > ratios["george"] > ratios["pearson"])
        assert ratios["fisher"] == pytest.approx(0.871, abs=1e-3)
        assert ratios["pearson"] == pytest.approx(0.404, abs=1e-3)

    def test_w2_to_y_column_matches_decomposition(self):
        rep = rank_methods(PC)
        for r in rep.rows:
            var_y = method_spec(r.method).law.variance
            assert r.w2_to_y == pytest.approx(math.sqrt(var_y - r.variance), abs=1e-8)

    def test_serialization(self):
        rep = rank_methods(TWO_ATOM)
        csv = rep.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "method,variance,ratio,scaled_w2,w2_to_Y,lower_bound"
        assert len(lines) == 6
        assert lines[1].startswith("fisher,")
        float(lines[1].split(",")[1])  # parses
        obj = rep.to_json()
        assert len(obj["methods"]) == 5

    def test_missing_row_is_a_key_error(self):
        with pytest.raises(KeyError) as info:
            rank_methods(TWO_ATOM).row("lrt-geometric")
        assert info.value.args == ("lrt-geometric",)

    def test_one_distribution_alone_or_in_a_list_ranks_the_same(self):
        # the CLI passes its list of one file's distribution as it is
        assert rank_methods([PL]).to_json() == rank_methods(PL).to_json()

    def test_sequence_averages(self):
        dists = [geometric_scenario(p0, "right").null_dists()[0] for p0 in (0.2, 0.5, 0.8)]
        rep = rank_methods(dists)
        assert rep.row("fisher").variance == pytest.approx(3.68831, abs=1e-4)
        assert rep.recommended_by_ratio == "fisher"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_methods([])


# ---------------------------------------------------------------------------
# every diagnostic at full precision: the coupling cells were reworked to
# evaluate each cell edge once; every bit must stay the same
# ---------------------------------------------------------------------------

def _diagnostic_inputs():
    """The diagnose bench's inputs with its drawn parameters fixed: Poisson(2000)
    left and right, the two-sided binomial and hypergeometric ladders, and
    40 random distributions."""
    poisson = make_statistic_model("poisson", {"rate": 2000})
    binomial = [make_statistic_model("binomial", {"trials": t, "prob": 0.3 if i % 2 else 0.7})
                for i, t in enumerate((50, 120, 190, 260, 330, 400))]
    hypergeometric = [make_statistic_model("hypergeometric", {
        "population": 2000, "successes": 600 + draws, "draws": draws})
        for draws in (20, 76, 132, 188, 244, 300)]
    return {
        "poisson left": [pvalue_distribution(poisson, "left")],
        "poisson right": [pvalue_distribution(poisson, "right")],
        "binomial two": [pvalue_distribution(m, "two") for m in binomial],
        "hypergeometric two": [pvalue_distribution(m, "two") for m in hypergeometric],
        "random": make_random_dists(40, seed=20261020),
    }


def _report_bytes(report):
    rows = b"".join(r.method.encode() + struct.pack("<5d", r.variance, r.ratio, r.scaled_w2,
                                                    r.w2_to_y, r.lower_bound)
                    for r in report.rows)
    return rows + f"{report.recommended_by_ratio} {report.recommended_by_distance}".encode()


def _diagnostic_digests():
    out = {}
    for name, dists in _diagnostic_inputs().items():
        h = hashlib.sha256()
        for d in dists:
            h.update(_report_bytes(rank_methods(d)))
            for method in METHODS:
                h.update(struct.pack("<3d", scaled_w2(method, d), w2_lower_bound(method, d),
                                     w2_discrete_continuous(adjust(method, d),
                                                            method_spec(method).law)))
        if len(dists) > 1:   # the across-distribution averages
            h.update(_report_bytes(rank_methods(dists)))
        out[name] = h.hexdigest()
    return out


DIAGNOSTICS_PIN_SHA256 = {
    "binomial two": "0df156c21162da11fe7d6f5da7f094efe96cdc2913979c9d6100b25992f58e9e",
    "hypergeometric two": "60b7e42820c2965d629d69f9cf6fd9242bf0c6fcba714c7a05d2e04bd70f0bcc",
    "poisson left": "d794862067d8a903499f91b0f759135fab06ca3aef8fee4dcf116193fed590ee",
    "poisson right": "4b6fd8eaedd14b2ff6c6ae73a0dfbc9e8bdf9171417b6b5252c40d01f71ea35a",
    "random": "d82d00b9cf00da259000aac7edc0f6e5bfe531d80cd86828aa3d86450ab2fff7",
}


def test_diagnostics_are_pinned_bit_for_bit():
    assert _diagnostic_digests() == DIAGNOSTICS_PIN_SHA256
