"""The input policy of ``pcomb._inputs``, checked on the whole public API.

Every callable in ``pcomb.__all__`` either appears in ``CASES`` (a valid
call plus the kind of each numeric parameter) or in ``EXEMPT`` with the
reason it takes no number.  Each numeric parameter is then fed values the
policy must refuse (bools, strings, None, NaN, +-inf, an int beyond the
float range, a list where a scalar belongs and a scalar where a list
belongs), numpy scalars, which must act as the plain value they hold, and
valid numbers at the edges, which may be taken or refused.  A refusal must
be a one-line ValueError that names the parameter; nothing else may
escape: no TypeError, numpy UFuncTypeError or OverflowError.

The last test reads the package source, so the policy keeps one owner.
"""

import ast
import dataclasses
import math
import re
import sys
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pcomb
from pcomb import (DiscretePValueDist, StatisticModel, adjust, adjust_generic,
                   binomial_scenario, circular_scenario, combine, combine_observations,
                   custom_pvalue_distribution, exact_convolution, geometric_noniid_scenario,
                   geometric_scenario, make_statistic_model, power_experiment,
                   pvalue_distribution, rank_methods, sample_pvalues, scaled_w2,
                   scenario_from_json, surrogate, synthetic_scenario, type1_experiment,
                   variance_ratio, w2_discrete_continuous, w2_lower_bound)
from pcomb._inputs import integers, numbers

TWO_ATOM = custom_pvalue_distribution([0.5, 1.0], "left")
BINOMIAL_LEFT = pvalue_distribution(make_statistic_model("binomial", {"trials": 5, "prob": 0.5}),
                                    "left")
SURROGATE = surrogate("fisher", [1.0, 2.0])
BINOMIAL_SCENARIO = binomial_scenario(0.3)


@dataclasses.dataclass(frozen=True)
class Param:
    kind: str                 # "number", "integer", "numbers" or "integers"
    names: tuple = ()         # words a refusal may name it by, besides its own name
    optional: bool = False    # None is a valid value


@dataclasses.dataclass(frozen=True)
class Case:
    label: str
    call: object              # keyword arguments -> result
    base: dict
    params: dict


def _model(family):
    return lambda **params: make_statistic_model(family, params)


NUM, INT = Param("number"), Param("integer")
NUMS, INTS = Param("numbers"), Param("integers")

CASES = [
    Case("make_statistic_model binomial", _model("binomial"), {"trials": 5, "prob": 0.5},
         {"trials": INT, "prob": NUM}),
    Case("make_statistic_model poisson", _model("poisson"), {"rate": 3.0}, {"rate": NUM}),
    Case("make_statistic_model geometric", _model("geometric"), {"prob": 0.5}, {"prob": NUM}),
    Case("make_statistic_model negative-binomial", _model("negative-binomial"),
         {"successes": 2, "prob": 0.4}, {"successes": INT, "prob": NUM}),
    Case("make_statistic_model noncentral-hypergeometric",
         _model("noncentral-hypergeometric"),
         {"population": 20, "successes": 8, "draws": 5, "odds": 1.5},
         {"population": INT, "successes": INT, "draws": INT, "odds": NUM}),
    Case("make_statistic_model custom", _model("custom"),
         {"support": [0, 1, 2], "pmf": [0.25, 0.5, 0.25]}, {"support": INTS, "pmf": NUMS}),
    Case("StatisticModel", lambda **kw: StatisticModel("custom", {}, **kw),
         {"support": [0, 1, 2], "pmf": [0.25, 0.5, 0.25]}, {"support": INTS, "pmf": NUMS}),
    Case("custom_pvalue_distribution",
         lambda atom_sequence: custom_pvalue_distribution(atom_sequence, "left"),
         {"atom_sequence": [0.25, 0.5, 1.0]}, {"atom_sequence": Param("numbers", ("atoms",))}),
    Case("DiscretePValueDist", lambda atoms: DiscretePValueDist(atoms, "left"),
         {"atoms": [0.25, 0.5, 1.0]}, {"atoms": NUMS}),
    Case("DiscretePValueDist.atom_of", BINOMIAL_LEFT.atom_of, {"x": 2},
         {"x": Param("integer", ("observation",))}),
    Case("adjust_generic", lambda tol: adjust_generic(lambda w: w, "p", TWO_ATOM, tol=tol),
         {"tol": 1e-10}, {"tol": NUM}),
    Case("surrogate", lambda variances: surrogate("fisher", variances),
         {"variances": [1.0, 2.0]}, {"variances": Param("numbers", ("variance",))}),
    Case("SurrogateDist.quantile", SURROGATE.quantile, {"p": 0.95}, {"p": NUM}),
    Case("combine", lambda observed_pvalues: combine("fisher", observed_pvalues,
                                                     [TWO_ATOM, TWO_ATOM]),
         {"observed_pvalues": [0.5, 1.0]},
         {"observed_pvalues": Param("numbers", ("p-value",))}),
    Case("combine_observations",
         lambda observations: combine_observations("fisher", observations,
                                                   [BINOMIAL_LEFT, BINOMIAL_LEFT]),
         {"observations": [1, 3]}, {"observations": INTS}),
    Case("binomial_scenario", binomial_scenario, {"theta0": 0.3, "trials": 5},
         {"theta0": NUM, "trials": INT}),
    Case("geometric_scenario", lambda p0: geometric_scenario(p0, "right"), {"p0": 0.5},
         {"p0": NUM}),
    Case("geometric_noniid_scenario", lambda p0_set: geometric_noniid_scenario(p0_set, "right"),
         {"p0_set": [0.2, 0.5]}, {"p0_set": NUMS}),
    Case("circular_scenario", circular_scenario, {"points": 11}, {"points": INT}),
    Case("scenario_from_json", lambda **kw: scenario_from_json({"kind": "binomial", **kw}),
         {"theta0": 0.3, "trials": 5}, {"theta0": NUM, "trials": INT}),
    Case("sample_pvalues",
         lambda n, alt_param: sample_pvalues(BINOMIAL_SCENARIO, np.random.default_rng(0), n,
                                             alt_param),
         {"n": 4, "alt_param": 0.4},
         {"n": INT, "alt_param": Param("number", ("alternative parameter",), optional=True)}),
    Case("type1_experiment",
         lambda **kw: type1_experiment(synthetic_scenario("PC"), ["fisher"], **kw),
         {"n_grid": [2, 3], "alpha": 0.05, "reps": 20, "seed": 1, "workers": 1},
         {"n_grid": Param("numbers", ("the number of tests n",)), "alpha": NUM, "reps": INT,
          "seed": INT, "workers": INT}),
    Case("power_experiment",
         lambda **kw: power_experiment(BINOMIAL_SCENARIO, ["fisher"], **kw),
         {"alt_grid": [0.3, 0.5], "n": 3, "alpha": 0.05, "reps": 20, "seed": 1, "workers": 1},
         {"alt_grid": Param("numbers", ("alternative parameter",)),
          "n": Param("integer", ("the number of tests n",)), "alpha": NUM, "reps": INT,
          "seed": INT, "workers": INT}),
    Case("exact_convolution", lambda n: exact_convolution(adjust("edgington", TWO_ATOM), n),
         {"n": 3}, {"n": INT}),
]

#: public callables that take no number of their own, with the reason
EXEMPT = {
    "pvalue_distribution": "a model and a side",
    "adjust": "a method and a distribution",
    "method_spec": "a method name",
    "w2_discrete_continuous": "an adjusted statistic and a law or callable",
    "scaled_w2": "a method and a distribution",
    "variance_ratio": "a method and distributions",
    "w2_lower_bound": "a method and a distribution",
    "rank_methods": "distributions",
    "synthetic_scenario": "a name",
    "gene_example": "no arguments",
    # records that pcomb builds and returns
    "AdjustedStatistic": "record", "MethodSpec": "record", "CombinedResult": "record",
    "MethodMetrics": "record", "MetricsReport": "record", "Scenario": "record",
    "ExperimentReport": "record", "ExperimentRow": "record", "GeneExampleReport": "record",
}
COVERED = {"SurrogateDist": "SurrogateDist.quantile"}


def test_every_public_callable_is_fuzzed_or_exempt():
    labels = {c.label.split()[0] for c in CASES}
    public = {name for name in pcomb.__all__ if callable(getattr(pcomb, name))}
    missing = {name for name in public
               if name not in labels and name not in EXEMPT and COVERED.get(name) not in labels}
    assert not missing
    assert set(EXEMPT) <= public


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------

REFUSE, SAME, EITHER = "refuse", "same", "either"


def _expect(value, param: Param) -> str:
    """REFUSE: a named one-line ValueError; SAME: what ``value.item()``
    gives, or a named one-line ValueError; EITHER: a result or a one-line
    ValueError."""
    if value is None:
        return EITHER if param.optional else REFUSE
    if isinstance(value, (bool, np.bool_, str, list, tuple)):
        return REFUSE
    if isinstance(value, np.generic):
        return SAME
    if isinstance(value, float) and not math.isfinite(value):
        return REFUSE
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return REFUSE
    return EITHER


def _canon(x):
    """A comparable form of a result: arrays by their bytes, floats by repr."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, np.generic):
        return _canon(x.item())
    if isinstance(x, float):
        return ("float", repr(x))
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, (list, tuple)):
        return tuple(_canon(v) for v in x)
    if isinstance(x, Mapping):   # a named model's params are a read-only view
        return tuple(sorted((k, _canon(v)) for k, v in x.items()))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(_canon(getattr(x, f.name))
                                           for f in dataclasses.fields(x))
    if callable(x):
        return "callable"
    return _canon(vars(x))


def _run(case: Case, param: str, value):
    try:
        return "ok", _canon(case.call(**{**case.base, param: value}))
    except ValueError as exc:
        return "refused", str(exc)


def _names_it(message: str, param: str, spec: Param) -> bool:
    return any(re.search(rf"(?<![\w-]){re.escape(n)}(?!\w)", message)
               for n in (param, *spec.names))


def _plain(value):
    """``value`` with numpy scalars, arrays and tuples made plain Python."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _check(case: Case, param: str, value, expect: str) -> None:
    spec = case.params[param]
    outcome, got = _run(case, param, value)
    if expect == SAME and _run(case, param, _plain(value)) == (outcome, got):
        return
    if outcome == "ok":
        assert expect == EITHER, f"{param}={value!r} was taken"
        return
    assert "\n" not in got, got
    assert expect == EITHER or _names_it(got, param, spec), got


SCALARS = [True, False, np.True_, math.nan, math.inf, -math.inf, "0.5", None,
           2 ** 64, 10 ** 400, -(10 ** 400), -0.0]


def _scalar_variants(base):
    """Values for a scalar whose valid value is ``base``: the adversarial
    ones, a list in its place, and numpy scalars of ``base``."""
    values = [*SCALARS, [base], np.float64(base)]
    if float(base).is_integer():
        values.append(np.int64(base))
    return values


def _variants(case: Case, param: str):
    """(value, expectation) pairs for one parameter of a case."""
    spec, base = case.params[param], case.base[param]
    if spec.kind in ("number", "integer"):
        return [(v, _expect(v, spec)) for v in _scalar_variants(base)]
    out = [(base[0], REFUSE), (np.array(base[0]), REFUSE), ("0.5", REFUSE), (None, REFUSE),
           (np.array(base), SAME), (tuple(base), SAME)]
    for i in (0, len(base) - 1):
        out += [([*base[:i], v, *base[i + 1:]], _expect(v, NUM))
                for v in _scalar_variants(base[i])]
    return out


def _table():
    for case in CASES:
        for param in case.params:
            for k, (value, expect) in enumerate(_variants(case, param)):
                yield pytest.param(case, param, value, expect, id=f"{case.label}-{param}-{k}")


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.label)
def test_base_call_is_valid(case):
    case.call(**case.base)


@pytest.mark.parametrize("case,param,value,expect", list(_table()))
def test_adversarial_value(case, param, value, expect):
    _check(case, param, value, expect)


_NUMPY = st.one_of(st.builds(np.float64, st.floats(-1e3, 1e3)),
                   st.builds(np.float32, st.floats(-1e3, 1e3, width=32)),
                   st.builds(np.int64, st.integers(-1000, 1000)),
                   st.builds(np.uint8, st.integers(0, 255)),
                   st.builds(np.float64, st.sampled_from([math.nan, math.inf, -math.inf])))
# small magnitudes: a valid count of a million replicates is a slow run, not a fault
_VALUES = st.one_of(st.sampled_from(SCALARS), st.integers(-1000, 1000), st.floats(-1e3, 1e3),
                    st.booleans(), st.text(max_size=3), _NUMPY)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_values(data):
    case = data.draw(st.sampled_from(CASES))
    param = data.draw(st.sampled_from(sorted(case.params)))
    spec, value = case.params[param], data.draw(_VALUES)
    if spec.kind in ("numbers", "integers"):
        base = case.base[param]
        i = data.draw(st.integers(0, len(base) - 1))
        value, expect = [*base[:i], value, *base[i + 1:]], _expect(value, NUM)
    else:
        expect = _expect(value, spec)
    _check(case, param, value, expect)


# ---------------------------------------------------------------------------
# the holes this policy closed, each by name
# ---------------------------------------------------------------------------

def _power(**kw):
    args = {"alt_grid": [0.4], "n": 3, "alpha": 0.05, "reps": 10, "seed": 1, **kw}
    return power_experiment(BINOMIAL_SCENARIO, ["fisher"], **args)


def _type1(**kw):
    args = {"n_grid": [3], "alpha": 0.05, "reps": 10, "seed": 1, **kw}
    return type1_experiment(synthetic_scenario("PC"), ["fisher"], **args)


@pytest.mark.parametrize("call,message", [
    # a bool p-value once matched atom 1.0 through ``atoms - True``
    pytest.param(lambda: combine("fisher", [True], [TWO_ATOM]),
                 "observed_pvalues entries must be numbers, got True", id="combine-bool-pvalue"),
    pytest.param(lambda: combine("fisher", [np.True_], [TWO_ATOM]),
                 "observed_pvalues entries must be numbers, got np.True_",
                 id="combine-numpy-bool-pvalue"),
    pytest.param(lambda: combine("fisher", ["1.0"], [TWO_ATOM]),
                 "observed_pvalues entries must be numbers, got '1.0'", id="combine-str-pvalue"),
    # numpy merged [True, 2] to int64 before the support's entries were looked at
    pytest.param(lambda: StatisticModel("custom", {}, [True, 2], [0.5, 0.5]),
                 "support entries must be 64-bit integers, got True",
                 id="model-mixed-bool-int-support"),
    pytest.param(lambda: make_statistic_model("custom", {"support": [True, 2], "pmf": [0.5, 0.5]}),
                 "support entries must be 64-bit integers, got True", id="custom-bool-support"),
    pytest.param(lambda: make_statistic_model("custom", {"support": [1], "pmf": [True]}),
                 "pmf entries must be finite numbers, got True", id="custom-bool-pmf"),
    pytest.param(lambda: make_statistic_model("custom", {"support": [1], "pmf": ["1"]}),
                 "pmf entries must be finite numbers, got '1'", id="custom-str-pmf"),
    pytest.param(lambda: surrogate("fisher", [True, True]),
                 "variances entries must be numbers, got True", id="surrogate-bool"),
    pytest.param(lambda: surrogate("fisher", ["1", "2"]),
                 "variances entries must be numbers, got '1'", id="surrogate-str"),
    pytest.param(lambda: custom_pvalue_distribution([0.5, True], "left"),
                 "atoms entries must be finite numbers, got True", id="atoms-bool"),
    pytest.param(lambda: custom_pvalue_distribution(["0.5", "1"], "left"),
                 "atoms entries must be finite numbers, got '0.5'", id="atoms-str"),
    # a float ndarray once passed on its dtype alone, NaN included, and the
    # NaN then failed an invariant with a message about something else
    pytest.param(lambda: custom_pvalue_distribution(np.array([0.5, np.nan, 1.0]), "left"),
                 "atoms entries must be finite numbers, got nan", id="atoms-nan-array"),
    pytest.param(lambda: make_statistic_model("custom", {"support": [0, 1],
                                                         "pmf": np.array([np.nan, np.nan])}),
                 "pmf entries must be finite numbers, got nan", id="custom-nan-pmf-array"),
    pytest.param(lambda: adjust_generic(lambda w: w, "p", TWO_ATOM, tol=True),
                 "tol must be a finite number, got True", id="tol-bool"),
    pytest.param(lambda: adjust_generic(lambda w: w, "p", TWO_ATOM, tol="1e-10"),
                 "tol must be a finite number, got '1e-10'", id="tol-str"),
    pytest.param(lambda: _type1(alpha="0.05"), "alpha must be a number, got '0.05'",
                 id="alpha-str"),
    pytest.param(lambda: sample_pvalues(BINOMIAL_SCENARIO, np.random.default_rng(0), 2,
                                        alt_param="0.3"),
                 "alt_param must be a number, got '0.3'", id="alt-param-str"),
    pytest.param(lambda: sample_pvalues(BINOMIAL_SCENARIO, np.random.default_rng(0), 2,
                                        alt_param=True),
                 "alt_param must be a number, got True", id="alt-param-bool"),
    pytest.param(lambda: _power(alt_grid=[True]), "alt_grid entries must be numbers, got True",
                 id="alt-grid-bool"),
    pytest.param(lambda: geometric_noniid_scenario(0.5),
                 "p0_set must be a list of numbers, got 0.5", id="p0-set-scalar"),
    pytest.param(lambda: geometric_noniid_scenario("0.5"),
                 "p0_set must be a list of numbers, got '0.5'", id="p0-set-str"),
    pytest.param(lambda: geometric_scenario("0.5", "right"),
                 "p0 must be a number, got '0.5'", id="p0-str"),
    pytest.param(lambda: circular_scenario("7"), "points must be a finite number, got '7'",
                 id="points-str"),
    # a count is read exactly, not through a float that rounds 2**53 + 1 to even
    pytest.param(lambda: circular_scenario(2 ** 53 + 1),
                 "the support would have 4503599627370497 points, more than the cap of 10000000",
                 id="points-odd-past-2**53"),
    # the atoms once went straight to np.arange, which failed allocating 16 PiB
    pytest.param(lambda: circular_scenario(2 ** 52 + 1),
                 "the support would have 2251799813685249 points, more than the cap of 10000000",
                 id="points-over-support-cap"),
    pytest.param(lambda: _type1(n_grid=[2 ** 63 + 1]),
                 "the number of tests n must be <= 10000000, got 9223372036854775809",
                 id="n-grid-exact"),
    # a 0-d array is a scalar, not a list of one
    pytest.param(lambda: combine("fisher", np.array(0.5), [TWO_ATOM]),
                 "observed_pvalues must be a list of numbers, got array(0.5)",
                 id="combine-0d-array"),
    pytest.param(lambda: _type1(n_grid=np.array(3)),
                 "n_grid must be a list of numbers, got array(3)", id="n-grid-0d-array"),
    pytest.param(lambda: custom_pvalue_distribution(np.array([[0.5, 1.0]]), "left"),
                 "atoms must be a list of numbers, got array([[0.5, 1. ]])", id="atoms-2d-array"),
    pytest.param(lambda: make_statistic_model("binomial", {"trials": "5", "prob": 0.5}),
                 "trials must be an integer, got '5'", id="trials-str"),
    pytest.param(lambda: combine_observations("fisher", ["2"], [BINOMIAL_LEFT]),
                 "observations entries must be 64-bit integers, got '2'",
                 id="observation-str"),
    pytest.param(lambda: make_statistic_model("binomial",
                                              {"trials": 5, "prob": 0.5, "rate": "x"}),
                 "the binomial model takes no parameter 'rate'", id="model-unknown-key"),
    pytest.param(lambda: make_statistic_model("poisson", {}),
                 "the poisson model needs the parameter 'rate'", id="model-missing-key"),
    # params that are no mapping once raised dict()'s own errors
    pytest.param(lambda: make_statistic_model("binomial", "ab"),
                 "params must be a mapping of parameter names to values, got 'ab'",
                 id="model-params-str"),
    pytest.param(lambda: make_statistic_model("binomial", 5),
                 "params must be a mapping of parameter names to values, got 5",
                 id="model-params-int"),
    pytest.param(lambda: make_statistic_model("binomial", [("trials", 5), ("prob", 0.5)]),
                 "params must be a mapping of parameter names to values, "
                 "got [('trials', 5), ('prob', 0.5)]", id="model-params-pairs"),
    # a string is not a list: "fisher" once ran as the methods "f", "i", ...
    pytest.param(lambda: type1_experiment(synthetic_scenario("PC"), "fisher", [3], 0.05, 10, 1),
                 "methods must be a list of method names, got 'fisher'", id="methods-str"),
    pytest.param(lambda: type1_experiment(synthetic_scenario("PC"), None, [3], 0.05, 10, 1),
                 "methods must be a list of method names, got None", id="methods-none"),
    pytest.param(lambda: power_experiment(BINOMIAL_SCENARIO, "fisher", [0.4], 3, 0.05, 10, 1),
                 "methods must be a list of method names, got 'fisher'", id="power-methods-str"),
    pytest.param(lambda: rank_methods("abc"),
                 "dists must be a list of p-value distributions, got 'abc'",
                 id="rank-methods-str"),
    pytest.param(lambda: variance_ratio("fisher", "abc"),
                 "dist must be a list of p-value distributions, got 'abc'",
                 id="variance-ratio-str"),
    pytest.param(lambda: combine("fisher", [0.5], None),
                 "dists must be a list of p-value distributions, got None", id="combine-dists-none"),
    pytest.param(lambda: combine_observations("fisher", [1], None),
                 "dists must be a list of p-value distributions, got None",
                 id="combine-observations-dists-none"),
    pytest.param(lambda: combine_observations("fisher", [1], "ab"),
                 "dists must be a list of p-value distributions, got 'ab'",
                 id="combine-observations-dists-str"),
    # an entry that is not a distribution once raised AttributeError on .atoms
    pytest.param(lambda: rank_methods([1, 2]),
                 "dists[0] must be a p-value distribution, got 1", id="rank-methods-int-entry"),
    pytest.param(lambda: variance_ratio("fisher", [None]),
                 "dist[0] must be a p-value distribution, got None",
                 id="variance-ratio-none-entry"),
    pytest.param(lambda: combine("fisher", [0.5], [1]),
                 "dists[0] must be a p-value distribution, got 1", id="combine-int-entry"),
    pytest.param(lambda: combine_observations("fisher", [1], [None]),
                 "dists[0] must be a p-value distribution, got None",
                 id="combine-observations-none-entry"),
    # a wrong object in a parameter that takes one pcomb object once raised
    # AttributeError on the first field read from it
    pytest.param(lambda: adjust("fisher", None),
                 "dist must be a p-value distribution, got None", id="adjust-dist-none"),
    pytest.param(lambda: adjust_generic(lambda w: w, "p", 1),
                 "dist must be a p-value distribution, got 1", id="adjust-generic-dist-int"),
    pytest.param(lambda: scaled_w2("fisher", 1),
                 "dist must be a p-value distribution, got 1", id="scaled-w2-dist-int"),
    pytest.param(lambda: w2_lower_bound("fisher", None),
                 "dist must be a p-value distribution, got None", id="w2-lower-bound-dist-none"),
    pytest.param(lambda: w2_discrete_continuous(1, lambda w: w),
                 "adjusted must be an adjusted statistic, got 1",
                 id="w2-discrete-continuous-adjusted-int"),
    pytest.param(lambda: exact_convolution(1, 2),
                 "adjusted must be an adjusted statistic, got 1",
                 id="exact-convolution-adjusted-int"),
    pytest.param(lambda: pvalue_distribution(None, "left"),
                 "model must be a statistic model, got None", id="pvalue-distribution-model-none"),
    pytest.param(lambda: type1_experiment("x", ["fisher"], [3], 0.05, 10, 1),
                 "scenario must be a scenario, got 'x'", id="type1-scenario-str"),
    pytest.param(lambda: power_experiment(None, ["fisher"], [0.4], 3, 0.05, 10, 1),
                 "scenario must be a scenario, got None", id="power-scenario-none"),
    pytest.param(lambda: sample_pvalues(1, np.random.default_rng(0), 2),
                 "scenario must be a scenario, got 1", id="sample-pvalues-scenario-int"),
    pytest.param(lambda: sample_pvalues(BINOMIAL_SCENARIO, 5, 3),
                 "rng must have a random(n) method, as a numpy Generator does, got 5", id="sample-pvalues-rng-int"),
    # a list as the method once raised TypeError: unhashable type
    pytest.param(lambda: adjust(["fisher"], TWO_ATOM),
                 "unknown method ['fisher']; expected one of "
                 "('fisher', 'pearson', 'george', 'stouffer', 'edgington')",
                 id="adjust-method-list"),
])
def test_closed_hole(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_sample_pvalues_takes_a_legacy_random_state():
    """The rng check asks only for random(n), so numpy's RandomState still draws."""
    class Uniforms:
        def random(self, n):
            return np.random.RandomState(5).random(n)

    got = sample_pvalues(BINOMIAL_SCENARIO, np.random.RandomState(5), 40)
    assert len(got) == 40 and got == sample_pvalues(BINOMIAL_SCENARIO, Uniforms(), 40)


def _coerced(value, **kw):
    try:
        out = numbers(value, "xs", **kw)
    except ValueError as exc:
        return str(exc)
    return out.dtype, out.tobytes()


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.integers(-2 ** 64, 2 ** 64) | st.integers(-10, 10)
                   | st.just(10 ** 400), max_size=6),
       integral=st.booleans())
def test_a_list_of_plain_ints_reads_as_the_entry_loop_does(xs, integral):
    # a list reads as a tuple of the same entries, one entry at a time
    assert _coerced(xs, integral=integral) == _coerced(tuple(xs), integral=integral)


def test_integral_floats_and_numpy_scalars_are_their_values():
    assert binomial_scenario(0.3, 5.0).params == {"theta0": 0.3, "trials": 5}
    assert circular_scenario(199.0).params == {"points": 199}
    model = make_statistic_model("binomial", {"trials": np.int64(5), "prob": np.float64(0.5)})
    assert model.params == {"trials": 5, "prob": 0.5}
    assert type(model.params["trials"]) is int and type(model.params["prob"]) is float
    assert StatisticModel("custom", {}, [1.0, 2.0], [0.5, 0.5]).support.tolist() == [1, 2]


# ---------------------------------------------------------------------------
# one owner
# ---------------------------------------------------------------------------

SRC = Path(pcomb.__file__).parent
POLICY_MODULE = "_inputs.py"
#: checks on values that have passed the coercers, or that pcomb made
INVARIANTS = {
    ("_laws.py", "_norm_pdf_terms", "isfinite"): "the standard normal's tails at w = 0 and 1",
    ("_laws.py", "_cells_quad", "isfinite"): "a quadrature node where the quantile is not finite",
    ("distributions.py", "__post_init__", "isfinite"): "a model's masses, which may be an array",
    ("combine.py", "_surrogate", "inf"): "per-test variances must be positive and finite",
    ("combine.py", "_match_atom", "inf"): "an observed p-value's distance to its atom",
    ("simulate.py", "alt_cdf", "inf"): "the concentration alternative's range [0, inf)",
}


def _mentions(node, names) -> bool:
    return any((isinstance(n, ast.Name) and n.id in names)
               or (isinstance(n, ast.Attribute) and n.attr in names) for n in ast.walk(node))


#: the coercion and refusal helpers and the bounds only the policy module defines
POLICY_HELPER = r"_as_\w+|_param|_integer|_json\w*|_refuse\w*|_require\w*|_instance\w*|cap_\w+"
POLICY_BOUNDS = {"SUPPORT_CAP", "INT64_MAX", "_JSON_TYPES"}


def _policy_sites(path: Path):
    """(function, what, line) of each bool test, finiteness test, coercion or
    refusal helper, policy bound or "<name> must be <what>, got <value>"
    message built in one module."""
    sites = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if isinstance(child, ast.FunctionDef):
                inner = child.name
                if re.fullmatch(POLICY_HELPER, child.name):
                    sites.append((inner, "helper", child.lineno))
            elif isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                if _mentions(ast.Tuple(targets), POLICY_BOUNDS):
                    sites.append((func, "bound", child.lineno))
            elif isinstance(child, ast.JoinedStr):
                text = "".join(v.value for v in child.values if isinstance(v, ast.Constant))
                if " must be " in text and ", got " in text:
                    sites.append((func, "refusal", child.lineno))
            elif isinstance(child, ast.Call) and _mentions(child.func, {"isfinite"}):
                sites.append((func, "isfinite", child.lineno))
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id in ("isinstance", "issubclass")
                  and _mentions(ast.Tuple(child.args[1:]), {"bool", "bool_"})):
                sites.append((func, "bool", child.lineno))
            elif isinstance(child, ast.Compare):
                operands = ast.Tuple([child.left, *child.comparators])
                if _mentions(operands, {"bool", "bool_"}):
                    sites.append((func, "bool", child.lineno))
                if _mentions(operands, {"inf"}):
                    sites.append((func, "inf", child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return sites


def test_input_policy_has_one_owner():
    found = {(path.name, func, what): line
             for path in sorted(SRC.glob("*.py")) if path.name != POLICY_MODULE
             for func, what, line in _policy_sites(path)}
    stray = {f"{f}:{line} {func} ({what})" for (f, func, what), line in found.items()
             if (f, func, what) not in INVARIANTS}
    assert not stray, f"input checks outside {POLICY_MODULE}: {sorted(stray)}"
    assert set(INVARIANTS) <= set(found), "an allow-listed invariant is gone; drop it"
    # the owner itself is found by the same scan
    assert ({what for _, what, _ in _policy_sites(SRC / POLICY_MODULE)}
            >= {"bool", "isfinite", "helper", "bound", "refusal"})


@pytest.mark.parametrize("value", [
    [3, 1, 4], [], [2 ** 63 - 1, -2 ** 63], [2 ** 63], [-2 ** 63 - 1], [1, True], [False],
    [1, 2.0], [1.5], [np.int64(5)], (1, 2), np.array([1, 2]), np.array([1.0, 2.0]),
    [1, None], "12", 5, [[1]],
])
def test_integers_reads_a_list_as_numbers_does(value):
    try:
        want = ("ok", numbers(value, "xs", integral=True).tolist())
    except ValueError as exc:
        want = ("refused", str(exc))
    try:
        got = integers(value, "xs")
        assert type(got) is list and all(type(v) is int for v in got)
        got = ("ok", got)
    except ValueError as exc:
        got = ("refused", str(exc))
    assert got == want
    # a list of plain 64-bit ints is taken as it is, without a copy
    if type(value) is list and want[0] == "ok" and all(type(v) is int for v in value):
        assert integers(value, "xs") is value
