"""Command-line front end.

Subcommands: ``pdist`` (build a sided p-value distribution), ``adjust``,
``combine``, ``metrics``, ``simulate``, and ``example gene``.  Single
objects are emitted as JSON (floats at full round-trip precision), tables
as CSV; all diagnostics go to stderr.  Exit codes: 0 success, 2 usage
error, 1 computation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._inputs import _json, _refuse, integer, numbers
from .adjust import METHODS, adjust
from .combine import combine, combine_observations
from .distributions import (SIDES, DiscretePValueDist, StatisticModel,
                            custom_pvalue_distribution, make_statistic_model,
                            pvalue_distribution)
from .metrics import rank_methods
from .simulate import (LRT_GEOMETRIC, gene_example, power_experiment,
                       scenario_from_json, type1_experiment)

SEED_ENV = "PCOMB_SEED"
#: the named families' parameters, one flag each
_MODEL_FLAGS = {"trials": int, "prob": float, "rate": float, "successes": int,
               "population": int, "draws": int, "odds": float}


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(args, text: str) -> None:
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj) -> None:
    _emit(args, json.dumps(obj, indent=2) + "\n")


def _emit_report(args, report) -> None:
    if args.format == "json":
        _emit_json(args, report.to_json())
    else:
        _emit(args, report.to_csv())


def _numbers(text: str, kind: type, name: str) -> list:
    """The comma- or space-separated entries of ``text`` as ``kind`` (int or
    float); an entry that does not convert is an error naming ``name``, the
    flag or variable the text came from."""
    out = []
    for tok in text.replace(",", " ").split():
        try:
            out.append(kind(tok))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"{name}: {tok!r} is not {noun}") from None
    return out


def _model_from_args(args) -> StatisticModel:
    if args.model:
        return StatisticModel.from_json(_read_json(args.model))
    params = {k: getattr(args, k) for k in _MODEL_FLAGS if getattr(args, k) is not None}
    if args.family == "custom":
        if not (args.support and args.pmf):
            raise ValueError("custom family needs --support and --pmf")
        params.update(support=_numbers(args.support, int, "--support"),
                      pmf=_numbers(args.pmf, float, "--pmf"))
    return make_statistic_model(args.family, params)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="statistic family (binomial, poisson, ...)")
    p.add_argument("--model", help="JSON model file ('-' for stdin) instead of flags")
    for flag, kind in _MODEL_FLAGS.items():
        p.add_argument(f"--{flag}", type=kind)
    p.add_argument("--support", help="comma-separated outcomes (custom family)")
    p.add_argument("--pmf", help="comma-separated masses (custom family)")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="pcomb",
                                  description="discrete p-value combination toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--out", default="-", help="output path (default stdout)")
        return p

    p = add_parser("pdist", help="build a sided discrete p-value distribution")
    _add_model_flags(p)
    p.add_argument("--side", required=True, choices=SIDES)
    p.add_argument("--atoms", help="comma-separated atoms for a direct custom distribution")

    p = add_parser("adjust", help="adjusted statistic for one method")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--pdist", required=True, help="JSON distribution file ('-' for stdin)")

    p = add_parser("combine", help="combined statistic and global p-value")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--input", required=True,
                   help="JSON file ('-' for stdin); either "
                        '{"tests": [{"model": ..., "side": ..., "x": ...}, ...]} or '
                        '{"pvalues": [...], "dists": [...]}')

    p = add_parser("metrics", help="method-selection diagnostics")
    p.add_argument("--pdist", required=True, nargs="+",
                   help="one or more JSON distribution files")
    p.add_argument("--format", default="csv", choices=("csv", "json"))

    p = add_parser("simulate", help="Monte-Carlo Type I error / power experiments")
    p.add_argument("--scenario", required=True, help="scenario JSON file ('-' for stdin)")
    p.add_argument("--mode", default="type1", choices=("type1", "power"))
    p.add_argument("--methods", default=",".join(METHODS),
                   help=f"comma-separated methods (power mode also accepts {LRT_GEOMETRIC})")
    p.add_argument("--n-grid", default="2,5,10,20,50,100",
                   help="comma-separated test counts (type1 mode)")
    p.add_argument("--n", type=int, default=100, help="tests per replicate (power mode)")
    p.add_argument("--alt-grid", help="comma-separated alternative parameters (power mode)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=20000)
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default from ${SEED_ENV}, else 0)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", default="csv", choices=("csv", "json"))

    p = add_parser("example", help="built-in worked examples")
    p.add_argument("which", choices=("gene",))
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    return top


def _cmd_pdist(args) -> None:
    if args.atoms:
        dist = custom_pvalue_distribution(_numbers(args.atoms, float, "--atoms"), args.side)
    else:
        if not (args.family or args.model):
            raise ValueError("pdist needs --family/--model or --atoms")
        dist = pvalue_distribution(_model_from_args(args), args.side)
    _emit_json(args, dist.to_json())


def _cmd_adjust(args) -> None:
    dist = DiscretePValueDist.from_json(_read_json(args.pdist))
    _emit_json(args, adjust(args.method, dist).to_json())


def _cmd_combine(args) -> None:
    spec = _json(_read_json(args.input), "object", "combine input")
    if "tests" in spec:
        tests = [_json(t, "object", f"test {i}", ("model", "side", "x"))
                 for i, t in enumerate(_json(spec["tests"], "list", "the input's 'tests'"))]
        dists = [pvalue_distribution(StatisticModel.from_json(t["model"]), t["side"])
                 for t in tests]
        xs = [integer(t["x"], f"test {i}'s 'x'") for i, t in enumerate(tests)]
        result = combine_observations(args.method, xs, dists)
    elif "pvalues" in spec:
        dists = [DiscretePValueDist.from_json(d)
                 for d in _json(spec.get("dists"), "list", "the input's 'dists'")]
        result = combine(args.method, numbers(spec["pvalues"], "pvalues"), dists)
    else:
        raise ValueError("combine input needs either 'tests' or 'pvalues'+'dists'")
    _emit_json(args, result.to_json())


def _cmd_metrics(args) -> None:
    dists = [DiscretePValueDist.from_json(_read_json(p)) for p in args.pdist]
    _emit_report(args, rank_methods(dists))


def _cmd_simulate(args) -> None:
    scenario = scenario_from_json(_read_json(args.scenario))
    seed = args.seed
    if seed is None:
        text = os.environ.get(SEED_ENV, "0")
        seeds = _numbers(text, int, SEED_ENV)
        if len(seeds) != 1:
            raise _refuse(SEED_ENV, "one integer", text, repr)
        seed = seeds[0]
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if args.mode == "type1":
        report = type1_experiment(scenario, methods, _numbers(args.n_grid, int, "--n-grid"),
                                  args.alpha, args.reps, seed, args.workers)
    else:
        if not args.alt_grid:
            raise ValueError("power mode needs --alt-grid")
        report = power_experiment(scenario, methods, _numbers(args.alt_grid, float, "--alt-grid"),
                                  args.n, args.alpha, args.reps, seed, args.workers)
    _emit_report(args, report)


def _cmd_example(args) -> None:
    _emit_report(args, gene_example())


_DISPATCH = {"pdist": _cmd_pdist, "adjust": _cmd_adjust, "combine": _cmd_combine,
             "metrics": _cmd_metrics, "simulate": _cmd_simulate, "example": _cmd_example}


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _DISPATCH[args.command](args)
    except BrokenPipeError:
        return 1
    except (ValueError, RuntimeError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"pcomb: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
