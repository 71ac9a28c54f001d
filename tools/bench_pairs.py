"""Alternating pairs of benchmark runs: a parent checkout against a change.

    python3 tools/bench_pairs.py PARENT CHANGE --workload analyze --seeds 41-50
    python3 tools/bench_pairs.py PARENT CHANGE --workload cli --seeds 41,43 --trace 1
    python3 tools/bench_pairs.py PARENT CHANGE --workload analyze --seeds 41-50 --out BENCH.json

Each seed is one pair: ``python3 bench/run.py --workload W --seed S
--trace X`` runs in the parent checkout and in the change's, for the length
the benchmark sets, the parent first on even pairs and the change first on odd
ones, so drift in the machine's speed falls on both sides alike.  Each run
prints a line on stderr as it ends, ``pair N seed S side: exit E`` and its
end-to-end values, so a lost pair can be named and rerun.  The summary
gives, per metric the runs report, each side's median and quartiles and the
change's wins (ties count for neither side), then every run that exited
non-zero, failed operations or read ``correct: false``, then a verdict per
metric with a direction: the change of the median in percent, whether the
gain rule holds (at least 10 pairs, the change wins at least 9 in 10 of them
and its median beats the parent's by more than the parent's interquartile
range; on fewer pairs it fails, whatever they read), and whether the
change's median stays within the metric's ``BENCHMARK.json`` bound, the
fraction by which an end-to-end metric may get worse.  With ``--out FILE``
the same pairs are also written to FILE as one JSON object: each pair's
seed, order, exit and metric values, each metric's quartiles, wins and
verdict, and each side's provenance as ``bench/run.py`` prints it (commit,
``src`` SHA-256, Python, numpy, scipy, nproc).  The exit code is 1 when any
run was bad that way, else 0.  Both checkouts must hold the same
``BENCHMARK.json`` and the same files under ``bench/``: if they differ,
nothing runs, the differing files are named and the exit code is 2.
Standard library only, so it runs wherever the benchmark does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
MIN_PAIRS = 10   # the fewest pairs on which the gain rule can hold
PROVENANCE = "provenance: "   # bench/run.py's line before its JSON result


def parse_seeds(text: str) -> list[int]:
    """Seeds from "41-50", "41,43,47" or a mix such as "41-43,47"."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _json_line(line: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        return None


def run_once(checkout: str, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run in ``checkout``: its exit code, its JSON result and
    its provenance (each None when the run printed none)."""
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"),
                           "--workload", workload, "--seed", str(seed), "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    provenance = [_json_line(line[len(PROVENANCE):]) for line in lines
                  if line.startswith(PROVENANCE)]
    return {"seed": seed, "exit": proc.returncode,
            "result": _json_line(lines[-1]) if lines else None,
            "provenance": provenance[-1] if provenance else None}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one run is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _paired(pairs: list[dict], name: str) -> tuple[dict[str, list], list[tuple]]:
    """Each side's values of metric ``name``, and (parent, change) for the
    pairs where both runs report it."""
    values, both = {side: [] for side in SIDES}, []
    for pair in pairs:
        got = {side: pair[side]["result"] and pair[side]["result"]["metrics"].get(name)
               for side in SIDES}
        for side in SIDES:
            if got[side]:
                values[side].append(got[side]["value"])
        if got["parent"] and got["change"]:
            both.append((got["parent"]["value"], got["change"]["value"]))
    return values, both


def _wins(both: list[tuple], better: str) -> int:
    return sum((b > a) if better == "higher" else (b < a) for a, b in both)


def _names(pairs: list[dict]) -> list[str]:
    return sorted({name for pair in pairs for run in pair.values()
                   if run["result"] for name in run["result"]["metrics"]})


def _bad(run: dict) -> bool:
    """Whether ``run`` exited non-zero, printed no result, failed
    operations or read ``correct: false``."""
    result = run["result"]
    return run["exit"] != 0 or not result or bool(result["failed"]) or not result["correct"]


def summarize(pairs: list[dict], better: dict[str, str]) -> str:
    """The summary of ``pairs``, each {"parent": run, "change": run} as
    ``run_once`` returns them; ``better`` maps a metric name to "higher" or
    "lower" (a metric missing from it is listed without wins)."""
    out = []
    for name in _names(pairs):
        values, both = _paired(pairs, name)
        cols = []
        for side in SIDES:
            if values[side]:
                q1, q2, q3 = _quartiles(values[side])
                cols.append(f"{side} {q2:.4g} [{q1:.4g}, {q3:.4g}]")
            else:
                cols.append(f"{side} -")
        won = (f"change wins {_wins(both, better[name])}/{len(both)}" if name in better
               else "no direction")
        out.append(f"{name}: {'; '.join(cols)}; {won}")
    for pair in pairs:
        for side in SIDES:
            run, result = pair[side], pair[side]["result"]
            if _bad(run):
                state = ("no result" if not result else
                         f"correct={result['correct']} failed={result['failed']}"
                         f"/{result['attempted']}")
                out.append(f"BAD {side} seed {run['seed']}: exit {run['exit']}, {state}")
    return "\n".join(out)


def verdicts(pairs: list[dict], metrics: dict[str, dict]) -> str:
    """A verdict line per metric of ``pairs`` that ``metrics`` (name to its
    ``BENCHMARK.json`` entry) gives a direction, and both sides report."""
    lines = (_verdict(name, *_paired(pairs, name), metrics.get(name)) for name in _names(pairs))
    return "\n".join(line for line in lines if line)


def _verdict(name: str, values: dict[str, list], both: list[tuple], metric: dict | None):
    """``verdicts``' line for one metric, or None when it gets none."""
    if metric is None or not values["parent"] or not values["change"]:
        return None
    better, bound = metric["better"], metric.get("bound")
    p1, parent, p3 = _quartiles(values["parent"])
    change = _quartiles(values["change"])[1]
    gain = change - parent if better == "higher" else parent - change   # > 0: better
    pct = f"{100.0 * (change - parent) / abs(parent):+.1f}%" if parent else "n/a"
    wins = _wins(both, better)
    few = len(both) < MIN_PAIRS
    holds = not few and wins >= 0.9 * len(both) and gain > p3 - p1
    rule = (f"gain rule {'holds' if holds else 'fails'} (wins {wins}/{len(both)}, "
            + (f"under {MIN_PAIRS} pairs, " if few else "")
            + f"gap {gain:.4g} {'>' if gain > p3 - p1 else '<='} parent IQR {p3 - p1:.4g})")
    if bound is None:
        within = "no bound"
    else:
        worse = -gain / abs(parent) if parent else (math.inf if gain < 0 else 0.0)
        within = (f"{'within' if worse <= bound else 'OUTSIDE'} bound {100.0 * bound:g}%"
                  f" (worse by {100.0 * max(0.0, worse):.1f}%)")
    return f"verdict {name}: median {pct}; {rule}; {within}"


def record(pairs: list[dict], metrics: dict[str, dict], workload: str, trace: int) -> dict:
    """``pairs`` as the JSON object ``--out`` writes: each pair's runs, each
    metric's quartiles, wins and verdict, and each side's provenance (that of
    its first run that printed one, less the seed)."""
    out = {"workload": workload, "trace": trace, "provenance": {}, "pairs": [], "metrics": {}}
    for side in SIDES:
        given = [pair[side]["provenance"] for pair in pairs if pair[side].get("provenance")]
        out["provenance"][side] = ({k: v for k, v in given[0].items() if k != "seed"}
                                   if given else None)
    for i, pair in enumerate(pairs):
        entry = {"pair": i, "seed": pair[SIDES[0]]["seed"], "order": list(pair)}
        for side in SIDES:
            run, result = pair[side], pair[side]["result"] or {}
            entry[side] = {"exit": run["exit"], "bad": _bad(run),
                           **{k: result[k] for k in ("correct", "attempted", "failed")
                              if k in result},
                           "metrics": {name: m["value"]
                                       for name, m in result.get("metrics", {}).items()}}
        out["pairs"].append(entry)
    for name in _names(pairs):
        values, both = _paired(pairs, name)
        entry = {side: dict(zip(("q1", "median", "q3"), _quartiles(values[side])))
                 for side in SIDES if values[side]}
        if name in metrics:
            entry["wins"] = _wins(both, metrics[name]["better"])
        entry.update(paired=len(both), verdict=_verdict(name, values, both, metrics.get(name)))
        out["metrics"][name] = entry
    return out


def _bench_files(checkout: str) -> dict[str, bytes]:
    """``BENCHMARK.json`` and every file under ``bench/`` (bytecode caches
    aside), by path relative to ``checkout``."""
    paths = ["BENCHMARK.json"]
    for root, dirs, files in os.walk(os.path.join(checkout, "bench")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        paths += [os.path.relpath(os.path.join(root, f), checkout) for f in sorted(files)]
    out = {}
    for path in paths:
        try:
            with open(os.path.join(checkout, path), "rb") as fh:
                out[path] = fh.read()
        except FileNotFoundError:
            pass
    return out


def differing_bench_files(parent: str, change: str) -> list[str]:
    """The benchmark files whose bytes differ between the checkouts, or
    that only one of them has."""
    a, b = _bench_files(parent), _bench_files(change)
    return sorted(path for path in a.keys() | b.keys() if a.get(path) != b.get(path))


def run_line(i: int, side: str, run: dict, names: list[str]) -> str:
    """The line that reports run ``run``, the ``side`` of pair ``i``: its
    exit code, then its value of each metric of ``names`` it reports."""
    got = run["result"]["metrics"] if run["result"] else {}
    values = "".join(f", {name} {got[name]['value']:g}" for name in names if name in got)
    return f"pair {i} seed {run['seed']} {side}: exit {run['exit']}{values}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help='e.g. "41-50"')
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the pairs, quartiles, verdicts and "
                                  "provenance to this JSON file")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    differ = differing_bench_files(args.parent, args.change)
    if differ:
        print("the checkouts run different benchmarks; these files differ: "
              + ", ".join(differ), file=sys.stderr)
        return 2
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec.get("per_layer", [])}
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    pairs = []
    for i, seed in enumerate(args.seeds):
        pair = {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            pair[side] = run_once(checkouts[side], args.workload, seed, args.trace)
            print(run_line(i, side, pair[side], end_to_end), file=sys.stderr)
        pairs.append(pair)
    print(summarize(pairs, {name: m["better"] for name, m in metrics.items()}))
    print(verdicts(pairs, metrics))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record(pairs, metrics, args.workload, args.trace), fh, indent=1)
            fh.write("\n")
    return int(any(_bad(pair[side]) for pair in pairs for side in SIDES))


if __name__ == "__main__":
    sys.exit(main())
