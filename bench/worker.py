"""One workload in a fresh interpreter; started by run.py.

The worker imports pcomb, builds the workload's inputs and prints ``READY``;
run.py takes the time from the start of the process to that line as one
set-up sample.  With ``--setup-only`` it stops there.  Otherwise it runs
the benchmark's own preparation, then whole rounds, in whole cycles, until
``--seconds`` have passed, runs the workload's closing
operations and checks, and prints one JSON line with the round times, the
counts and, with ``--trace 1``, the per-layer figures.

With tracing on, a warm-up round comes first, and then each round runs
twice, plain and traced, so the two sets do the same work.  The per-layer
figures come from the traced rounds, and the tracing overhead from the ratio
of the work rates of the two runs of each round.  A cli round runs other
processes, which the tracer does not reach, so on cli the layers and the
overhead come from passes of the same requests in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time


def tracer_targets():
    """Public functions of every layer, plus the per-configuration set-up
    of the simulation harness."""
    cells_per_dist = 2 * 5   # two laws (surrogate and exact) for five methods

    def ranked_cells(a, _):
        dists = a["dists"]
        dists = [dists] if hasattr(dists, "atoms") else list(dists)
        return {"metrics.coupling_cells": cells_per_dist * sum(len(d) for d in dists)}

    def replicates(grid_name):
        return lambda a, _: {"simulate.replicates": a["reps"] * len(a[grid_name])}

    return [
        ("pcomb.distributions", "make_statistic_model",
         lambda a, _: {"distributions.models": 1}),
        ("pcomb.distributions", "pvalue_distribution",
         lambda a, r: {"distributions.atoms": len(r)}),
        ("pcomb.distributions", "custom_pvalue_distribution",
         lambda a, r: {"distributions.atoms": len(r)}),
        ("pcomb.adjust", "adjust", None),
        ("pcomb.adjust", "adjust_generic",
         lambda a, _: {"adjust.generic_cells": len(a["dist"])}),
        ("pcomb.combine", "surrogate", None),
        ("pcomb.combine", "combine_observations",
         lambda a, _: {"combine.tests": len(a["dists"])}),
        ("pcomb.metrics", "rank_methods", ranked_cells),
        ("pcomb.simulate", "power_experiment", replicates("alt_grid")),
        ("pcomb.simulate", "type1_experiment", replicates("n_grid")),
        ("pcomb.simulate", "_ConfigPrep", None),
        ("pcomb.simulate", "gene_example", None),
    ]


def _inside(module: str, part: str) -> bool:
    return module == part or module.startswith(part + ".")


def import_times() -> dict:
    """Cumulative import times of pcomb and of the scipy parts it pulls in,
    from ``-X importtime`` in a fresh interpreter.  scipy loads its
    subpackages lazily, so ``scipy.stats`` has no line of its own: a part's
    time is the sum over its modules whose importer lies outside it."""
    from env import child_env
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pcomb"],
                          env=child_env(), capture_output=True, text=True, timeout=120,
                          check=True)
    parts = {"pcomb": "pcomb.import_s", "scipy.stats": "pcomb.import_scipy_stats_s",
             "scipy.integrate": "pcomb.import_scipy_integrate_s"}
    out = dict.fromkeys(parts.values(), 0.0)
    importers = []                 # (depth, module); lines come children first
    for line in reversed(proc.stderr.splitlines()):
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$", line)
        if not m:
            continue
        depth, module = len(m.group(2)), m.group(3)
        while importers and importers[-1][0] >= depth:
            importers.pop()
        importer = importers[-1][1] if importers else ""
        for part, name in parts.items():
            if _inside(module, part) and not _inside(importer, part):
                out[name] += int(m.group(1)) * 1e-6
        importers.append((depth, module))
    return out


def layer_metrics(tracer, traced_rounds: int) -> dict:
    """Per-round time and counts of each layer over the traced rounds."""
    per = 1.0 / traced_rounds
    s, c, incl = tracer.self_s, tracer.counts, tracer.inclusive_s
    prep = incl["_ConfigPrep"] * per
    kernel = (incl["power_experiment"] + incl["type1_experiment"]) * per - prep
    rank_self = s["metrics"] * per
    cells = c["metrics.coupling_cells"] * per
    replicates = c["simulate.replicates"] * per
    return {
        "distributions.model_build_s": incl["make_statistic_model"] * per,
        "distributions.models": c["distributions.models"] * per,
        "distributions.pdist_s": (incl["pvalue_distribution"]
                                  + incl["custom_pvalue_distribution"]) * per,
        "distributions.atoms": c["distributions.atoms"] * per,
        "adjust.adjust_s": incl["adjust"] * per,
        "adjust.adjust_calls": tracer.calls["adjust"] * per,
        "adjust.generic_s": incl["adjust_generic"] * per,
        "adjust.generic_cells": c["adjust.generic_cells"] * per,
        "combine.self_s": s["combine"] * per,
        "combine.tests": c["combine.tests"] * per,
        "metrics.rank_self_s": rank_self,
        "metrics.coupling_cells": cells,
        "metrics.us_per_cell": 1e6 * rank_self / cells if cells else 0.0,
        "simulate.prep_s": prep,
        "simulate.kernel_s": kernel,
        "simulate.replicates": replicates,
        "simulate.us_per_replicate": 1e6 * kernel / replicates if replicates else 0.0,
        "simulate.gene_example_s": incl["gene_example"] * per,
    }


def setup(workload: str, seed: int, smoke: bool, workdir: str):
    """Everything before READY: import pcomb and build the inputs."""
    import workloads
    os.makedirs(workdir, exist_ok=True)
    return workloads.WORKLOADS[workload](seed, smoke, workdir)


def run_rounds(wl, seconds: float, tracer=None) -> tuple[list, list[str]]:
    """Whole rounds until ``seconds`` have passed and the rounds end on a
    whole cycle of the workload (see ``workloads.Workload``).  Without a
    tracer, round i runs the workload's round i.  With one, a warm-up round
    comes first; then each round index runs once plain and once traced.
    Returns the rounds and the kind of each: plain, traced or warm-up."""
    rounds, kinds = [], []

    def run(i, kind):
        if kind == "traced":
            tracer.install()
        try:
            rounds.append(wl.round(i))
        finally:
            if kind == "traced":
                tracer.uninstall()
        kinds.append(kind)

    start = time.perf_counter()
    if tracer is not None:
        run(0, "warm-up")
    i = 0
    while True:
        run(i, "plain")
        if tracer is not None:
            run(i, "traced")
        i += 1
        if i % wl.cycle == 0 and time.perf_counter() - start >= seconds:
            return rounds, kinds


def round_trace_ratios(rounds, kinds) -> list[float]:
    """Time per unit of work of each traced round over that of the plain
    run of the same round."""
    plain = [rd for rd, k in zip(rounds, kinds) if k == "plain"]
    traced = [rd for rd, k in zip(rounds, kinds) if k == "traced"]
    return [(t.clock.scaled_s / t.work) / (p.clock.scaled_s / p.work)
            for p, t in zip(plain, traced)]


def in_process_trace_ratios(wl, tracer, passes: int = 3) -> list[float]:
    """cli: pairs of in-process passes of the requests, plain and then
    traced; the traced time of each pair over its plain time."""
    def total(fin):
        return sum(t for t, _, _ in fin.output.values())
    ratios = []
    for _ in range(passes):
        plain = wl.finish()
        tracer.install()
        try:
            traced = wl.finish()
        finally:
            tracer.uninstall()
        ratios.append(total(traced) / total(plain))
    return ratios


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    wl = setup(args.workload, args.seed, args.smoke, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    wl.prepare()
    from tracer import Tracer
    tracer = Tracer(tracer_targets())
    in_process = args.workload == "cli"
    rounds, kinds = run_rounds(wl, args.seconds,
                               tracer if args.trace and not in_process else None)
    fin = wl.finish()
    if args.trace:
        ratios = (in_process_trace_ratios(wl, tracer) if in_process
                  else round_trace_ratios(rounds, kinds))
    failures = wl.check(rounds, fin)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)

    def rates(scaled=True):
        """Work per second of each plain round, by default at the reference
        speed."""
        return [rd.work / (rd.clock.scaled_s if scaled else rd.clock.raw_s)
                for rd, k in zip(rounds, kinds) if k == "plain"]
    result = {
        "workload": args.workload,
        "unit": wl.unit,
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds) + fin.attempted,
        "failed": sum(len(r.failed) for r in rounds),
        "rounds": len(rounds),
        "round_kinds": kinds,
        "round_s": [rd.clock.raw_s for rd in rounds],
        "work_per_round": [r.work for r in rounds],
        "raw_rates": rates(scaled=False),
        "probe_over_ref": [rd.clock.raw_s / rd.clock.scaled_s for rd in rounds],
        "rates": rates(),
        "work_per_s": statistics.median(rates()),
        "raw_work_per_s": statistics.median(rates(scaled=False)),
        "generator": fin.generator,
    }
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0

    if args.trace:
        layers = {}
        if in_process:
            layers.update(layer_metrics(tracer, len(ratios)))
            layers.update(wl.call_layers(rounds, fin))
        else:
            layers.update(layer_metrics(tracer, kinds.count("traced")))
        layers.update(fin.layers)
        layers.update(import_times())
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
        result["layers"] = layers
        result["trace_missing"] = tracer.missing
        result["spans"] = {"kept": len(tracer.spans), "dropped": tracer.dropped,
                           "columns": ["id", "parent", "name", "start", "end"],
                           "rows": tracer.spans}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
