"""pcomb benchmark: one workload per run, from a source checkout, no install.

    python3 bench/run.py --workload simulate --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --smoke            # every workload, tiny, all checks

The run starts the worker (bench/worker.py) SETUP_SAMPLES times in a fresh
interpreter.  Each start is timed up to the worker's READY line (import
pcomb, inputs built) and is one set-up sample, scaled to the reference speed
by the speed probes (probe.py) run between starts; the last start goes on to
measure.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full result, with provenance and, when traced, the spans, is written to
``.bench_out/``.  The exit code is 1 when a check fails and 2 when the run
cannot be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from env import ROOT, SRC, child_env
from probe import PROBE_REF_S, speed_probe

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("simulate", "analyze", "diagnose", "cli")
SETUP_SAMPLES = 3
#: a run must end within 180 s; the workers are stopped after this
RUN_TIMEOUT_S = 170.0


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def provenance(seed: int, generator) -> dict:
    def version(module):
        try:
            return __import__(module).__version__
        except ImportError:
            return None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "pcomb")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "commit": commit,
            "src_sha256": digest.hexdigest(), "seed": seed, "generator": generator}


def run_worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
               samples: int) -> tuple[dict, dict | None]:
    """Set-up samples, raw and scaled to the reference speed, and the
    worker's result (None if it failed)."""
    env = child_env()
    workdir = os.path.join(OUT, f"work-{workload}-{os.getpid()}")
    base = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", workdir] + (["--smoke"] if smoke else [])
    setup, probes, result = [], [], None
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        for i in range(samples):
            last = i == samples - 1
            probes.append(speed_probe())
            t0 = time.perf_counter()
            proc = subprocess.Popen(base + ([] if last else ["--setup-only"]), cwd=ROOT,
                                    env=env, stdout=subprocess.PIPE, text=True)
            timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                ready = proc.stdout.readline()
                setup.append(time.perf_counter() - t0)
                rest = proc.stdout.read()
            finally:
                proc.stdout.close()
                proc.wait()
                timer.cancel()
            if ready.strip() != "READY" or proc.returncode != 0:
                print(f"bench: {workload} worker exited {proc.returncode}", file=sys.stderr)
                break
        else:
            lines = rest.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # a start is scaled by the probes on either side of it; the last start
    # only by the one before it, as the worker is measuring after it
    around = [(a + b) / 2.0 for a, b in zip(probes, probes[1:])] + probes[-1:]
    return {"raw_s": setup,
            "scaled_s": [t * PROBE_REF_S / p for t, p in zip(setup, around)]}, result


def run_one(workload, seed, seconds, trace, smoke) -> tuple[dict | None, dict]:
    samples = 1 if smoke else SETUP_SAMPLES
    setup, result = run_worker(workload, seed, seconds, trace, smoke, samples)
    if result is None:
        return None, {}
    spans = result.pop("spans", None)
    result["setup"] = setup
    result["provenance"] = provenance(seed, result.get("generator"))
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if spans is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    spec = _benchmark_spec()
    if trace:
        # a layer the workload does not reach reads 0
        metrics = {m["name"]: {"value": result["layers"].get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        measured = {"setup_s": statistics.median(setup["scaled_s"]),
                    "scaled_work_per_s": result["work_per_s"],
                    "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    return line, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, one round, every check; all workloads unless "
                         "--workload is given")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pcomb", "__init__.py")):
        print(f"bench: no pcomb sources under {SRC}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else _benchmark_spec()["run_seconds"]

    if args.smoke:
        ok = True
        for workload in [args.workload] if args.workload else WORKLOADS:
            t0 = time.perf_counter()
            line, result = run_one(workload, args.seed, seconds, args.trace, True)
            good = line is not None and line["correct"]
            ok &= good
            print(f"{'PASS' if good else 'FAIL'} {workload}: "
                  f"{result.get('attempted')} attempted, {result.get('failed')} failed, "
                  f"{time.perf_counter() - t0:.1f} s")
        if args.workload:
            print(json.dumps(line))
        return 0 if ok else 1

    line, result = run_one(args.workload, args.seed, seconds, args.trace, False)
    if line is None:
        return 2
    print("provenance: " + json.dumps(result["provenance"]))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
