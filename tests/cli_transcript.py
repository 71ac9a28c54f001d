"""Every output of the pcomb CLI on a fixed set of valid inputs, on stdout,
from one interpreter: run it on two checkouts and compare digests to show a
change kept the CLI byte-identical.

    PYTHONPATH=src python tests/cli_transcript.py | sha256sum
    sh tests/cli_transcript.sh [SRC_DIR] | sha256sum     (the same; SRC_DIR defaults to ./src)

Each step prints "== ARGS" and then what ``pcomb ARGS`` writes to stdout,
through ``pcomb.cli.run`` in a temporary directory; "cat FILE" prints a
file an earlier step wrote.  A step that exits non-zero stops the run.
"""

import json
import os
import sys
import tempfile

from pcomb.cli import run

SCENARIO = {"kind": "geometric", "p0": 0.5, "side": "right"}
TESTS = {"tests": [
    {"model": {"family": "binomial", "params": {"trials": 5, "prob": 0.5}},
     "side": "two", "x": 1},
    {"model": {"family": "poisson", "params": {"rate": 3.5}}, "side": "right", "x": 6},
    {"model": {"family": "custom", "support": [0, 1, 2], "pmf": [0.25, 0.5, 0.25]},
     "side": "left", "x": 2}]}


def _write_pvalues() -> None:
    """pv.json: two p-values against the distribution a.json twice."""
    with open("a.json", encoding="utf-8") as fh:
        a = json.load(fh)
    with open("pv.json", "w", encoding="utf-8") as fh:
        json.dump({"pvalues": [0.41, 1.0], "dists": [a, a]}, fh)


STEPS = [
    "pdist --family binomial --trials 5 --prob 0.5 --side two",
    "pdist --family negative-binomial --successes 3 --prob 0.4 --side left",
    "pdist --family noncentral-hypergeometric --population 50 --successes 20 --draws 10 "
    "--odds 1.5 --side two",
    "pdist --family custom --support 0,1,2 --pmf 0.25,0.5,0.25 --side right",
    "pdist --family hypergeometric --population 2000 --successes 1000 --draws 20 --side right "
    "--out h.json",
    "cat h.json",
    "pdist --atoms 0.4,0.41,0.42,1.0 --side left --out a.json",
    "cat a.json",
    _write_pvalues,
    "adjust --method fisher --pdist h.json",
    "adjust --method george --pdist a.json",
    *(f"combine --method {m} --input {f}"
      for m in ("fisher", "pearson", "george", "stouffer", "edgington")
      for f in ("tests.json", "pv.json")),
    "metrics --pdist h.json",
    "metrics --pdist h.json a.json --format json",
    "simulate --scenario sc.json --reps 2000 --seed 7 --n-grid 2,5,10",
    "simulate --scenario sc.json --reps 2000 --seed 7 --n-grid 2,5 --format json",
    "simulate --scenario sc.json --mode power --alt-grid 0.4,0.5 --n 20 --reps 2000 --seed 7 "
    "--methods fisher,lrt-geometric",
    "simulate --scenario sc.json --mode power --alt-grid 0.4,0.5 --n 20 --reps 2000 --seed 7 "
    "--format json",
    "example gene",
    "example gene --format json",
]


def transcript() -> None:
    """Run every step, writing the transcript to ``sys.stdout``."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, doc in (("sc.json", SCENARIO), ("tests.json", TESTS)):
                with open(name, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            for step in STEPS:
                if callable(step):
                    step()
                elif step.startswith("cat "):
                    with open(step[4:], encoding="utf-8") as fh:
                        sys.stdout.write(fh.read())
                else:
                    print(f"== {step}")
                    if run(step.split()) != 0:
                        raise RuntimeError(f"pcomb {step} failed")
        finally:
            os.chdir(home)


if __name__ == "__main__":
    transcript()
