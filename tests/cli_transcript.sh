#!/bin/sh
# Every output of the pcomb CLI on a fixed set of valid inputs, on stdout:
# run it on two checkouts and compare digests to show a change kept the CLI
# byte-identical.
#   sh tests/cli_transcript.sh [SRC_DIR] | sha256sum     (SRC_DIR defaults to ./src)
set -e
export PYTHONPATH="$(cd "${1:-src}" && pwd)"
work="$(mktemp -d)"; trap 'rm -rf "$work"' EXIT; cd "$work"
p() { echo "== $*"; python -m pcomb.cli "$@"; }
echo '{"kind": "geometric", "p0": 0.5, "side": "right"}' > sc.json
echo '{"tests": [{"model": {"family": "binomial", "params": {"trials": 5, "prob": 0.5}}, "side": "two", "x": 1}, {"model": {"family": "poisson", "params": {"rate": 3.5}}, "side": "right", "x": 6}, {"model": {"family": "custom", "support": [0, 1, 2], "pmf": [0.25, 0.5, 0.25]}, "side": "left", "x": 2}]}' > tests.json
p pdist --family binomial --trials 5 --prob 0.5 --side two
p pdist --family negative-binomial --successes 3 --prob 0.4 --side left
p pdist --family noncentral-hypergeometric --population 50 --successes 20 --draws 10 --odds 1.5 --side two
p pdist --family custom --support 0,1,2 --pmf 0.25,0.5,0.25 --side right
p pdist --family hypergeometric --population 2000 --successes 1000 --draws 20 --side right --out h.json; cat h.json
p pdist --atoms 0.4,0.41,0.42,1.0 --side left --out a.json; cat a.json
python -c "import json; a = json.load(open('a.json')); json.dump({'pvalues': [0.41, 1.0], 'dists': [a, a]}, open('pv.json', 'w'))"
p adjust --method fisher --pdist h.json
p adjust --method george --pdist a.json
for m in fisher pearson george stouffer edgington; do
    p combine --method $m --input tests.json
    p combine --method $m --input pv.json
done
p metrics --pdist h.json
p metrics --pdist h.json a.json --format json
p simulate --scenario sc.json --reps 2000 --seed 7 --n-grid 2,5,10
p simulate --scenario sc.json --reps 2000 --seed 7 --n-grid 2,5 --format json
p simulate --scenario sc.json --mode power --alt-grid 0.4,0.5 --n 20 --reps 2000 --seed 7 --methods fisher,lrt-geometric
p simulate --scenario sc.json --mode power --alt-grid 0.4,0.5 --n 20 --reps 2000 --seed 7 --format json
p example gene
p example gene --format json
