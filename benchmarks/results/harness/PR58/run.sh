#!/bin/sh
# The measurement sequence behind these records, one run at a time.  PARENT
# and CHANGE are two checkouts (the parent commit and this tree's files);
# OUT is where the records and every run's log go.
set -eu
PARENT=$1 CHANGE=$2 OUT=$3
PAIRS="$CHANGE/benchmarks/results/harness/PR52/pairs.py"
# The serve workload: 10 alternating pairs, 15 s a run, on the default
# seed and on the held-out seed 8191.
python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT" http_mix 1997 10 15
python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT" http_mix 8191 10 15
# The workloads that must not move: 5 pairs a seed.
for seed in 1997 8191; do
  for w in point_zipf adhoc_agg append_visible; do
    python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT" "$w" "$seed" 5 15
  done
done
# One traced http_mix run a side: route, summary-hit and shed shares.
python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT/traced" http_mix 1997 1 15 1
# A second append_visible set at seed 8191: the first read the change 5%
# slower (0/5 pairs) on a path this change does not touch.
python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT/append-again" append_visible 8191 5 15
