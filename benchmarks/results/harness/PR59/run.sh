#!/bin/sh
# The measurement sequence behind these records, one run at a time.  PARENT
# and CHANGE are two checkouts (the parent commit and this tree's files);
# OUT is where the records and every run's log go.
set -eu
PARENT=$1 CHANGE=$2 OUT=$3
PAIRS="$CHANGE/benchmarks/results/harness/PR52/pairs.py"
START=$(date +%s)
# The claimed workload: 10 alternating pairs, 15 s a run, on the default
# seed and on the held-out seed 8191.
python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT" point_zipf 1997 10 15
python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT" point_zipf 8191 10 15
# The workloads that must not move: 5 pairs a seed.
for seed in 1997 8191; do
  for w in adhoc_agg http_mix append_visible; do
    python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT" "$w" "$seed" 5 15
  done
done
# Traced runs: point_zipf 3 a side (the per-layer cell times) and 1 a side
# at seed 1 (CI's committed-record gate).
python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT/traced" point_zipf 1997 3 15 1
python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT/traced" point_zipf 1 1 15 1
# The second set of the claim, an hour after the first began.
WAIT=$((START + 3600 - $(date +%s)))
if [ "$WAIT" -gt 0 ]; then sleep "$WAIT"; fi
python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT/second" point_zipf 1997 10 15
