#!/bin/sh
# The measurement sequence behind these records, one run at a time.  PARENT
# and CHANGE are two checkouts (the parent commit and this tree's files);
# OUT is where the records and every run's log go.
set -eu
PARENT=$1 CHANGE=$2 OUT=$3
PAIRS="$CHANGE/benchmarks/results/harness/PR52/pairs.py"
# 10 alternating pairs per workload, 15 s a run, on the default seed and
# on the held-out seed 8191.
for seed in 1997 8191; do
  for w in append_visible adhoc_agg http_mix point_zipf; do
    python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT" "$w" "$seed" 10 15
  done
done
# Traced runs: append_visible 3 a side (refresh_ms, peak_rss_mb beside the
# pass count), http_mix 1 a side (route and hit shares), and adhoc_agg at
# seed 1, the run CI's committed-record gate compares with.
python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT/traced" append_visible 1997 3 15 1
python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT/traced" http_mix 1997 1 15 1
python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT/traced" adhoc_agg 1 1 15 1
