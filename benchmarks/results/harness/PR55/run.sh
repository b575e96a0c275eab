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
# The traced seed-1 runs CI's committed-record gates compare with (PR30:
# point_zipf, PR31: adhoc_agg), one a side.
for w in adhoc_agg point_zipf; do
  python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT" "$w" 1 1 15 1
done
# adhoc_agg at 4,000, 20,000 and 100,000 rows: 1 plain and 3 traced runs a
# side, sides alternating.
mkdir -p "$OUT/at_scale/logs"
first=parent second=change
for rows in 4000 20000 100000; do
  for side in $first $second; do
    if [ "$side" = parent ]; then tree=$PARENT; else tree=$CHANGE; fi
    (cd "$tree" && python3 -m benchmarks.at_scale --workload adhoc_agg --rows "$rows" \
      --plain 1 --traced 3 --out "$OUT/at_scale/$side") \
      > "$OUT/at_scale/logs/$side-adhoc_agg-$rows.txt" 2>&1
  done
  t=$first; first=$second; second=$t
done
