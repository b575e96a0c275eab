#!/bin/sh
# The measurement sequence behind these records, one run at a time.  PARENT and CHANGE
# are two checkouts (the parent commit and this tree's files); OUT is
# where the records and every run's log go.
set -eu
PARENT=$1 CHANGE=$2 OUT=$3
PAIRS="$CHANGE/benchmarks/results/harness/PR52/pairs.py"
mkdir -p "$OUT/at_scale/logs"
# cost_ratio_p50: 3 traced runs a side of each workload that plans, on
# the harness model, and of adhoc_agg at 20,000 and 100,000 rows;
# sides alternate.
first=parent second=change
for job in adhoc_agg:4000 http_mix:4000 append_visible:4000 adhoc_agg:20000 adhoc_agg:100000; do
  w=${job%%:*} rows=${job##*:}
  for side in $first $second; do
    if [ "$side" = parent ]; then tree=$PARENT; else tree=$CHANGE; fi
    (cd "$tree" && python3 -m benchmarks.at_scale --workload "$w" --rows "$rows" \
      --plain 0 --traced 3 --out "$OUT/at_scale/$side") \
      > "$OUT/at_scale/logs/$side-$w-$rows.txt" 2>&1
  done
  t=$first; first=$second; second=$t
done
# The harness model: one traced pair of point_zipf on the default seed
# (the others' traced records are above), then 10 plain pairs per
# workload on the held-out seed 8191.
python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT" point_zipf 1997 1 15 1
for w in point_zipf adhoc_agg http_mix append_visible; do
  python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT" "$w" 8191 10 15
done
