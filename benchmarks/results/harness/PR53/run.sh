#!/bin/sh
# The measurement sequence behind these records, one run at a time.  PARENT and CHANGE
# are two checkouts (the parent commit with benchmarks/at_scale.py
# copied in, and this tree's files); OUT is where the records and every
# run's log go.  About 60 minutes on 2 cores.
set -eu
PARENT=$1 CHANGE=$2 OUT=$3
PAIRS="$CHANGE/benchmarks/results/harness/PR52/pairs.py"
mkdir -p "$OUT/at_scale/logs"
# At scale: both workloads the harness can build at 100,000 rows
# in-process, 1 plain and 3 traced runs a side, sides alternating.
first=parent second=change
for rows in 20000 100000; do
  for w in adhoc_agg point_zipf; do
    for side in $first $second; do
      if [ "$side" = parent ]; then tree=$PARENT; else tree=$CHANGE; fi
      (cd "$tree" && python3 -m benchmarks.at_scale --workload "$w" --rows "$rows" \
        --plain 1 --traced 3 --out "$OUT/at_scale/$side") \
        > "$OUT/at_scale/logs/$side-$w-$rows.txt" 2>&1
    done
    t=$first; first=$second; second=$t
  done
done
# The harness model: 10 plain pairs per workload on the held-out seed,
# and one traced pair per workload on the default seed, 1997.
for w in point_zipf adhoc_agg http_mix append_visible; do
  python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT" "$w" 8191 10 15
done
for w in point_zipf adhoc_agg http_mix append_visible; do
  python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT" "$w" 1997 1 15 1
done
