#!/bin/sh
# The re-measurement behind loop/: the probe adding its products in a
# loop, against the same parent.  PARENT and CHANGE are two checkouts;
# OUT is where the records and every run's log go.
set -eu
PARENT=$1 CHANGE=$2 OUT=$3
PAIRS="$CHANGE/benchmarks/results/harness/PR52/pairs.py"
python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT" point_zipf 1997 10 15
python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT" point_zipf 8191 10 15
python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT/traced" point_zipf 1 1 15 1
python3 "$PAIRS" "$PARENT" "$CHANGE" "$OUT/traced" point_zipf 1997 3 15 1
