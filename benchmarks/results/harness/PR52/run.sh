#!/bin/sh
# The PR 52 measurement sequence, one run at a time.  PARENT and CHANGE
# are two checkouts (the parent commit, and this tree's files); OUT is
# where the records and every run's log go.  ~50 minutes on 2 cores.
set -eu
PARENT=$1 CHANGE=$2 OUT=$3
HERE=$(cd "$(dirname "$0")" && pwd)
pairs() { python3 "$HERE/pairs.py" "$PARENT" "$CHANGE" "$OUT" "$@"; }
pairs http_mix 1997 10 15
pairs http_mix 8191 10 15
for w in point_zipf adhoc_agg append_visible; do pairs "$w" 1997 5 15; done
for w in http_mix adhoc_agg point_zipf; do pairs "$w" 1997 3 15 1; done
python3 "$HERE/summarize.py" "$OUT" > "$OUT/pairs.txt"
(cd "$CHANGE" && python3 -m benchmarks.harness compare "$OUT/parent" "$OUT/change") > "$OUT/compare.txt" || true
