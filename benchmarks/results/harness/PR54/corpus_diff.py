"""Which fields of the plan corpus differ between two of its versions.

    python benchmarks/results/harness/PR54/corpus_diff.py OLD.json NEW.json

Prints, for every field path (candidate lists indexed as ``[*]``), how
many of the records differ there, and exits 1 if any record differs
outside the fields a pricing change may move: ``costs``,
``explain.estimated_cost_ms`` and ``explain.candidates[*].cost_ms``.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter

PRICES = {"costs", "explain.estimated_cost_ms", "explain.candidates[*].cost_ms"}


def leaves(value, path=""):
    """``(path, value)`` for every leaf of a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for index, item in enumerate(value):
            for leaf, inner in leaves(item, f"{path}[{index}]"):
                yield leaf, inner
    else:
        yield path, value


def star(path: str) -> str:
    return re.sub(r"\[\d+\]", "[*]", path)


def main(argv: list[str]) -> int:
    old, new = (json.load(open(name))["records"] for name in argv[:2])
    assert old.keys() == new.keys(), "the two corpora hold different queries"
    moved: Counter = Counter()
    for key in old:
        a, b = dict(leaves(old[key])), dict(leaves(new[key]))
        fields = {star(path) for path in a.keys() | b.keys() if a.get(path) != b.get(path)}
        moved.update(fields)
    for field, count in sorted(moved.items()):
        print(f"{field}: {count} of {len(old)} records")
    outside = set(moved) - PRICES
    print("outside the prices:", sorted(outside) or "nothing")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
