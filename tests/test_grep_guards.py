"""Two of CI's grep guards, run by pytest as well.

The ``.github/workflows/ci.yml`` steps "One way to ask" and "Checked
once" grep the tree for names and shapes that must not come back: a
route switch, a second reconstruction shape, a deleted writer or query
door, a planner that re-checks a resolved selection, and the
three-operand sum-of-squares einsum.  This test runs the same patterns
over the same paths, so a local ``pytest`` catches a breach before CI
does.  The CI steps stay as they are; a pattern changed there is
changed here too.  (Patterns that would match their own text here are
spelled with a one-letter class, e.g. ``row_total[s]``.)
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: name -> (pattern, paths under the root, directory names skipped).
GUARDS = {
    "a route switch or a second reconstruction shape": (
        r"use_fast_path|use_summaries|reconstruct_cells|reconstruct_column"
        r"|svd_error_bound|def cells\(|def column\(|cmd_cell|cmd_aggregate",
        ("src/repro",),
        (),
    ),
    "a deleted writer or query door": (
        r"CompressedMatrix\.save|def save\(|row_total[s]|column_total[s]|top_row[s]|as_stor[e]",
        ("src", "tests", "examples", "docs", "README.md"),
        ("history",),
    ),
    "the planner re-checking a resolved selection": (
        r"_check_rows|_run_of",
        ("src/repro/plan",),
        (),
    ),
    "the three-operand sumsq einsum": (
        re.escape('einsum("nk,kl,nl->"'),
        ("src/repro",),
        (),
    ),
}


def _text_files(paths, skipped):
    """Every text file under ``paths`` (grep -rI's set), byte caches aside."""
    for name in paths:
        path = ROOT / name
        for file in [path] if path.is_file() else sorted(path.rglob("*")):
            parts = set(file.relative_to(ROOT).parts)
            if not file.is_file() or "__pycache__" in parts or parts & set(skipped):
                continue
            data = file.read_bytes()
            if b"\0" not in data:
                yield file, data.decode("utf-8", errors="replace")


@pytest.mark.parametrize("name", GUARDS)
def test_nothing_the_guard_forbids_is_back(name):
    pattern, paths, skipped = GUARDS[name]
    found = [
        f"{file.relative_to(ROOT)}:{number}: {line.strip()}"
        for file, text in _text_files(paths, skipped)
        for number, line in enumerate(text.splitlines(), 1)
        if re.search(pattern, line)
    ]
    assert not found, f"{name} is back:\n" + "\n".join(found)


@pytest.mark.parametrize(
    "anchor", [r"^def cmd_serve\(", r"^def format_top_frame", r"^_SERVE_PORT = ", r"^COMMANDS = "]
)
def test_the_serve_guard_keeps_its_sed_anchors(anchor):
    """CI's serve guard cuts ``cli.py`` between these lines: each must
    stay, once."""
    text = (ROOT / "src/repro/cli.py").read_text()
    assert len(re.findall(anchor, text, re.MULTILINE)) == 1
