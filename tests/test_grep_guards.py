"""Five of CI's grep guards, run by pytest as well.

The ``.github/workflows/ci.yml`` steps "One way to ask" and "Checked
once" grep the tree for names and shapes that must not come back: a
route switch, a second reconstruction shape, a deleted writer or query
door, a storage tier pricing the planner outside the lab, a planner
that re-checks a resolved selection, and the three-operand
sum-of-squares einsum.  The steps "Reused handler
threads, own sockets" and "Serve answers where it accepts, one server,
one front door" guard the serving tier: one thread-start site in
``serve/server.py``, no ``obs/serve.py`` and no name of the server
layer it held, no stdlib server plumbing or hand-off queue, no process
pool or breaker behind ``repro serve``, no second HTTP server, no
warehouse surface and no process or future machinery in
``src/repro/serve``.  The build guard ("a k_max-deep tensor, a queue
of cells or a fourth scan is back in the build") keeps pass 2 a chunk
deep, its histograms free of cell keys, and build.py free of scans;
the delta guard keeps the packed ``row*M + col`` key, its record size,
its re-keying and its file magic out of the product (the lab's hash
table keeps the paper's key); the summary guard ("One summary
profile") keeps the tile grid, the stored min/max and the per-customer
file out of ``src/repro``; the cell-probe guard keeps NumPy out of the
bodies of ``CompressedMatrix.cell`` and ``MatrixStore.row``, and the
page-read guard keeps ``num_pages()`` and ``fstat`` out of
``FilePager.read_page``.
This test runs the same patterns over the same
paths, so a local ``pytest`` catches a breach before CI does.  The CI
steps stay as they are; a pattern changed there is changed here too.
(Patterns that would match their own text here are spelled with a
one-letter class, e.g. ``row_total[s]``.)
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: A process pool, its retry loop or its breaker (CI's ``$GONE``).
_GONE = r"ProcessQueryExecutor|process_executor|BrokenProcessPool|CircuitBreaker|breaker"

#: name -> (pattern, paths under the root, directory names skipped[,
#: file suffixes searched — every text file when absent]).
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
    "a storage tier pricing the planner": (
        r"StorageTier|seek_ms|mb_per_s|for_backend|page_read_ms",
        ("src/repro",),
        ("lab",),
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
    "stdlib server plumbing or a hand-off queue": (
        r"http\.server|socketserver|BaseHTTPRequestHandle[r]|SimpleQueu[e]",
        ("src/repro",),
        (),
    ),
    "thread-per-connection code in the serving tier": (
        r"ThreadingHTTPServe[r]|ThreadingMixI[n]|process_request_threa[d]",
        ("src/repro/serve",),
        (),
    ),
    "the server layer that sat under the query server": (
        r"HealthStat[e]|GracefulHTTPServe[r]|BaseEndpointHandle[r]|_BoundQueryHandle[r]",
        ("src/repro",),
        (),
    ),
    "the pool or its breaker in src/repro/serve": (_GONE, ("src/repro/serve",), ()),
    "the second HTTP server": (
        r"Metrics[S]erver|_Metrics[H]andler|Metrics[S]napshotWriter|serve[-_]metrics",
        ("src", "tests", "docs", ".github"),
        ("history",),
        (".py", ".md", ".yml"),
    ),
    "warehouse surface in cli, serve or obs": (
        r"verified_rmspe|wh-ingest|wh-list|wh-verify|wh-drop",
        ("src/repro/cli.py", "src/repro/serve", "src/repro/obs"),
        (),
    ),
    "process or future machinery in src/repro/serve": (
        r"multiprocessing|concurrent\.futures",
        ("src/repro/serve",),
        (),
    ),
    "a k_max-deep tensor in pass 2": (
        r"cumsum|\[:, None, :\]|\[None, :, :\]|max_tensor_rows",
        ("src/repro/core/svdd.py",),
        (),
    ),
    "cell keys in the pass-2 histograms": (r"_keys", ("src/repro/core/histogram.py",), ()),
    "a queue of cells handed to pass 3": (
        r"delta_queu[e]|\.finaliz[e]\(\)|def finaliz[e]\(self",
        ("src", "tests"),
        (),
    ),
    "the packed delta key": (
        r"DELTA_KEY_BYTES|DELTA_RECORD_BYTES|delta_keys_at|cell_key|RPRDLT0[12]",
        ("src/repro",),
        ("lab",),
    ),
    "the tile grid, the stored min/max or the per-customer profile": (
        r"summary_row[s]|CHUNK_COL[S]|S_MI[N]|S_MA[X]",
        ("src/repro",),
        (),
    ),
    "the tile grid's row blocks in the summaries": (
        r"\bBLOCK_ROW[S]\b",
        ("src/repro/summaries",),
        (),
    ),
    "a scan spelled in build.py": (
        r"_row_chunks|zero_row_scan|iter_row",
        ("src/repro/core/build.py",),
        (),
    ),
}


def _text_files(paths, skipped, suffixes=None):
    """Every text file under ``paths`` (grep -rI's set), byte caches aside."""
    for name in paths:
        path = ROOT / name
        for file in [path] if path.is_file() else sorted(path.rglob("*")):
            parts = set(file.relative_to(ROOT).parts)
            if not file.is_file() or "__pycache__" in parts or parts & set(skipped):
                continue
            if suffixes is not None and file.suffix not in suffixes:
                continue
            data = file.read_bytes()
            if b"\0" not in data:
                yield file, data.decode("utf-8", errors="replace")


@pytest.mark.parametrize("name", GUARDS)
def test_nothing_the_guard_forbids_is_back(name):
    pattern, paths, skipped, *suffixes = GUARDS[name]
    found = [
        f"{file.relative_to(ROOT)}:{number}: {line.strip()}"
        for file, text in _text_files(paths, skipped, *suffixes)
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


def test_the_server_starts_threads_at_one_site():
    """Handler threads accept for themselves: one ``threading.Thread(``
    line in ``serve/server.py`` (CI's ``grep -c``), and no
    ``obs/serve.py`` (CI's ``test ! -e``)."""
    text = (ROOT / "src/repro/serve/server.py").read_text()
    assert sum("threading.Thread(" in line for line in text.splitlines()) == 1
    assert not (ROOT / "src/repro/obs/serve.py").exists()


def _sed_range(lines: list[str], first: str, last: str) -> list[str]:
    """``sed -n '/first/,/last/p'``: each run of lines from one matching
    ``first`` through the next matching ``last`` (or the end)."""
    out, inside = [], False
    for line in lines:
        if not inside and re.search(first, line):
            inside = True
            out.append(line)
            continue
        if inside:
            out.append(line)
            if re.search(last, line):
                inside = False
    return out


def test_no_pool_or_breaker_behind_repro_serve():
    """``cmd_serve`` and the serve flags' table carry no pool or
    breaker (CI cuts ``cli.py`` with ``sed`` at these anchors)."""
    lines = (ROOT / "src/repro/cli.py").read_text().splitlines()
    cut = _sed_range(lines, r"^def cmd_serve\(", r"^def format_top_frame")
    cut += _sed_range(lines, r"^_SERVE_PORT = ", r"^COMMANDS = ")
    assert cut
    assert not [line for line in cut if re.search(_GONE, line)]


#: CI's cell-probe guard: ``(file, first, last)`` sed ranges, each the
#: body of one step of a cell probe.
_CELL_PROBE = [
    ("src/repro/core/store.py", r"^    def cell\(", r"^    def _u_blocks\("),
    ("src/repro/storage/matrix_store.py", r"^    def row\(", r"^    def read_rows\("),
]


def _method_body(path: str, first: str, last: str) -> list[str]:
    """The lines of ``path`` from ``first`` up to, not including,
    ``last`` (CI's ``sed -n '/first/,/last/p' | sed '$d'``); both
    anchors must stay, once."""
    text = (ROOT / path).read_text()
    for anchor in (first, last):
        assert len(re.findall(anchor, text, re.MULTILINE)) == 1, anchor
    body = _sed_range(text.splitlines(), first, last)[:-1]
    assert body
    return body


@pytest.mark.parametrize("path, first, last", _CELL_PROBE, ids=["cell", "row"])
def test_a_cell_probe_builds_no_numpy_array(path, first, last):
    """``CompressedMatrix.cell`` and ``MatrixStore.row`` are k
    multiply-adds on Python floats: neither body names NumPy, nor calls
    the builtin ``sum``, which compensates from Python 3.12."""
    body = _method_body(path, first, last)
    assert not [line for line in body if re.search(r"np\.|numpy|\bsum\(", line)]


def test_a_page_read_asks_for_no_file_size():
    """``FilePager.read_page`` checks its range against the size the
    pager tracks: its body calls no ``num_pages()`` and no ``fstat``
    (CI's "A page read asks the kernel for nothing but the page")."""
    body = _method_body(
        "src/repro/storage/pager.py", r"^    def read_page\(", r"^    def write_page\("
    )
    assert not [line for line in body if re.search(r"num_pages\(|fstat", line)]


def test_the_breaker_module_stays_gone():
    assert not (ROOT / "src/repro/serve/breaker.py").exists()
