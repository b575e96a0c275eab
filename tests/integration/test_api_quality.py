"""Meta-tests on API quality: documentation, the product/lab import
boundary and roundtrip fuzzing."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import CompressedMatrix, SVDDCompressor, build_compressed
from repro.exceptions import BudgetError


def _iter_modules():
    for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
        if module_info.name == "repro.__main__":
            continue  # importing it would run the CLI
        yield importlib.import_module(module_info.name)


def _walk_public_callables():
    """Yield every public function/class/method in the repro package."""
    for module in _iter_modules():
        module_info_name = module.__name__
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module_info_name:
                continue  # re-export; documented at its home
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield f"{module_info_name}.{name}", obj
                if inspect.isclass(obj):
                    for meth_name, meth in vars(obj).items():
                        if meth_name.startswith("_"):
                            continue
                        if inspect.isfunction(meth):
                            yield f"{module_info_name}.{name}.{meth_name}", meth


class TestDocumentation:
    def test_every_public_item_has_a_docstring(self):
        """Deliverable (e): doc comments on every public item."""
        missing = [
            qualname
            for qualname, obj in _walk_public_callables()
            if not (inspect.getdoc(obj) or "").strip()
        ]
        assert missing == [], f"undocumented public items: {missing}"

    def test_every_module_has_a_docstring(self):
        missing = [
            module.__name__
            for module in _iter_modules()
            if not (module.__doc__ or "").strip()
        ]
        assert missing == [], f"undocumented modules: {missing}"

    def test_top_level_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


#: The one edge that exists: ``repro scatter`` prints Appendix A's plot,
#: a paper artifact, from inside its handler.  This is the whole
#: allowance, so a second edge — ``core/__init__.py`` re-exporting a lab
#: class again, say — fails.
_KNOWN_LAB_EDGES = {("repro.cli", "repro.lab.viz")}

_SRC = Path(repro.__file__).parent


def _imported_names(path: Path):
    """Every dotted name ``path`` imports, anywhere in the file:
    ``import a.b`` gives ``a.b``; ``from a import b`` gives ``a`` and
    ``a.b`` (``b`` may be a submodule)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            # The package spells every import absolutely; a relative one
            # would need resolving before it could be judged.
            assert node.level == 0, f"relative import in {path}"
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def test_product_modules_do_not_import_the_lab():
    """Product or lab is a path: no file under ``src/repro`` outside
    ``lab/`` — every ``__init__`` included — imports ``repro.lab``, at
    module level or lazily."""
    edges = set()
    for path in sorted(_SRC.rglob("*.py")):
        relative = path.relative_to(_SRC).with_suffix("")
        if relative.parts[0] == "lab":
            continue
        module = ".".join(("repro", *relative.parts)).removesuffix(".__init__")
        for name in _imported_names(path):
            if name == "repro.lab" or name.startswith("repro.lab."):
                edges.add((module, ".".join(name.split(".")[:3])))
    assert edges == _KNOWN_LAB_EDGES, sorted(edges - _KNOWN_LAB_EDGES)


def test_the_front_doors_load_no_lab_module():
    """The boundary at runtime, not only in the AST: what ``import
    repro.serve`` and ``import repro.cli`` pull in.  The counts are the
    import diet's record (79 and 82 before the lab was a directory, 62
    and 63 before ``repro.structures`` and its ``topk`` gave way to
    ``repro.core.histogram``, 61 and 62 before ``repro.plan.cost``
    went, 60 and 61 before ``repro.obs.serve`` folded into
    ``repro.serve.server``); a new product module moves them by one, on
    purpose."""
    script = (
        "import importlib, sys\n"
        "importlib.import_module(sys.argv[1])\n"
        "loaded = [m for m in sys.modules if m == 'repro' or m.startswith('repro.')]\n"
        "print(len(loaded), *[m for m in loaded if m.startswith('repro.lab')])\n"
    )
    for module, count in (("repro.serve", 59), ("repro.cli", 60)):
        out = subprocess.run(
            [sys.executable, "-c", script, module],
            env={**os.environ, "PYTHONPATH": str(_SRC.parent)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        assert out == [str(count)], (module, out)


def test_the_front_doors_load_no_worker_pool():
    """The CLI and the serve tier answer on one engine in the caller's
    thread: importing them loads neither executor module nor
    ``multiprocessing``."""
    pools = ("multiprocessing", "repro.query.executor", "repro.query.process_executor")
    script = (
        "import sys\n"
        "import repro.cli, repro.serve\n"
        f"print(*[m for m in {pools!r} if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(_SRC.parent)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert out == []


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(20, 80),
    cols=st.integers(8, 30),
    budget=st.floats(0.1, 0.6),
    precision=st.sampled_from([4, 8]),
)
def test_property_persist_roundtrip(
    tmp_path_factory, seed, rows, cols, budget, precision
):
    """Any built model reopens agreeing cell for cell with its
    compressor's in-memory fit."""
    rng = np.random.default_rng(seed)
    data = rng.random((rows, cols)) * 10
    compressor = SVDDCompressor(budget_fraction=budget, bytes_per_value=precision)
    try:
        model = compressor.fit(data)
    except BudgetError:
        return
    directory = tmp_path_factory.mktemp("rt") / "model"
    build_compressed(data, directory, compressor=compressor).close()
    store = CompressedMatrix.open(directory)
    try:
        tolerance = 1e-9 if precision == 8 else 1e-4 * max(1.0, np.abs(data).max())
        probes = rng.integers(0, [rows, cols], size=(10, 2))
        for row, col in probes:
            assert store.cell(int(row), int(col)) == pytest.approx(
                model.reconstruct_cell(int(row), int(col)), abs=tolerance
            )
    finally:
        store.close()
