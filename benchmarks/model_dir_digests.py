"""SHA-256 of every file of the model directory after each lifecycle step.

The byte-identity check for changes to the model-directory codec
(``repro.storage.model_dir``): the harness model (phone 4000 x 366,
s=10%) at float64 and float32 through build, save, three column
appends, a row append, and a deferred column append + summarize.

Run the same script from two checkouts and compare the outputs:

    PYTHONPATH=src:. python benchmarks/model_dir_digests.py OUT.json [WORK_DIR]

``benchmarks/results/model_dir_digests.json`` is the committed record of
the current code, with the arithmetic it was made on (``made_on``: NumPy
version, machine, the SIMD features NumPy — and with them its BLAS —
dispatched to).  ``--check`` runs the lifecycle and exits 1 on any
difference: from the record where ``made_on`` matches this interpreter,
otherwise from a second run of itself (the build is deterministic),
printing which it did:

    PYTHONPATH=src:. python benchmarks/model_dir_digests.py --check RECORD.json [WORK_DIR]
"""

import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np

from benchmarks.harness import model, ops, spec
from repro.core.build import build_compressed
from repro.core.store import CompressedMatrix
from repro.core.svdd import SVDDCompressor
from repro.core.update import append_columns, append_rows
from repro.summaries.compute import summarize_directory


def digests(directory: Path) -> dict:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(directory.iterdir())
        if f.is_file()
    }


def lifecycle(raw: np.ndarray, bytes_per_value: int, work: Path) -> dict:
    out = {}
    built = work / f"built{bytes_per_value}"
    build_compressed(
        raw, built, budget_fraction=spec.BUDGET_FRACTION,
        bytes_per_value=bytes_per_value, jobs=1,
    ).close()
    out["i_build"] = digests(built)

    fitted = SVDDCompressor(
        budget_fraction=spec.BUDGET_FRACTION, bytes_per_value=bytes_per_value
    ).fit(raw)
    saved = work / f"saved{bytes_per_value}"
    CompressedMatrix.save(fitted, saved, bytes_per_value=bytes_per_value).close()
    out["ii_save"] = digests(saved)

    grown = raw
    for batch in range(3):
        new = ops.next_days(grown, 1997, batch)
        append_columns(built, new)
        grown = np.concatenate([grown, new], axis=1)
        out[f"iii_append_columns_{batch}"] = digests(built)

    rng = np.random.default_rng(7)
    new_rows = grown[rng.integers(0, grown.shape[0], size=37)] * rng.lognormal(
        0.0, 0.25, size=(37, grown.shape[1])
    )
    new_rows[5] = 0.0  # an all-zero customer
    append_rows(built, new_rows)
    grown = np.concatenate([grown, new_rows], axis=0)
    out["iv_append_rows"] = digests(built)

    new = ops.next_days(grown, 1997, 3)
    append_columns(built, new, refresh_summaries=False)
    out["v_append_deferred"] = digests(built)
    summarize_directory(built)
    out["v_summarize"] = digests(built)
    return out


def made_on() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # a NumPy that keeps them elsewhere matches no record
        features = {}
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "simd": sorted(name for name, on in features.items() if on),
    }


def run(work_root: str | None) -> dict:
    raw = model.raw_matrix(model.FULL)
    work = Path(tempfile.mkdtemp(prefix="digests-", dir=work_root))
    try:
        return {
            "float64": lifecycle(raw, 8, work),
            "float32": lifecycle(raw, 4, work),
            "made_on": made_on(),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def flat(result: dict) -> dict:
    """``{"float64/i_build/u.mat": sha256, ...}``."""
    return {
        f"{precision}/{step}/{name}": digest
        for precision in ("float64", "float32")
        for step, files in result[precision].items()
        for name, digest in files.items()
    }


def brief(made: dict) -> str:
    return f"NumPy {made['numpy']} on {made['machine']}, {len(made['simd'])} SIMD features"


def main() -> None:
    check = sys.argv[1] == "--check"
    args = sys.argv[2:] if check else sys.argv[1:]
    work_root = args[1] if len(args) > 1 else None
    result = run(work_root)
    ours = flat(result)
    if not check:
        Path(args[0]).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        blob = json.dumps(result, sort_keys=True).encode()
        print("steps:", len(result["float64"]) + len(result["float32"]),
              "files:", len(ours), "overall sha256:", hashlib.sha256(blob).hexdigest())
        return
    record = json.loads(Path(args[0]).read_text())
    if record["made_on"] == result["made_on"]:
        print(f"comparing {len(ours)} files with the record {args[0]}")
        theirs = flat(record)
    else:
        print(f"record made on {brief(record['made_on'])}; this is {brief(result['made_on'])}: "
              f"comparing {len(ours)} files with a second run (determinism)")
        theirs = flat(run(work_root))
    changed = sorted(k for k in ours.keys() | theirs.keys() if ours.get(k) != theirs.get(k))
    if changed:
        sys.exit("model directory bytes differ:\n  " + "\n  ".join(changed))
    print("identical")


if __name__ == "__main__":
    main()
