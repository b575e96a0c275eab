"""SHA-256 of every file of the model directory after each lifecycle step.

The byte-identity check for changes to the model-directory codec
(``repro.storage.model_dir``): the harness model (phone 4000 x 366,
s=10%) at float64 and float32 through build, save, three column
appends, a row append, and a deferred column append + summarize.

Run the same script from two checkouts and `cmp` the outputs:

    PYTHONPATH=src:. python benchmarks/model_dir_digests.py OUT.json [WORK_DIR]
"""

import hashlib
import json
import os
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


def main() -> None:
    raw = model.raw_matrix(model.FULL)
    work_root = sys.argv[2] if len(sys.argv) > 2 else None
    work = Path(tempfile.mkdtemp(prefix="digests-", dir=work_root))
    try:
        result = {
            "float64": lifecycle(raw, 8, work),
            "float32": lifecycle(raw, 4, work),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(sys.argv[1]).write_text(json.dumps(result, indent=1, sort_keys=True))
    flat = json.dumps(result, sort_keys=True).encode()
    print("steps:", sum(len(v) for v in result.values()),
          "files:", sum(len(d) for v in result.values() for d in v.values()),
          "overall sha256:", hashlib.sha256(flat).hexdigest())


if __name__ == "__main__":
    main()
