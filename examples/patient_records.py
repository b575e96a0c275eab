#!/usr/bin/env python3
"""Heterogeneous vectors: the paper's Section 2.3 argument, live.

'The SVD can be applied not only to time sequences, but to any
arbitrary, even heterogeneous, M-dimensional vectors. ... In such a
setting, the spectral methods do not apply.'

This example compresses synthetic patient records (age, weight, blood
pressure, cholesterol panel, ...) with SVDD and demonstrates why a
frequency transform is the wrong tool: shuffling the column order —
meaningless for a record, fatal for a 'signal' — leaves SVD's error
untouched and moves DCT's.

Run:  python examples/patient_records.py
"""

from __future__ import annotations

import numpy as np

from repro import SVDDCompressor, rmspe
from repro.data import patient_field_names, patients_matrix
from repro.lab.methods import DCTMethod, SVDMethod


def main() -> None:
    records = patients_matrix(2000)
    names = patient_field_names()
    print(f"dataset: {records.shape[0]} patients x {records.shape[1]} fields")
    print(f"fields: {', '.join(names[:6])}, ...\n")

    budget = 0.30
    model = SVDDCompressor(budget_fraction=budget).fit(records)
    print(
        f"SVDD at {budget:.0%} space: k={model.cutoff}, "
        f"{model.num_deltas} deltas, RMSPE {rmspe(records, model.reconstruct()):.4f}"
    )
    patient = 1234
    recon = model.reconstruct_row(patient)
    print(f"\npatient {patient} reconstruction (first 6 fields):")
    for field_idx in range(6):
        print(
            f"  {names[field_idx]:18s} actual {records[patient, field_idx]:8.2f}  "
            f"approx {recon[field_idx]:8.2f}"
        )

    print("\n=== column order should not matter for records ===")
    rng = np.random.default_rng(7)
    permutation = rng.permutation(records.shape[1])
    shuffled = records[:, permutation]

    svd_orig = rmspe(records, SVDMethod().fit(records, budget).reconstruct())
    svd_perm = rmspe(shuffled, SVDMethod().fit(shuffled, budget).reconstruct())
    dct_orig = rmspe(records, DCTMethod().fit(records, budget).reconstruct())
    dct_perm = rmspe(shuffled, DCTMethod().fit(shuffled, budget).reconstruct())
    print(f"  SVD : original {svd_orig:.5f}  shuffled {svd_perm:.5f}  (identical)")
    print(f"  DCT : original {dct_orig:.5f}  shuffled {dct_perm:.5f}  (order-dependent)")
    print(
        "\nSVD sees rows as points in R^M — column order is irrelevant.  A\n"
        "frequency transform assumes neighboring columns are related, which\n"
        "is an accident of field ordering here.  (Paper, Section 2.3.)"
    )
    print("\ndone.")


if __name__ == "__main__":
    main()
