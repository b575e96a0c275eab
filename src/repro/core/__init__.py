"""The paper's primary contribution: SVD and SVDD compression.

- :class:`SVDCompressor` — two-pass out-of-core truncated SVD
  (Section 4.1);
- :class:`SVDDCompressor` — three-pass SVD-with-Deltas (Section 4.2,
  Figure 5), the proposed method;
- :class:`SVDModel` / :class:`SVDDModel` — the fitted in-memory models
  with O(k) cell reconstruction (Eq. 12);
- :class:`CompressedMatrix` — the persistent, disk-resident form with
  the paper's one-disk-access physical layout;
- :mod:`repro.core.space` — the Eq. 9 space accounting shared by all
  methods;
- :mod:`repro.core.update` — incremental maintenance of a persistent
  model: :func:`append_columns` (new days) and
  :func:`repro.core.update.append_rows` (new customers) fold data in
  without a rebuild;
- :func:`build_compressed` / :func:`verify_model` — the out-of-core
  build straight to a model directory, and its streamed audit.

Product.  The Fig. 4 naive construction and robust SVD are
``repro.lab.naive_svdd`` and ``repro.lab.robust``.  Section 1's batched
off-line rebuild is :func:`build_compressed` over the grown data.
"""

from repro.core.build import build_compressed, estimate_build_memory
from repro.core.delta_index import DeltaIndex
from repro.core.model import SVDDModel, SVDModel
from repro.core.update import AppendResult, append_columns
from repro.core.verify import VerificationReport, verify_model
from repro.core.space import (
    BYTES_PER_VALUE,
    delta_budget,
    max_k_for_budget,
    svd_space_bytes,
    svd_space_fraction,
    svdd_space_bytes,
    uncompressed_bytes,
)
from repro.core.store import CompressedMatrix
from repro.core.svd import (
    SVDCompressor,
    compute_gram,
    compute_u,
    compute_u_to_store,
    spectrum_from_gram,
)
from repro.core.svdd import SVDDCompressor

__all__ = [
    "AppendResult",
    "BYTES_PER_VALUE",
    "CompressedMatrix",
    "DeltaIndex",
    "SVDCompressor",
    "SVDDCompressor",
    "SVDDModel",
    "SVDModel",
    "VerificationReport",
    "append_columns",
    "build_compressed",
    "estimate_build_memory",
    "verify_model",
    "compute_gram",
    "compute_u",
    "compute_u_to_store",
    "delta_budget",
    "max_k_for_budget",
    "spectrum_from_gram",
    "svd_space_bytes",
    "svd_space_fraction",
    "svdd_space_bytes",
    "uncompressed_bytes",
]
