"""Storage-space accounting (paper Eq. 9 and Section 4.2).

All methods are compared at equal *space budgets* expressed as a
fraction ``s`` of the uncompressed matrix (``N * M * b`` bytes at ``b``
bytes per number).  Plain SVD with cutoff ``k`` costs

    (N*k + k + k*M) * b          (Eq. 9)

SVDD splits the same budget between principal components and outlier
deltas, and charges both as the model directory stores them.  Each
delta is a ``(row, column, delta)`` triplet, stored as the
compressed-sparse-row table :class:`~repro.storage.delta_file.DeltaFile`
writes: a 2-byte column and a value at the model's precision ('b'
bytes — see :func:`delta_record_bytes`) per delta, and one 4-byte row
start per row plus one, ``4 (N + 1)`` bytes charged once
(:func:`row_table_bytes`).  ``U`` is stored one row of ``k`` values a
page, as Eq. 9 charges it.
"""

from __future__ import annotations

from repro.exceptions import BudgetError, ConfigurationError

#: Default bytes per stored number ('b' in the paper's accounting).
BYTES_PER_VALUE = 8

_COL_BYTES, _ROW_START_BYTES = 2, 4  # a uint16 column, an int32 row start


def delta_record_bytes(bytes_per_value: int = BYTES_PER_VALUE) -> int:
    """Bytes each delta adds to the table: its 2-byte column plus its
    value at the model's 'b' (10 at float64, 6 at float32)."""
    if bytes_per_value not in (4, 8):
        raise ConfigurationError(
            f"bytes_per_value must be 4 or 8, got {bytes_per_value}"
        )
    return _COL_BYTES + bytes_per_value


def row_table_bytes(num_rows: int) -> int:
    """The delta table's fixed part: ``N + 1`` int32 row starts."""
    return _ROW_START_BYTES * (num_rows + 1)


def _check_dims(num_rows: int, num_cols: int) -> None:
    if num_rows < 1 or num_cols < 1:
        raise ConfigurationError(
            f"matrix dimensions must be positive, got {num_rows} x {num_cols}"
        )


def uncompressed_bytes(num_rows: int, num_cols: int, bytes_per_value: int = BYTES_PER_VALUE) -> int:
    """Size of the raw matrix: ``N * M * b``."""
    _check_dims(num_rows, num_cols)
    return num_rows * num_cols * bytes_per_value


def svd_space_bytes(
    num_rows: int, num_cols: int, k: int, bytes_per_value: int = BYTES_PER_VALUE
) -> int:
    """Eq. 9 numerator: ``(N*k + k + k*M) * b`` for ``k`` retained PCs."""
    _check_dims(num_rows, num_cols)
    if k < 0:
        raise ConfigurationError(f"k must be >= 0, got {k}")
    return (num_rows * k + k + k * num_cols) * bytes_per_value


def svd_space_fraction(
    num_rows: int, num_cols: int, k: int, bytes_per_value: int = BYTES_PER_VALUE
) -> float:
    """Eq. 9: compressed/uncompressed ratio ``s`` (approximately ``k/M``)."""
    return svd_space_bytes(num_rows, num_cols, k, bytes_per_value) / uncompressed_bytes(
        num_rows, num_cols, bytes_per_value
    )


def svdd_space_bytes(
    num_rows: int,
    num_cols: int,
    k: int,
    num_deltas: int,
    bytes_per_value: int = BYTES_PER_VALUE,
) -> int:
    """SVDD model size: SVD part plus the delta table.

    The table is what :class:`~repro.storage.delta_file.DeltaFile`
    writes: :func:`row_table_bytes` once and :func:`delta_record_bytes`
    per delta at the model's 'b' (none of it when no delta is stored:
    the file is absent).
    """
    if num_deltas < 0:
        raise ConfigurationError(f"num_deltas must be >= 0, got {num_deltas}")
    table = (
        row_table_bytes(num_rows) + num_deltas * delta_record_bytes(bytes_per_value)
        if num_deltas
        else 0
    )
    return svd_space_bytes(num_rows, num_cols, k, bytes_per_value) + table


def max_k_for_budget(
    num_rows: int,
    num_cols: int,
    budget_fraction: float,
    bytes_per_value: int = BYTES_PER_VALUE,
    raw_bytes_per_value: int | None = None,
) -> int:
    """Largest cutoff ``k_max`` whose SVD representation fits the budget.

    Capped at ``min(N, M)`` (the rank bound).  Raises
    :class:`BudgetError` when even ``k = 1`` does not fit — the paper's
    method always retains at least one principal component.

    ``raw_bytes_per_value`` sets the element size of the *uncompressed*
    matrix the budget fraction is measured against; by default it
    equals ``bytes_per_value`` (the paper's accounting, where data and
    model share 'b').  Storing a float32 model against float64 raw data
    (``bytes_per_value=4, raw_bytes_per_value=8``) doubles the
    affordable cutoff at the same fraction.
    """
    _check_dims(num_rows, num_cols)
    if not 0.0 < budget_fraction <= 1.0:
        raise ConfigurationError(
            f"budget_fraction must be in (0, 1], got {budget_fraction}"
        )
    raw = raw_bytes_per_value if raw_bytes_per_value is not None else bytes_per_value
    budget = budget_fraction * uncompressed_bytes(num_rows, num_cols, raw)
    per_component = (num_rows + 1 + num_cols) * bytes_per_value
    k_max = min(int(budget // per_component), num_rows, num_cols)
    if k_max < 1:
        raise BudgetError(
            f"budget {budget_fraction:.4%} of a {num_rows}x{num_cols} matrix cannot "
            f"hold even one principal component "
            f"(needs {per_component / uncompressed_bytes(num_rows, num_cols, raw):.4%})"
        )
    return k_max


def delta_budget(
    num_rows: int,
    num_cols: int,
    k: int,
    budget_fraction: float,
    bytes_per_value: int = BYTES_PER_VALUE,
    raw_bytes_per_value: int | None = None,
) -> int:
    """``gamma_k``: how many outlier deltas fit beside ``k`` components.

    This is the count the SVDD pass-1 estimates for each candidate
    ``k`` (paper Fig. 5): what is left beside the components, less the
    table's row starts, in deltas.  Never negative; zero means the
    whole budget went to principal components.  ``raw_bytes_per_value``
    as in :func:`max_k_for_budget`.
    """
    raw = raw_bytes_per_value if raw_bytes_per_value is not None else bytes_per_value
    budget = budget_fraction * uncompressed_bytes(num_rows, num_cols, raw)
    remaining = (
        budget
        - svd_space_bytes(num_rows, num_cols, k, bytes_per_value)
        - row_table_bytes(num_rows)
    )
    return max(0, int(remaining // delta_record_bytes(bytes_per_value)))
