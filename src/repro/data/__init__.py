"""Datasets.

The paper evaluates on two real datasets we cannot obtain:

- ``phone100K`` — proprietary AT&T customer calling volumes
  (100,000 customers x 366 days) plus row subsets ``phone1000``,
  ``phone2000``, ...;
- ``stocks`` — 381 stocks x 128 daily closing prices.

Per the substitution policy in DESIGN.md, this package generates
synthetic equivalents that reproduce the structural properties the
paper's results depend on: low-rank behavioural patterns and
Zipf-skewed volumes with bursty outliers for the phone data, and
correlated random walks with a dominant market factor for the stocks
data.  Generators are deterministic in their seed, and row subsets are
*prefix-stable*: ``phone_dataset(n)`` equals the first ``n`` rows of
``phone_dataset(m)`` for ``n <= m``, mirroring how the paper carved
``phone2000`` out of ``phone100K``.

Product (the CLI's ``--dataset`` registry and the benchmark harness read
these).  The IR setting's term-document generator is
``repro.lab.documents``.
"""

from repro.data.patients import PatientsConfig, patient_field_names, patients_matrix
from repro.data.phone import PhoneConfig, phone_matrix
from repro.data.registry import Dataset, dataset_names, load_dataset
from repro.data.stocks import StocksConfig, stocks_matrix
from repro.data.toy import TOY_COLUMNS, TOY_CUSTOMERS, toy_matrix

__all__ = [
    "Dataset",
    "PatientsConfig",
    "patient_field_names",
    "patients_matrix",
    "PhoneConfig",
    "StocksConfig",
    "TOY_COLUMNS",
    "TOY_CUSTOMERS",
    "dataset_names",
    "load_dataset",
    "phone_matrix",
    "stocks_matrix",
    "toy_matrix",
]
