"""Small shared helpers (driver-side, small-result only)."""

from __future__ import annotations

import pyarrow as pa


def to_table(ds) -> pa.Table:
    """Materialize a (small) Dataset into one Arrow table on the caller.
    Use only for results that fit on one node — tests, oracles, fitted
    state; never on the main corpus."""
    batches = [b for b in ds.iter_batches(batch_size=1 << 20, batch_format="pyarrow")]
    if not batches:
        return pa.table({})
    # Ray yields pa.Table batches in this version
    return pa.concat_tables(batches)
