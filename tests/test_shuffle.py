"""The bucket exchange behind every shuffle op: ``bucket_apply`` calls
its kernel exactly once per non-empty bucket, with the whole bucket."""
from __future__ import annotations

import pandas as pd
import polars as pl
import pyarrow as pa
import pytest
import ray.data

from pyrdf2vec_ray.shuffle import bucket_apply


def _keys_table(n_keys: int, reps: int) -> pa.Table:
    keys = [f"k{i % n_keys}" for i in range(n_keys * reps)]
    return pa.table({"k": keys, "v": list(range(len(keys)))})


def _bucket_of(keys: list[str], num_buckets: int) -> dict[str, int]:
    # the same row hash as shuffle.add_bucket
    h = pl.from_arrow(pa.table({"k": keys})).hash_rows(seed=42)
    return dict(zip(keys, (h % num_buckets).to_list()))


@pytest.mark.parametrize("batch_format", ["pyarrow", "pandas"])
@pytest.mark.parametrize("with_pre", [False, True])
@pytest.mark.parametrize("num_buckets", [1, 8, 64])
def test_bucket_fn_once_per_nonempty_bucket(batch_format, with_pre,
                                            num_buckets):
    tbl = _keys_table(n_keys=20, reps=5)
    ds = ray.data.from_arrow(tbl).repartition(6)

    def pre(batch: pa.Table) -> pa.Table:
        # a combiner that keeps one row per key and batch
        return batch.group_by(["k"]).aggregate([("v", "min")]) \
            .rename_columns(["k", "v"])

    def summarize(g):
        if batch_format == "pandas":
            keys, cols, frame = list(g["k"]), list(g.columns), pd.DataFrame
        else:
            keys, cols, frame = g["k"].to_pylist(), g.column_names, pa.table
        return frame({"n": [len(keys)],
                      "keys": ["|".join(sorted(set(keys)))],
                      "cols": [",".join(sorted(cols))]})

    calls = bucket_apply(ds, ["k"], summarize, num_buckets=num_buckets,
                         batch_format=batch_format,
                         pre=pre if with_pre else None).to_pandas()

    bucket = _bucket_of(tbl["k"].to_pylist(), num_buckets)
    seen: dict[int, int] = {}
    for n, keys, cols in calls.itertuples(index=False):
        assert n > 0 and cols == "k,v"
        buckets = {bucket[k] for k in keys.split("|")}
        assert len(buckets) == 1          # one call holds one bucket
        (b,) = buckets
        assert b not in seen              # and a bucket is never split
        seen[b] = n
    assert set(seen) == set(bucket.values())
    if not with_pre:
        assert sum(seen.values()) == tbl.num_rows


def test_empty_input_never_calls_bucket_fn():
    def boom(g):
        raise AssertionError("bucket_fn called on an empty exchange")

    ds = ray.data.from_arrow(_keys_table(5, 2)).filter(
        expr="v < 0")
    assert bucket_apply(ds, ["k"], boom, num_buckets=4).count() == 0
