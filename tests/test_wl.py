"""Sharded Weisfeiler-Lehman fit (``stages.wl.wl_labels_from_dataset``):
labels equal the broadcast-CSR ``wl_labels`` byte for byte, and the fit
runs one exchange whatever the iteration count."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from pyrdf2vec_ray.state.graph_index import GraphIndex
from pyrdf2vec_ray.stages.wl import (
    _sorted_distinct_join,
    wl_labels,
    wl_labels_from_dataset,
)

# subject-only vertices (a, s), object-only vertices (d, lit), a
# self-loop (c), a predicate name containing "-", and objects reached by
# several distinct predicates and subjects
ROWS = [
    ("a", "p", "b"), ("a", "has-part", "c"), ("b", "p", "c"),
    ("c", "p", "c"), ("c", "q", "d"), ("b", "q", "d"),
    ("s", "has-part", "b"), ("s", "p", "lit"), ("d", "p", "lit"),
    ("b", "p", "a"), ("a", "q", "d"),
]


def _table() -> pa.Table:
    return pa.table({
        "subj": pa.array([r[0] for r in ROWS], pa.string()),
        "pred": pa.array([r[1] for r in ROWS], pa.string()),
        "obj": pa.array([r[2] for r in ROWS], pa.string()),
    })


@pytest.mark.parametrize("num_buckets", [1, 4])
@pytest.mark.parametrize("md5_bytes", [8, None])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_sharded_labels_equal_broadcast(k, md5_bytes, num_buckets):
    t = _table()
    expect = wl_labels(GraphIndex.from_table(t).local(), k, md5_bytes)
    got = wl_labels_from_dataset(
        ray.data.from_arrow(t), k, md5_bytes, num_buckets=num_buckets)
    assert got == expect
    assert set(got) == {"a", "b", "c", "d", "s", "lit"}
    assert all(len(v) == k + 1 for v in got.values())


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_one_exchange_for_every_k(k, monkeypatch, ray_jobs):
    """Rounds 0 and 1 share one exchange; later rounds are block-local
    maps over its output.  k ≤ 2 is a single Ray Data job."""
    import ray.data.dataset as dataset
    from pyrdf2vec_ray import shuffle

    calls = {"bucket_apply": 0, "materialize": 0}
    real_apply = shuffle.bucket_apply
    real_mat = dataset.Dataset.materialize

    def bucket_apply(*args, **kwargs):
        calls["bucket_apply"] += 1
        return real_apply(*args, **kwargs)

    def materialize(self):
        calls["materialize"] += 1
        return real_mat(self)

    monkeypatch.setattr(shuffle, "bucket_apply", bucket_apply)
    monkeypatch.setattr(dataset.Dataset, "materialize", materialize)
    ds = ray.data.from_arrow(_table())
    with ray_jobs() as jobs:
        wl_labels_from_dataset(ds, k, 8, num_buckets=4)
    assert calls["bucket_apply"] == 1
    # generations a later round reads are materialized; the last is not
    assert calls["materialize"] == max(0, k - 2)
    assert jobs.count == (1 if k <= 2 else 2 * k - 3)


def test_sorted_distinct_join():
    obj = np.array([0, 0, 0, 1, 0])
    codes, uniq = pd.factorize(
        np.array(["q", "p-r", "q", "p", "p-r"], dtype=object), sort=True)
    # object 2 has no rows; labels are joined distinct and sorted
    assert _sorted_distinct_join(obj, 3, codes, uniq).tolist() == [
        "p-r-q", "p", ""]
    empty = np.array([], dtype=np.int64)
    assert _sorted_distinct_join(empty, 2, empty, []).tolist() == ["", ""]
