"""ops/er: the owl:sameAs canonicalization on each of its plans — the
driver union-find or the distributed connected components for the
classes, a broadcast or a hash join for the fact rewrite."""
from __future__ import annotations

import pyarrow as pa
import ray.data


def _tri(rows):
    return ray.data.from_arrow(pa.table({
        "subj": pa.array([r[0] for r in rows], pa.string()),
        "pred": pa.array([r[1] for r in rows], pa.string()),
        "obj": pa.array([r[2] for r in rows], pa.string()),
    }))


def test_sameas_union_find_path_with_alias_map_over_threshold(monkeypatch):
    """2 sameAs edges fit a broadcast limit of 3, so the classes come
    from the driver union-find; their 4 names do not, so the fact
    rewrite takes the hash-join path."""
    from pyrdf2vec_ray.ops import join
    from pyrdf2vec_ray.ops.er import sameas_canonicalize

    tri = _tri([
        ("a2", "owl:sameAs", "a1"),
        ("b2", "owl:sameAs", "b1"),
        ("a2", "p", "b2"),
        ("c", "q", "a2"),
    ])
    monkeypatch.setattr(join, "BROADCAST_ROWS", 3)
    out = sameas_canonicalize(tri).to_pandas()
    got = set(map(tuple, out[["subj", "pred", "obj"]].values))
    assert got == {("a1", "p", "b1"), ("c", "q", "a1")}


def test_sameas_distributed_path_matches_fast_path(monkeypatch):
    from pyrdf2vec_ray.ops import join
    from pyrdf2vec_ray.ops.er import sameas_canonicalize

    tri = _tri([
        ("c1", "in_nation", "n1"),
        ("d1", "owl:sameAs", "d1b"),
        ("d1b", "owl:sameAs", "c1"),
        ("d1b", "in_nation", "n1"),
        ("z", "touches", "d1"),
        ("b2", "owl:sameAs", "b1"),
        ("b2", "p", "q"),
    ])
    fast = sameas_canonicalize(tri).to_pandas()
    # a broadcast limit of 0 forces the dense_ids + CC + hash-join path
    monkeypatch.setattr(join, "BROADCAST_ROWS", 0)
    slow = sameas_canonicalize(tri).to_pandas()
    key = ["subj", "pred", "obj"]
    assert (sorted(map(tuple, fast[key].values))
            == sorted(map(tuple, slow[key].values)))
