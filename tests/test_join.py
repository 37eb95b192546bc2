"""ops/join: the one broadcast rule.  Every op that picks its plan by
``join.BROADCAST_ROWS`` gives the same output on its broadcast plan
(the default limit) and on its hash-shuffle plan (limit 0)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data

from pyrdf2vec_ray.ops import bgp, er, graph, join

# a directed graph with cycles, triangles and a tail; one weight and
# one community label per edge / vertex
_E = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"),
      ("e", "c"), ("e", "f"), ("f", "g"), ("b", "d"), ("a", "d")]
_LABEL = {"a": "x", "b": "x", "c": "x", "d": "y", "e": "y", "f": "z",
          "g": "z"}


def _edges() -> ray.data.Dataset:
    return ray.data.from_pandas(pd.DataFrame(
        {"a": [s for s, _ in _E], "b": [t for _, t in _E],
         "w": np.arange(1, len(_E) + 1, dtype=np.int64)}))


def _labels() -> ray.data.Dataset:
    return ray.data.from_pandas(pd.DataFrame(
        {"node": list(_LABEL), "label": list(_LABEL.values())}))


def _triples() -> ray.data.Dataset:
    rows = [(s, "p", t) for s, t in _E] + [
        ("a2", "owl:sameAs", "a"), ("g", "owl:sameAs", "g2"),
        ("a2", "q", "g2")]
    return ray.data.from_pandas(
        pd.DataFrame(rows, columns=["subj", "pred", "obj"]))


def _left() -> ray.data.Dataset:
    return ray.data.from_pandas(pd.DataFrame(
        {"k": [v for v, _ in _E], "i": np.arange(len(_E))}))


def _right() -> ray.data.Dataset:
    return ray.data.from_pandas(pd.DataFrame(
        {"k": ["a", "c", "g"], "r": [1.5, 2.5, 3.5]}))


_OPS = {
    "triangle_counts": lambda: graph.triangle_counts(_edges()),
    "kcore_bounded": lambda: graph.kcore_bounded(_edges(), k=3, rounds=3),
    "transitive_closure": lambda: graph.transitive_closure(_edges(), 3),
    "bfs_distances": lambda: graph.bfs_distances(_edges(), ["a", "f"], 3),
    "pagerank_rounds": lambda: graph.pagerank_rounds(_edges(), rounds=2),
    "hits_rounds": lambda: graph.hits_rounds(_edges(), rounds=1),
    "mis_bounded": lambda: graph.mis_bounded(_edges(), rounds=3),
    "neighbor_jaccard": lambda: graph.neighbor_jaccard(_edges(), k=10),
    "betweenness_sampled": lambda: graph.betweenness_sampled(
        _edges(), ["a", "c"], 2),
    "weighted_distances": lambda: graph.weighted_distances(
        _edges(), ["a"], 3),
    "modularity": lambda: graph.modularity(_edges(), _labels()),
    "conductance": lambda: graph.conductance(_edges(), _labels()),
    "ktruss_bounded": lambda: graph.ktruss_bounded(_edges(), k=3,
                                                   rounds=2),
    "bgp_match": lambda: bgp.bgp_match(
        _triples(), [("?x", "p", "?y"), ("?y", "p+", "?z")]),
    "sameas_canonicalize": lambda: er.sameas_canonicalize(_triples()),
    "join_inner": lambda: join.adaptive_join(_left(), _right(), ["k"]),
    "join_left": lambda: join.adaptive_join(
        _left(), _right(), ["k"], how="left"),
    "join_semi": lambda: join.adaptive_join(
        _left(), _right(), ["k"], how="semi"),
    "join_anti": lambda: join.adaptive_join(
        _left(), _right(), ["k"], how="anti"),
}


def _rows(ds: ray.data.Dataset) -> pd.DataFrame:
    df = ds.to_pandas()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if df[c].dtype.kind == "f" or str(df[c].dtype) == "Float64":
            df[c] = df[c].astype("float64").round(9)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("op", sorted(_OPS))
def test_broadcast_and_hash_plans_agree(op, monkeypatch):
    hashed = {"n": 0}
    for name in ("hash_join", "hash_semi_join"):
        real = getattr(join, name)

        def counted(*args, _real=real, **kwargs):
            hashed["n"] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(join, name, counted)
    broadcast = _rows(_OPS[op]())
    n_default = hashed["n"]
    monkeypatch.setattr(join, "BROADCAST_ROWS", 0)
    shuffled = _rows(_OPS[op]())
    assert len(broadcast)
    assert hashed["n"] - n_default > n_default   # limit 0 hash-joined more
    pd.testing.assert_frame_equal(broadcast, shuffled, check_dtype=False)
