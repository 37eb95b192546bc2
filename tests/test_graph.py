"""ops/graph: empty edge sets, Ray Data job counts per round, and the
hash branches of the node-scale attach joins."""
from __future__ import annotations

import pandas as pd
import pytest
import ray.data


def _edges(pairs) -> ray.data.Dataset:
    a, b = zip(*pairs) if pairs else ((), ())
    return ray.data.from_pandas(pd.DataFrame(
        {"a": pd.Series(a, dtype=object), "b": pd.Series(b, dtype=object)}))


@pytest.mark.parametrize("op", ["transitive_closure", "scc_bounded",
                                "triangle_counts", "bfs_distances",
                                "kcore_bounded", "mis_bounded",
                                "ktruss_bounded", "betweenness_sampled"])
def test_empty_edges_give_empty_result(op):
    from pyrdf2vec_ray.ops import graph

    fn = getattr(graph, op)
    empty = _edges([])
    if op == "bfs_distances":
        # the seeds themselves are reached at distance 0
        out = fn(empty, seeds=["x"], max_depth=2).to_pandas()
        assert list(zip(out["seed"], out["vertex"], out["dist"])) == [
            ("x", "x", 0)]
        return
    args = {"transitive_closure": (2,), "scc_bounded": (2,),
            "triangle_counts": (), "kcore_bounded": (2, 2),
            "mis_bounded": (2,), "ktruss_bounded": (3,),
            "betweenness_sampled": (["x"], 2)}[op]
    assert fn(empty, *args).count() == 0


def test_transitive_closure_jobs_per_round(ray_jobs):
    """A chain of 40 vertices needs every one of 3 doubling rounds; each
    round costs two Ray Data jobs."""
    from pyrdf2vec_ray.ops.graph import transitive_closure

    chain = _edges([(f"v{i:02d}", f"v{i + 1:02d}") for i in range(40)])
    jobs = []
    for rounds in (1, 2, 3):
        with ray_jobs() as j:
            out = transitive_closure(chain, rounds)
        jobs.append(j.count)
        assert out.count() == sum(min(2 ** rounds, 40 - i)
                                  for i in range(40))
    # one for the distinct input, then per round: the broadcast side
    # and the distinct union
    assert jobs == [3, 5, 7]


def test_pagerank_rounds_distributed_join_path(monkeypatch):
    import numpy as np

    from pyrdf2vec_ray.ops import join
    from pyrdf2vec_ray.ops.graph import pagerank_rounds
    from pyrdf2vec_ray.samplers import _pagerank_from_pairs

    E = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
    edges = ray.data.from_pandas(pd.DataFrame(
        {"a": [s for s, _ in E], "b": [t for _, t in E]}))
    names = sorted({v for e in E for v in e})
    idx = {v: i for i, v in enumerate(names)}
    want = _pagerank_from_pairs(
        np.array([idx[s] for s, _ in E]), np.array([idx[t] for _, t in E]),
        np.ones(len(names), dtype=bool), len(names),
        alpha=0.85, tol=0.0, max_iter=3)
    # a broadcast limit of 0 forces the co-partition hash_join fallback
    monkeypatch.setattr(join, "BROADCAST_ROWS", 0)
    got = (pagerank_rounds(edges, rounds=3)
           .to_pandas().set_index("name")["pagerank"])
    for v in names:
        assert abs(got[v] - want[idx[v]]) < 1e-12, v


def test_hits_rounds_integer_exact(monkeypatch):
    from pyrdf2vec_ray.ops import join
    from pyrdf2vec_ray.ops.graph import hits_rounds

    # s -> a, s -> b, a -> b, b -> a (hand-unrolled two rounds)
    edges = ray.data.from_pandas(pd.DataFrame(
        {"a": ["s", "s", "a", "b"], "b": ["a", "b", "b", "a"]}))
    out = (hits_rounds(edges, rounds=2).to_pandas()
           .set_index("name").sort_index())
    assert out.loc["s", "authority"] == 0
    assert out.loc["a", "authority"] == 6 and out.loc["b", "authority"] == 6
    assert out.loc["s", "hub"] == 12
    assert out.loc["a", "hub"] == 6 and out.loc["b", "hub"] == 6
    # forced hash_join path is value-identical (integers, no rounding)
    monkeypatch.setattr(join, "BROADCAST_ROWS", 0)
    out2 = (hits_rounds(edges, rounds=2)
            .to_pandas().set_index("name").sort_index())
    pd.testing.assert_frame_equal(out.sort_index(axis=1),
                                  out2.sort_index(axis=1))
    import pytest as _pt
    with _pt.raises(ValueError):
        hits_rounds(edges, rounds=0)
