"""Round-5 late-wave operators: last-touch attribution windows and
bounded-hop harmonic centrality (exact int64 rational scores).

Hand-computable invariants + oracle-shared definitions, same
discipline as the driver gate."""
from __future__ import annotations

import pandas as pd
import pytest
import ray.data


def test_harmonic_centrality_exact_rational():
    from pyrdf2vec_ray.ops.graph import harmonic_centrality

    # star-with-tail: s -> a, s -> b, a -> c, c -> d
    edges = ray.data.from_pandas(pd.DataFrame({
        "a": ["s", "s", "a", "c"],
        "b": ["a", "b", "c", "d"],
    }))
    out = (harmonic_centrality(edges, ["s", "a"], max_depth=3)
           .to_pandas().set_index("seed"))
    # s reaches a,b @1; c @2; d @3 -> num = 2*6 + 1*3 + 1*2 = 17
    assert out.loc["s", "n_reached"] == 4
    assert out.loc["s", "harmonic_num"] == 17
    assert out.loc["s", "harmonic_den"] == 6
    assert out.loc["s", "harmonic"] == 17 / 6.0
    # a reaches c @1, d @2 -> num = 6 + 3 = 9
    assert out.loc["a", "n_reached"] == 2
    assert out.loc["a", "harmonic_num"] == 9


def test_harmonic_centrality_depth_guard():
    from pyrdf2vec_ray.ops.graph import harmonic_centrality

    edges = ray.data.from_pandas(
        pd.DataFrame({"a": ["x"], "b": ["y"]}))
    with pytest.raises(ValueError):
        harmonic_centrality(edges, ["x"], max_depth=0)
    with pytest.raises(ValueError):
        harmonic_centrality(edges, ["x"], max_depth=43)


def test_hash_join_full_outer():
    from pyrdf2vec_ray.ops.join import hash_join

    left = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 2, 3], "lv": [10, 20, 30]}))
    right = ray.data.from_pandas(pd.DataFrame(
        {"k": [2, 3, 4], "rv": [200, 300, 400]}))
    out = (hash_join(left, right, on=["k"], how="outer")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert list(out["k"]) == [1, 2, 3, 4]
    # unmatched sides surface as NA of the nullable joined dtype
    assert out["lv"].isna().tolist() == [False, False, False, True]
    assert out["rv"].isna().tolist() == [True, False, False, False]
    assert out.loc[1, "lv"] == 20 and out.loc[1, "rv"] == 200
    assert str(out["lv"].dtype) == "Int64"


def test_pagerank_rounds_matches_driver_form():
    import numpy as np

    from pyrdf2vec_ray.ops.graph import pagerank_rounds
    from pyrdf2vec_ray.samplers import _pagerank_from_pairs

    # graph with a hub, a cycle, and a dangling node (e)
    E = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"), ("d", "a"),
         ("c", "e")]
    edges = ray.data.from_pandas(pd.DataFrame(
        {"a": [s for s, _ in E], "b": [t for _, t in E]}))
    names = sorted({v for e in E for v in e})
    idx = {v: i for i, v in enumerate(names)}
    src = np.array([idx[s] for s, _ in E], dtype=np.int64)
    dst = np.array([idx[t] for _, t in E], dtype=np.int64)

    for k in (1, 2, 5):
        want = _pagerank_from_pairs(
            src, dst, np.ones(len(names), dtype=bool), len(names),
            alpha=0.85, tol=0.0, max_iter=k)
        got = (pagerank_rounds(edges, rounds=k).to_pandas()
               .set_index("name")["pagerank"])
        for v in names:
            assert abs(got[v] - want[idx[v]]) < 1e-12, (k, v)


def test_round5_ops_partition_invariant():
    """Outputs must not depend on the input's block layout — the
    determinism contract every shuffle op in this repo claims."""
    import numpy as np

    from pyrdf2vec_ray.ops.events import attribution
    from pyrdf2vec_ray.ops.graph import harmonic_centrality, pagerank_rounds

    ts = pd.to_datetime([f"2024-01-01 {h:02d}:00:00" for h in range(12)])
    ev = pd.DataFrame({
        "event_id": range(12),
        "ts": ts,
        "user_id": [1, 1, 2, 2, 1, 3, 3, 2, 1, 3, 2, 1],
        "event_type": ["view", "purchase", "click", "purchase",
                       "view", "view", "purchase", "click",
                       "purchase", "purchase", "purchase", "view"],
        "value": [float(i) for i in range(12)],
    })
    a1 = (attribution(ray.data.from_pandas(ev),
                      lookback=pd.Timedelta(hours=3))
          .to_pandas().sort_values("event_id").reset_index(drop=True))
    a2 = (attribution(ray.data.from_pandas(ev).repartition(7),
                      lookback=pd.Timedelta(hours=3))
          .to_pandas().sort_values("event_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a1, a2)

    E = pd.DataFrame({"a": ["s", "s", "a", "c", "d", "b"],
                      "b": ["a", "b", "c", "d", "a", "d"]})
    h1 = (harmonic_centrality(ray.data.from_pandas(E), ["s", "a"], 3)
          .to_pandas().sort_values("seed").reset_index(drop=True))
    h2 = (harmonic_centrality(ray.data.from_pandas(E).repartition(5),
                              ["s", "a"], 3)
          .to_pandas().sort_values("seed").reset_index(drop=True))
    pd.testing.assert_frame_equal(h1, h2)

    p1 = (pagerank_rounds(ray.data.from_pandas(E), rounds=2)
          .to_pandas().sort_values("name").reset_index(drop=True))
    p2 = (pagerank_rounds(ray.data.from_pandas(E).repartition(5), rounds=2)
          .to_pandas().sort_values("name").reset_index(drop=True))
    assert list(p1["name"]) == list(p2["name"])
    # float sums may reassociate across layouts; 1e-12 is the pinned bound
    assert np.max(np.abs(p1["pagerank"].to_numpy()
                         - p2["pagerank"].to_numpy())) < 1e-12


def test_window_join_pairs_and_bounds():
    from pyrdf2vec_ray.ops.events import window_join

    lts = pd.to_datetime(["2024-01-01 10:00:00", "2024-01-01 12:00:00"])
    rts = pd.to_datetime(["2024-01-01 09:30:00", "2024-01-01 10:30:00",
                          "2024-01-01 11:30:01", "2024-01-01 10:00:00"])
    left = ray.data.from_pandas(pd.DataFrame(
        {"user_id": [1, 1], "ts": lts, "event_id": [100, 101]}))
    right = ray.data.from_pandas(pd.DataFrame(
        {"user_id": [1, 1, 1, 2], "ts": rts,
         "event_id": [7, 8, 9, 10]}))
    out = (window_join(left, right, window=pd.Timedelta(minutes=30))
           .to_pandas().sort_values(["event_id", "r_event_id"])
           .reset_index(drop=True))
    # l@10:00 ±30m matches r@09:30 (boundary inclusive) and r@10:30;
    # l@12:00 ±30m matches r@11:30:01 only; the user-2 row never pairs
    got = set(zip(out["event_id"], out["r_event_id"]))
    assert got == {(100, 7), (100, 8), (101, 9)}


def test_json_extract_flat_types_and_missing():
    from pyrdf2vec_ray.ops.events import json_extract_flat

    ds = ray.data.from_pandas(pd.DataFrame({
        "id": [1, 2, 3, 4],
        "props": ['{"k": 69, "w": 1.5, "tag": "a"}',
                  '{"w": -2e3, "k": -7}',
                  '{"tag": "x y"}',
                  '{}'],
    }))
    out = (json_extract_flat(
        ds, keys=(("k", "int64"), ("w", "float64"), ("tag", "str")))
        .to_pandas().sort_values("id").reset_index(drop=True))
    assert out["k"].tolist()[:2] == [69, -7]
    assert pd.isna(out["k"][2]) and pd.isna(out["k"][3])
    assert out["w"][0] == 1.5 and out["w"][1] == -2000.0
    assert out["tag"][0] == "a" and out["tag"][2] == "x y"
    assert str(out["k"].dtype) == "Int64"


def test_session_paths_hand_computed():
    from pyrdf2vec_ray.ops.events import session_paths

    ts = pd.to_datetime([
        "2024-01-01 10:00:00", "2024-01-01 10:05:00",  # u1 s1: view,click
        "2024-01-01 12:00:00",                          # u1 s2: view
        "2024-01-01 10:00:00", "2024-01-01 10:10:00",  # u2 s1: view,click
        "2024-01-01 09:00:00",                          # u3 s1: view
    ])
    ev = ray.data.from_pandas(pd.DataFrame({
        "event_id": [1, 2, 3, 4, 5, 6],
        "ts": ts,
        "user_id": [1, 1, 1, 2, 2, 3],
        "event_type": ["view", "click", "view", "view", "click", "view"],
    }))
    out = (session_paths(ev, gap_minutes=30).to_pandas()
           .set_index("path")["n"].to_dict())
    assert out == {"view->click": 2, "view": 2}
    pruned = (session_paths(ev, gap_minutes=30, min_count=2)
              .to_pandas())
    assert set(pruned["path"]) == {"view->click", "view"}
