"""Round-4 fifth-wave operators: long→wide pivot counts, column
profiling, CDC upsert-merge, snapshot diff, window rank, multi-source
BFS distances, prefix-duplicate detection, robust stats, k-means and
PCA.

Hand-computable fixtures pin the exact contracts the SQL oracles also
encode (version/src tie-breaks, null handling, rank algebra)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from pyrdf2vec_ray.ops.agg import pivot_counts, profile_columns
from pyrdf2vec_ray.ops.dedup import upsert_latest


# ---- pivot_counts ----------------------------------------------------------


def test_pivot_counts_matrix_and_zero_fill():
    df = pd.DataFrame(
        {"u": [1, 1, 1, 2, 2, 3],
         "t": ["a", "a", "b", "b", "zzz", "a"]})
    out = (pivot_counts(ray.data.from_pandas(df), "u", "t", ["a", "b"])
           .to_pandas().sort_values("u").reset_index(drop=True))
    assert list(out.columns) == ["u", "n_a", "n_b"]
    assert out["n_a"].tolist() == [2, 0, 1]
    # user 2's 'zzz' row is outside the declared domain and dropped
    assert out["n_b"].tolist() == [1, 1, 0]
    assert out["n_a"].dtype == np.int64 and out["n_b"].dtype == np.int64


def test_pivot_counts_value_never_seen_is_all_zero():
    df = pd.DataFrame({"u": [7, 7], "t": ["x", "x"]})
    out = pivot_counts(
        ray.data.from_pandas(df), "u", "t", ["x", "ghost"]).to_pandas()
    assert out["n_x"].tolist() == [2]
    assert out["n_ghost"].tolist() == [0]


# ---- profile_columns -------------------------------------------------------


def test_profile_columns_counts_nulls_and_distinct():
    df = pd.DataFrame(
        {"k": [1, 2, 2, 3, None],
         "s": ["a", "a", None, "b", None]})
    out = (profile_columns(ray.data.from_pandas(df), ["k", "s"])
           .to_pandas().set_index("column"))
    assert out.loc["k", "n_rows"] == 5
    assert out.loc["k", "n_null"] == 1
    assert out.loc["k", "n_distinct"] == 3
    assert out.loc["s", "n_null"] == 2
    assert out.loc["s", "n_distinct"] == 2


# ---- upsert_latest ---------------------------------------------------------


def test_upsert_latest_updates_win_and_base_survives():
    base = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 2, 3], "v": [10, 20, 30], "version": [0, 0, 0]}))
    updates = ray.data.from_pandas(pd.DataFrame(
        {"k": [2, 4], "v": [99, 44], "version": [1, 1]}))
    out = (upsert_latest(base, updates, ["k"], "version")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out["k"].tolist() == [1, 2, 3, 4]
    assert out["v"].tolist() == [10, 99, 30, 44]
    assert "__src" not in out.columns


def test_upsert_latest_version_tie_update_wins_and_newer_base_survives():
    # same version on both sides for k=1 → the update row wins the tie;
    # base holds a NEWER version for k=2 → base wins despite being base
    base = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 2], "v": [10, 20], "version": [5, 9]}))
    updates = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 2], "v": [11, 21], "version": [5, 8]}))
    out = (upsert_latest(base, updates, ["k"], "version")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out["v"].tolist() == [11, 20]
    assert out["version"].tolist() == [5, 9]


# ---- diff_tables -----------------------------------------------------------


def test_diff_tables_three_statuses_and_silence():
    from pyrdf2vec_ray.ops.join import diff_tables

    a = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 2, 3, 4], "v": [10, 20, 30, 40]}))
    b = ray.data.from_pandas(pd.DataFrame(
        {"k": [2, 3, 4, 5], "v": [20, 99, 40, 50]}))
    out = (diff_tables(a, b, ["k"], ["v"])
           .to_pandas().sort_values("k").reset_index(drop=True))
    # k=2 and k=4 are identical → omitted entirely
    assert out["k"].tolist() == [1, 3, 5]
    assert out["status"].tolist() == ["removed", "changed", "added"]


def test_diff_tables_nan_equals_nan():
    from pyrdf2vec_ray.ops.join import diff_tables

    a = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 2], "v": [np.nan, 1.0]}))
    b = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 2], "v": [np.nan, np.nan]}))
    out = diff_tables(a, b, ["k"], ["v"]).to_pandas()
    # k=1: NaN == NaN → unchanged; k=2: value → NaN is a change
    assert out["k"].tolist() == [2]
    assert out["status"].tolist() == ["changed"]


def test_diff_tables_runs_no_job_at_call_time(ray_jobs):
    """A lazy input is not executed (not even for its schema) until the
    diff is consumed, and the diff's rows are unchanged."""
    from pyrdf2vec_ray.ops.join import diff_tables

    a = ray.data.from_pandas(pd.DataFrame(
        {"k": [1, 2, 3, 4], "v": [10, 20, 30, 40]})).map_batches(
            lambda df: df, batch_format="pandas")
    b = ray.data.from_pandas(pd.DataFrame(
        {"k": [2, 3, 4, 5], "v": [20, 99, 40, 50]}))
    with ray_jobs() as jobs:
        diff = diff_tables(a, b, ["k"], ["v"])
    assert jobs.count == 0
    out = diff.to_pandas().sort_values("k").reset_index(drop=True)
    assert out["k"].tolist() == [1, 3, 5]
    assert out["status"].tolist() == ["removed", "changed", "added"]


# ---- rank_in_group ---------------------------------------------------------


def test_rank_in_group_min_rank_ties_and_pct():
    from pyrdf2vec_ray.ops.agg import rank_in_group

    df = pd.DataFrame({"g": ["a"] * 4 + ["b"],
                       "i": [1, 2, 3, 4, 5],
                       "v": [10, 10, 20, 30, 7]})
    out = (rank_in_group(ray.data.from_pandas(df), "g", "v", "i")
           .to_pandas().sort_values("i").reset_index(drop=True))
    # SQL RANK(): ties share min rank, gap after → 1,1,3,4
    assert out["rnk"].tolist() == [1, 1, 3, 4, 1]
    # PERCENT_RANK() = (rank-1)/(n-1); singleton group → 0.0
    assert out["pct_rank"].tolist() == [0.0, 0.0, 2 / 3, 1.0, 0.0]


# ---- bfs_distances ---------------------------------------------------------


def test_bfs_distances_levels_min_dist_and_early_exit():
    from pyrdf2vec_ray.ops.graph import bfs_distances

    # diamond with a shortcut: s->a->c, s->b->c, s->c (dist 1 wins), c->d
    edges = ray.data.from_pandas(pd.DataFrame(
        {"a": ["s", "s", "s", "a", "b", "c"],
         "b": ["a", "b", "c", "c", "c", "d"]}))
    out = (bfs_distances(edges, ["s"], max_depth=5)
           .to_pandas().set_index("vertex"))
    assert out.loc["s", "dist"] == 0
    assert out.loc["a", "dist"] == 1 and out.loc["b", "dist"] == 1
    # the direct s->c edge beats both 2-hop paths
    assert out.loc["c", "dist"] == 1
    assert out.loc["d", "dist"] == 2
    assert len(out) == 5  # early-exited well before depth 5


def test_bfs_distances_multi_seed_independent():
    from pyrdf2vec_ray.ops.graph import bfs_distances

    edges = ray.data.from_pandas(pd.DataFrame(
        {"a": ["x", "y"], "b": ["y", "z"]}))
    out = bfs_distances(edges, ["x", "y"], max_depth=2).to_pandas()
    got = {(r.seed, r.vertex): r.dist for r in out.itertuples()}
    assert got[("x", "z")] == 2 and got[("y", "z")] == 1
    assert ("y", "x") not in got  # directed: no back-edge


# ---- prefix_duplicates -----------------------------------------------------


def _prefix_ref(texts: dict) -> set:
    return {i for i, t in texts.items()
            if any(j != i and len(u) > len(t) and u.startswith(t)
                   for j, u in texts.items())}


def test_prefix_duplicates_matches_quadratic_reference():
    from pyrdf2vec_ray.ops.dedup import prefix_duplicates

    texts = {1: "hello world", 2: "hello world again", 3: "abc",
             4: "ab", 5: "xyz", 6: "hello world", 7: "hel",
             8: "", 9: "h"}
    docs = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": list(texts), "text": list(texts.values())}))
    got = set(prefix_duplicates(docs, k=4).to_pandas()["doc_id"])
    # quadratic reference: 1 and 6 (equal texts, both prefix of 2),
    # 4 ("ab"<"abc"), 7 ("hel", short path), 8 (empty string is a
    # strict prefix of everything non-empty), 9 ("h" < "hel")
    assert got == _prefix_ref(texts) == {1, 4, 6, 7, 8, 9}


def test_prefix_duplicates_k_invariance():
    from pyrdf2vec_ray.ops.dedup import prefix_duplicates

    texts = {i: t for i, t in enumerate(
        ["aaaa bbbb cccc", "aaaa bbbb", "aaaa", "aa", "bbbb cccc",
         "bbbb cccc dddd eeee", "zz", "zz top", "q"])}
    docs = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": list(texts), "text": list(texts.values())}))
    ref = _prefix_ref(texts)
    for k in (1, 3, 8):
        got = set(prefix_duplicates(docs, k=k).to_pandas()["doc_id"])
        assert got == ref, f"k={k}"


# ---- robust_stats ----------------------------------------------------------


def test_robust_stats_median_and_mad():
    from pyrdf2vec_ray.ops.agg import robust_stats

    # group a: values 1..5 + outlier 1000 → median/MAD ignore it where
    # mean/std would not; quantile_disc median of even n is the LOWER
    # middle (rank ceil(n*0.5))
    df = pd.DataFrame({"g": ["a"] * 6 + ["b"] * 3,
                       "v": [1, 2, 3, 4, 5, 1000, 10, 20, 90]})
    out = (robust_stats(ray.data.from_pandas(df), "g", "v")
           .to_pandas().set_index("g"))
    assert out.loc["a", "median"] == 3       # rank ceil(6*.5)=3 → value 3
    # devs from 3: [2,1,0,1,2,997] sorted [0,1,1,2,2,997] → rank 3 → 1
    assert out.loc["a", "mad"] == 1
    assert out.loc["b", "median"] == 20
    assert out.loc["b", "mad"] == 10         # devs [10,0,70] → median 10


# ---- kmeans_fit ------------------------------------------------------------


def _lloyd_ref(V: np.ndarray, C: np.ndarray, iters: int) -> np.ndarray:
    C = C.astype(np.float64).copy()
    for _ in range(iters):
        Cn = C / np.maximum(np.linalg.norm(C, axis=1, keepdims=True),
                            1e-300)
        Vn = V / np.maximum(np.linalg.norm(V, axis=1, keepdims=True),
                            1e-300)
        cl = (Vn @ Cn.T).argmax(axis=1)
        new = C.copy()
        for j in range(len(C)):
            m = cl == j
            if m.any():
                new[j] = V[m].mean(axis=0)
        if np.array_equal(new, C):
            break
        C = new
    return C


def test_kmeans_fit_matches_numpy_lloyd_and_converges():
    from pyrdf2vec_ray.ops.similarity import kmeans_fit

    rng = np.random.RandomState(3)
    # three well-separated blobs in 4-d
    centers = np.array([[10, 0, 0, 0], [0, 10, 0, 0], [0, 0, 10, 0]],
                       dtype=np.float64)
    V = np.vstack([c + rng.randn(40, 4) * 0.2 for c in centers])
    init = V[[0, 40, 80]]
    emb = ray.data.from_pandas(pd.DataFrame(
        {"vec_id": np.arange(len(V)), "embedding": list(V)}))

    C = kmeans_fit(emb, iters=6, init=init)
    ref = _lloyd_ref(V, init, 6)
    # distributed partial-sum order differs from numpy's single mean —
    # equality up to float reassociation, not bitwise
    assert np.allclose(C, ref, atol=1e-9)
    # converged: each centroid sits on its blob center
    assert np.allclose(np.sort(C.argmax(axis=1)), [0, 1, 2])
    assert np.allclose(C.max(axis=1), 10, atol=0.2)
    # determinism: a second run is byte-identical
    C2 = kmeans_fit(emb, iters=6, init=init)
    assert np.array_equal(C, C2)


# ---- PCA -------------------------------------------------------------------


def test_pca_fit_matches_numpy_and_transform_roundtrip():
    from pyrdf2vec_ray.ops.similarity import pca_fit, pca_transform

    rng = np.random.RandomState(11)
    # anisotropic cloud: variance concentrated along two known axes
    base = rng.randn(300, 2) * np.array([5.0, 2.0])
    mix = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    V = base @ mix + rng.randn(300, 4) * 0.05 + np.array([1, 2, 3, 4])
    emb = ray.data.from_pandas(pd.DataFrame(
        {"vec_id": np.arange(len(V)), "embedding": list(V)}))

    mean, comps, var = pca_fit(emb, n_components=2)

    # numpy reference: population covariance eigh, same sign fix
    cov = np.cov(V.T, bias=True)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:2]
    ref = v[:, order].T
    for i in range(2):
        j = int(np.abs(ref[i]).argmax())
        if ref[i, j] < 0:
            ref[i] = -ref[i]
    assert np.allclose(mean, V.mean(axis=0), atol=1e-9)
    assert np.allclose(comps, ref, atol=1e-8)
    assert np.allclose(var, w[order], atol=1e-8)
    # top component points along the high-variance axis (dim 0)
    assert np.abs(comps[0, 0]) > 0.99

    proj = (pca_transform(emb, mean, comps).to_pandas()
            .sort_values("vec_id"))
    P = np.stack(proj["proj"].to_numpy())
    assert np.allclose(P, (V - V.mean(axis=0)) @ ref.T, atol=1e-8)
    # projections onto an orthonormal basis preserve variance
    assert np.allclose(P.var(axis=0), var, atol=1e-6)
