"""Distributed graph metrics over edge-list Datasets.

The KG side of the engine materializes (subj, pred, obj) triples
(pipelines/construct.py, sources/tpch_kg.py); these operators consume
any undirected edge list derived from them — or from behavioral data
(co-mentions, co-purchases) — and compute structural statistics the
reference's walk strategies never expose: triangle participation and
local clustering, the standard cohesion features for entity ranking
and community validation.

Scale notes live per-operator; the common theme is degree-ordered
edge orientation (Chiba–Nishizeki / Schank–Wagner), which bounds
per-vertex fan-out at O(√m) so no wedge explosion occurs at hub
vertices — the exact skew hazard the brief calls out for hot keys.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

__all__ = ["triangle_counts", "link_scores", "neighbor_mean_features",
           "kcore_bounded", "transitive_closure", "negative_edges",
           "scc_bounded"]


def _broadcast_set(ds: ray.data.Dataset, col: str) -> frozenset | None:
    """A MATERIALIZED single-column Dataset as a frozenset when it
    fits the broadcast rule (``join.small_table``); ``None`` past it —
    callers fall back to the distributed join path.  The iterative
    graph ops use this to fuse per-round removal joins into stateless
    filter maps."""
    from pyrdf2vec_ray.ops.join import small_table

    t = small_table(ds)
    if t is None:
        return None
    # a zero-row Dataset reaches the driver column-less
    return frozenset(t[col].to_pylist()) if t.num_rows else frozenset()


def _canon_undirected(edges: ray.data.Dataset, a_col: str, b_col: str,
                      num_buckets: int | None = None) -> ray.data.Dataset:
    """The distinct undirected edge set ``(a, b)`` with ``a < b`` and
    self-loops dropped, materialized."""
    from pyrdf2vec_ray.shuffle import distinct

    def canon(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch[a_col].to_numpy()
        b = batch[b_col].to_numpy()
        keep = a != b
        a, b = a[keep], b[keep]
        return pd.DataFrame({"a": np.minimum(a, b), "b": np.maximum(a, b)})

    return distinct(edges.map_batches(canon, batch_format="pandas"),
                    ["a", "b"], num_buckets=num_buckets).materialize()


def _triangles(e: ray.data.Dataset, num_buckets: int | None = None):
    """Every triangle of a canonical distinct undirected edge set ``e``
    (``a < b``, materialized) exactly once, as ``(p, q, center)`` rows,
    plus the materialized degree table ``(v, d)``.

    Degree-oriented wedge closing (Chiba–Nishizeki / Schank–Wagner):
    direct every edge from its lower-(degree, id) endpoint to the
    higher one; the resulting DAG has out-degree O(√m) at every vertex,
    so the out-neighbor pairs (wedges) per center, probed against the
    directed edge set, enumerate each triangle once at O(m^1.5) total
    work — hub vertices sit at the HIGH end of the order and receive no
    fan-out.  The degree attach and the closing probe broadcast their
    probed side (degree map, directed pair set) when it fits the
    broadcast rule, else each is a key-bucket join."""
    from pyrdf2vec_ray.ops.join import (_dtypes_of, adaptive_join,
                                        hash_join, small_table)
    from pyrdf2vec_ray.shuffle import bucket_agg, bucket_apply

    vd = _dtypes_of(e, None)["a"]
    i8 = np.dtype("int64")

    def ends(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"v": np.concatenate([batch["a"].to_numpy(),
                                  batch["b"].to_numpy()])})

    # e feeds both the degree count and the attach, and the directed
    # edge set feeds both the wedges and the closing probe; Ray Data
    # re-executes a lazy input per consumer, so both are materialized
    deg = bucket_agg(e.map_batches(ends, batch_format="pandas"),
                     ["v"], {"d": ("v", "size")},
                     num_buckets=num_buckets).materialize()
    dt = small_table(deg)
    if dt is not None:
        ddf = dt.to_pandas()
        deg_ref = ray.put(dict(zip(ddf["v"], ddf["d"].astype(np.int64))))

        def attach_deg(batch: pd.DataFrame) -> pd.DataFrame:
            dmap = ray.get(deg_ref)
            out = batch.copy()
            out["da"] = out["a"].map(dmap).astype(np.int64)
            out["db"] = out["b"].map(dmap).astype(np.int64)
            return out

        eab = e.map_batches(attach_deg, batch_format="pandas")
    else:
        def rn(nv, nd):
            def fn(batch: pd.DataFrame) -> pd.DataFrame:
                return batch.rename(columns={"v": nv, "d": nd})
            return fn

        ea = hash_join(e, deg.map_batches(rn("a", "da"),
                                          batch_format="pandas"),
                       on=["a"], num_buckets=num_buckets,
                       rschema={"a": vd, "da": i8})
        eab = hash_join(ea, deg.map_batches(rn("b", "db"),
                                            batch_format="pandas"),
                        on=["b"], num_buckets=num_buckets,
                        lschema={"a": vd, "b": vd, "da": i8},
                        rschema={"b": vd, "db": i8})

    def orient(batch: pd.DataFrame) -> pd.DataFrame:
        da = batch["da"].to_numpy()
        db = batch["db"].to_numpy()
        a = batch["a"].to_numpy()
        b = batch["b"].to_numpy()
        fwd = (da < db) | ((da == db) & (a < b))
        return pd.DataFrame(
            {"u": np.where(fwd, a, b), "w": np.where(fwd, b, a),
             "dw": np.where(fwd, db, da)})

    de = eab.map_batches(orient, batch_format="pandas").materialize()

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        m = g[["u", "w", "dw"]]
        j = m.merge(m, on="u", suffixes=("_1", "_2"))
        keep = (j["dw_1"] < j["dw_2"]) | (
            (j["dw_1"] == j["dw_2"]) & (j["w_1"] < j["w_2"]))
        j = j[keep]
        return pd.DataFrame({"p": j["w_1"].to_numpy(),
                             "q": j["w_2"].to_numpy(),
                             "center": j["u"].to_numpy()})

    def as_pq(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"p": batch["u"].to_numpy(),
                             "q": batch["w"].to_numpy()})

    # closing probe: a wedge is a triangle iff (p, q) is a directed
    # edge.  Broadcasting the |E| pair set keeps the O(m^1.5) wedge
    # stream out of any exchange
    wed = bucket_apply(de, ["u"], wedges, num_buckets=num_buckets,
                       batch_format="pandas")
    tri = adaptive_join(wed, de.map_batches(as_pq, batch_format="pandas"),
                        on=["p", "q"], how="semi", num_buckets=num_buckets,
                        lschema={"p": vd, "q": vd, "center": vd})
    return tri, deg


def triangle_counts(
    edges: ray.data.Dataset,
    a_col: str = "a",
    b_col: str = "b",
) -> ray.data.Dataset:
    """Per-vertex triangle participation counts over an undirected
    graph given as an edge list (self-loops dropped, duplicate edges
    collapsed).  Returns ``(v, degree, n_tri)`` for every vertex of the
    deduplicated graph, with ``n_tri = 0`` for vertices in no
    triangle; an empty edge set gives an empty result.

    Triangles come from :func:`_triangles` (degree-oriented wedge
    closing, O(m^1.5) wedges, no global sort); each triangle then
    votes once for each of its three vertices in one vertex-bucket
    count, and the per-vertex counts attach to the degree table in one
    adaptive left join (``join.adaptive_join``)."""
    from pyrdf2vec_ray.ops.join import adaptive_join
    from pyrdf2vec_ray.shuffle import bucket_agg

    e = _canon_undirected(edges, a_col, b_col)
    if not e.count():
        return e
    tri, deg = _triangles(e)

    def roles(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"v": np.concatenate([batch["p"].to_numpy(),
                                  batch["q"].to_numpy(),
                                  batch["center"].to_numpy()])})

    pv = bucket_agg(tri.map_batches(roles, batch_format="pandas"),
                    ["v"], {"n_tri": ("v", "size")})

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"v": batch["v"].to_numpy(),
             "degree": batch["d"].to_numpy().astype(np.int64),
             "n_tri": batch["n_tri"].fillna(0).to_numpy(dtype=np.int64)})

    return adaptive_join(deg, pv, on=["v"], how="left").map_batches(
        finish, batch_format="pandas")


def link_scores(
    edges: ray.data.Dataset,
    a_col: str = "a",
    b_col: str = "b",
    max_center_degree: int | None = None,
    min_common: int = 1,
    max_center_fanout: int | None = None,
) -> ray.data.Dataset:
    """Link-prediction scores for NON-adjacent vertex pairs sharing at
    least ``min_common`` neighbors: ``(u, w, n_common, aa, jaccard)``
    with Adamic–Adar ``aa = Σ_z 1/ln(deg(z))`` over the common
    neighbors z and neighborhood Jaccard ``n_common / (deg(u) + deg(w)
    - n_common)`` — the standard unsupervised candidate generators for
    KG completion, run AFTER the graph the reference only walks over
    has been materialized (the reference has no link-prediction stage;
    its walks assume the edge set is final).

    Skew control is explicit, not hoped-for: pair generation through a
    common neighbor z is O(deg(z)^2), so hub centers (the KG's
    nation-/supplier-degree hubs) would dominate the wedge volume while
    contributing ~nothing to aa (1/ln(d) → 0).  ``max_center_degree``
    drops them BEFORE fan-out — the documented mitigation (Jaccard/AA
    denominators still use FULL degrees), mirroring how production
    link-prediction prunes super-nodes.  ``max_center_fanout`` (round
    5) bounds wedge volume HARDER than the cap alone: each surviving
    center keeps only its first k neighbors in deterministic
    ``(md5(v), v)`` order, so per-center fan-out is O(k²) regardless of
    the cap, at a measured recall cost (SQL parity form:
    ``ROW_NUMBER() OVER (PARTITION BY z ORDER BY md5(v), v) <= k``).
    ``min_common`` is the support threshold on the aggregated pairs.

    Shuffle shape (round 5 — FOUR key-bucket exchanges, down from
    seven; measured wall time was barrier count, not wedge volume):
    (1) one pair-bucket distinct of the canonical edge set; (2) ONE
    v-keyed exchange annotating every adjacency row with its NEIGHBOR's
    degree (the bucket holds all rows listing v, so dv is a local group
    size — replaces the two pair-level degree joins that used to close
    the pipeline); (3) the z-keyed wedge exchange — deg(z), the hub
    cap, and the fan-out bound are local group operations, wedge rows
    carry (invlog, du, dw), and a per-bucket partial combine collapses
    pairs repeated across this bucket's centers before the shuffle;
    (4) ONE pair-bucket pass over the tagged union of wedge partials
    and edge rows that sums n_common/aa, drops adjacent pairs (the
    anti-join, now in-bucket), applies min_common, and computes Jaccard
    from the carried full degrees.  Nothing global-sorts and nothing
    reaches the driver."""
    from pyrdf2vec_ray.shuffle import bucket_apply, distinct

    def canon(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch[a_col].to_numpy()
        b = batch[b_col].to_numpy()
        keep = a != b
        a, b = a[keep], b[keep]
        return pd.DataFrame({"a": np.minimum(a, b), "b": np.maximum(a, b)})

    # e feeds two consumers (the adjacency fan-out + the edge-tagged
    # anti stream): materialize once into the object store — the
    # multi-consumer pattern, not a driver collect.
    e = distinct(edges.map_batches(canon, batch_format="pandas"),
                 ["a", "b"]).materialize()

    def both_dirs(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"z": np.concatenate([batch["a"].to_numpy(),
                                  batch["b"].to_numpy()]),
             "v": np.concatenate([batch["b"].to_numpy(),
                                  batch["a"].to_numpy()])})

    adj = e.map_batches(both_dirs, batch_format="pandas")

    def annotate(g: pd.DataFrame) -> pd.DataFrame:
        # deg(v) = #adjacency rows centered on v = #rows listing v as
        # the neighbor (undirected symmetry) — a local group size here
        dv = g.groupby("v")["z"].transform("size")
        return g.assign(dv=dv.to_numpy())

    ann = bucket_apply(adj, ["v"], annotate, batch_format="pandas")

    cap = None if max_center_degree is None else int(max_center_degree)
    fanout = None if max_center_fanout is None else int(max_center_fanout)
    mc = int(min_common)

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        # deg(z) is exact here: the z-bucket holds ALL rows of each z
        d = g.groupby("z")["v"].transform("size")
        if cap is not None:
            g = g[d <= cap]
            d = d[g.index]
        m = g[["z", "v", "dv"]].assign(d=d.to_numpy())
        if fanout is not None:
            import hashlib

            m = m.assign(_h=[hashlib.md5(str(x).encode()).hexdigest()
                             for x in m["v"]])
            m = (m.sort_values(["z", "_h", "v"], kind="mergesort")
                  .groupby("z", sort=False).head(fanout)
                  .drop(columns="_h"))
        j = m.merge(m[["z", "v", "dv"]], on="z", suffixes=("", "_2"))
        j = j[j["v"] < j["v_2"]]
        out = pd.DataFrame(
            {"u": j["v"].to_numpy(), "w": j["v_2"].to_numpy(),
             "invlog": 1.0 / np.log(j["d"].to_numpy(np.float64)),
             "du": j["dv"].to_numpy(np.int64),
             "dw": j["dv_2"].to_numpy(np.int64)})
        # partial combine: a pair reached via several centers of this
        # bucket collapses to one row before the pair shuffle
        p = out.groupby(["u", "w", "du", "dw"], as_index=False).agg(
            n_partial=("invlog", "size"), aa=("invlog", "sum"))
        p["is_edge"] = False
        return p[["u", "w", "n_partial", "aa", "du", "dw", "is_edge"]]

    wed = bucket_apply(ann, ["z"], wedges, batch_format="pandas")

    def edge_rows(batch: pd.DataFrame) -> pd.DataFrame:
        n = len(batch)
        return pd.DataFrame(
            {"u": batch["a"].to_numpy(), "w": batch["b"].to_numpy(),
             "n_partial": np.zeros(n, np.int64),
             "aa": np.zeros(n, np.float64),
             "du": np.zeros(n, np.int64), "dw": np.zeros(n, np.int64),
             "is_edge": np.ones(n, bool)})

    tagged = wed.union(e.map_batches(edge_rows, batch_format="pandas"))

    def score_bucket(g: pd.DataFrame) -> pd.DataFrame:
        wrows = g[~g["is_edge"]]
        agg = wrows.groupby(["u", "w"], as_index=False).agg(
            n_common=("n_partial", "sum"), aa=("aa", "sum"),
            du=("du", "first"), dw=("dw", "first"))
        er = g.loc[g["is_edge"], ["u", "w"]]
        m = agg.merge(er, on=["u", "w"], how="left", indicator=True)
        m = m[(m["_merge"] == "left_only") & (m["n_common"] >= mc)]
        nc = m["n_common"].to_numpy(np.float64)
        du = m["du"].to_numpy(np.float64)
        dw = m["dw"].to_numpy(np.float64)
        return pd.DataFrame(
            {"u": m["u"].to_numpy(), "w": m["w"].to_numpy(),
             "n_common": m["n_common"].to_numpy().astype(np.int64),
             "aa": m["aa"].to_numpy(np.float64),
             "jaccard": nc / (du + dw - nc)})

    return bucket_apply(tagged, ["u", "w"], score_bucket,
                        batch_format="pandas")


def neighbor_mean_features(
    edges: ray.data.Dataset,
    feats: ray.data.Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    src_col: str = "src",
    dst_col: str = "dst",
) -> ray.data.Dataset:
    """GNN-style one-hop mean aggregation: for every source vertex,
    the per-dimension mean of its out-neighbors' feature vectors —
    ``(v, dim, nbr_mean)`` long-form (one row per vertex × dimension),
    the message-passing primitive behind GraphSAGE-mean / R-GCN layers
    over a materialized KG.  The reference embeds via walks + Word2Vec
    only; a Ray-native engine also needs the direct neighborhood-
    aggregation path for feature-bearing graphs.

    Shuffle shape: the feature table is exploded to scalar (id, dim,
    val) rows FIRST — tensor-extension list columns cannot ride the
    shuffle's typed union fillers, and scalar rows make the exchange
    zero-copy Arrow — then ONE hash join keyed on the neighbor id (the
    feature table never broadcasts: at corpus scale it is the big
    side), a per-batch partial (v, dim)-sum combiner, and one (v, dim)-
    bucket sum/count reduce.  Long-form output avoids list-column
    reassembly; callers needing vectors regroup per v downstream."""
    from pyrdf2vec_ray.ops.join import hash_join
    from pyrdf2vec_ray.shuffle import bucket_agg

    def as_nbr(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"v": batch[src_col].to_numpy(),
                             id_col: batch[dst_col].to_numpy()})

    nbr = edges.map_batches(as_nbr, batch_format="pandas")

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame({id_col: pd.array([], dtype="int64"),
                                 "dim": pd.array([], dtype="int64"),
                                 "val": pd.array([], dtype="float64")})
        vecs = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        n, d = vecs.shape
        return pd.DataFrame(
            {id_col: np.repeat(batch[id_col].to_numpy(), d),
             "dim": np.tile(np.arange(d, dtype=np.int64), n),
             "val": vecs.ravel()})

    feats_long = feats.select_columns([id_col, vec_col]).map_batches(
        explode, batch_format="pandas")
    joined = hash_join(nbr, feats_long, on=[id_col])

    def partial_sums(batch: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame({"v": batch["v"].to_numpy(),
                             "dim": batch["dim"].to_numpy(),
                             "s": batch["val"].to_numpy(np.float64)})
        part["c"] = 1
        return part.groupby(["v", "dim"], as_index=False).agg(
            s=("s", "sum"), c=("c", "sum"))

    partial = joined.map_batches(partial_sums, batch_format="pandas")
    sums = bucket_agg(partial, ["v", "dim"],
                      {"s": ("s", "sum"), "c": ("c", "sum")}, pre=False)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"v": batch["v"].to_numpy(),
             "dim": batch["dim"].to_numpy().astype(np.int64),
             "nbr_mean": batch["s"].to_numpy(np.float64)
             / batch["c"].to_numpy(np.float64)})

    return sums.map_batches(finish, batch_format="pandas")


def kcore_bounded(
    edges: ray.data.Dataset,
    k: int,
    rounds: int,
    a_col: str = "a",
    b_col: str = "b",
) -> ray.data.Dataset:
    """Bounded k-core peeling: run exactly ``rounds`` peel iterations —
    each drops every vertex of current degree < k together with its
    edges — and return ``(v, deg)`` for the vertices of the surviving
    subgraph with their residual degrees.  With ``rounds`` large enough
    this is the exact k-core (the densest-region extractor used to
    seed community detection and to prune walk corpora of tree-like
    fringe); bounding the round count keeps the operator deterministic
    and bit-reproducible in SQL (the oracle unrolls the same rounds),
    the same contract as the bounded LPA sweep and PageRank step.

    Scale shape per round: one vertex-bucket degree count over the
    CURRENT edge set, then the low-endpoint edges are removed.  The
    low-degree set is small by definition: within the broadcast rule
    (``join.BROADCAST_ROWS``) it ships ONCE as a frozenset and BOTH
    endpoint anti-joins fuse into a single stateless filter map kept
    LAZY — the next round's degree count (or the final degrees pass)
    re-applies the stacked cheap isin filters over the one
    materialized base instead of re-writing the edge set every round,
    so each round costs ONE substantial Dataset job.
    Past the limit the round falls back to two key-bucketed
    hash anti-joins with a pinned edge set (no driver state at any
    size).  O(rounds) sequential exchanges worst case, same dependency
    depth as the reference-free iterative fits (WL, LPA)."""
    from pyrdf2vec_ray.ops.join import _dtypes_of, adaptive_join
    from pyrdf2vec_ray.shuffle import bucket_agg

    cur = _canon_undirected(edges, a_col, b_col)
    if not cur.count():
        return cur
    vd = _dtypes_of(cur, None)["a"]

    def ends(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"v": np.concatenate([batch["a"].to_numpy(),
                                  batch["b"].to_numpy()])})

    def degrees(es: ray.data.Dataset) -> ray.data.Dataset:
        return bucket_agg(es.map_batches(ends, batch_format="pandas"),
                          ["v"], {"d": ("v", "size")})

    for _ in range(rounds):
        deg = degrees(cur)

        def low_only(batch: pd.DataFrame) -> pd.DataFrame:
            keep = batch[batch["d"] < k]
            return pd.DataFrame({"v": keep["v"].to_numpy()})

        low = deg.map_batches(low_only, batch_format="pandas").materialize()
        n_low = low.count()
        if n_low == 0:
            break  # fixpoint: later rounds are identity on both engines

        low_set = _broadcast_set(low, "v")
        if low_set is not None:
            # fused broadcast drop (both endpoints, one stateless map);
            # cur stays LAZY — the stacked isin filters re-run over the
            # materialized base, which beats writing the edge set per
            # round (the removal is cheap, the write is not)
            low_ref = ray.put(low_set)

            def drop_low(batch: pd.DataFrame,
                         low_ref=low_ref) -> pd.DataFrame:
                s = ray.get(low_ref)
                keep = (~batch["a"].isin(s) & ~batch["b"].isin(s))
                return batch[keep.to_numpy()]

            cur = cur.map_batches(drop_low, batch_format="pandas")
            continue

        def as_key(col):
            def fn(batch: pd.DataFrame) -> pd.DataFrame:
                return pd.DataFrame({col: batch["v"].to_numpy()})
            return fn

        e_schema = {"a": vd, "b": vd}
        cur = adaptive_join(
            cur, low.map_batches(as_key("a"), batch_format="pandas"),
            on=["a"], how="anti", lschema=e_schema)
        cur = adaptive_join(
            cur, low.map_batches(as_key("b"), batch_format="pandas"),
            on=["b"], how="anti", lschema=e_schema).materialize()

    return degrees(cur)


def transitive_closure(
    edges: ray.data.Dataset,
    rounds: int,
    a_col: str = "a",
    b_col: str = "b",
) -> ray.data.Dataset:
    """All ordered pairs (src, dst) with a directed path src → dst of
    length >= 1 — the transitive-closure primitive behind RDFS-style
    reasoning (subClassOf / skos:broader chains), materialized-path
    ancestry tables, and reachability features.  Path DOUBLING: round i
    composes the current relation with itself (R ← R ∪ R∘R), so paths
    up to length 2^rounds are covered in ``rounds`` join rounds —
    O(log diameter) sequential exchanges instead of the
    O(diameter) of naive frontier expansion (the reference only ever
    walks paths; it has no closure operator).

    EXACT when ``2^rounds >= the longest simple path`` (the TPC-H KG is
    a DAG of depth 4, so rounds=3 closes it); with fewer rounds this is
    the documented bounded-depth closure, same contract as
    :func:`kcore_bounded`'s bounded peel.

    Scale shape per round: the composition is a broadcast scan while
    the relation fits ``join.BROADCAST_ROWS``, else one mid-vertex-bucket
    hash join (``join.adaptive_join``); + one pair-distinct; the
    relation is pinned per round (it feeds both join sides and the
    union).  Ceiling is the closure ITSELF: reachability pair counts
    grow quadratically in dense graphs — closure is for
    hierarchy-shaped (DAG-ish, bounded fan-in) relations, not social
    graphs."""
    from pyrdf2vec_ray.ops.join import _dtypes_of, adaptive_join
    from pyrdf2vec_ray.shuffle import distinct

    def canon(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"src": batch[a_col].to_numpy(),
                             "dst": batch[b_col].to_numpy()})

    cur = distinct(edges.map_batches(canon, batch_format="pandas"),
                   ["src", "dst"]).materialize()
    if not cur.count():
        return cur
    vd = _dtypes_of(cur, None)["src"]

    for _ in range(int(rounds)):
        def as_left(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"src": batch["src"].to_numpy(),
                                 "m": batch["dst"].to_numpy()})

        def as_right(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"m": batch["src"].to_numpy(),
                                 "dst": batch["dst"].to_numpy()})

        # composition: a stateless scan against the broadcast relation
        # while it fits (one exchange saved per doubling round), a
        # key-bucket join above it
        comp = adaptive_join(
            cur.map_batches(as_left, batch_format="pandas"),
            cur.map_batches(as_right, batch_format="pandas"),
            on=["m"], lschema={"src": vd, "m": vd})

        def drop_m(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch[["src", "dst"]]
            return out[out["src"] != out["dst"]].reset_index(drop=True)

        nxt = distinct(
            cur.union(comp.map_batches(drop_m, batch_format="pandas")),
            ["src", "dst"]).materialize()
        if nxt.count() == cur.count():
            return nxt  # fixpoint: further rounds are the identity
        cur = nxt

    return cur


def negative_edges(
    edges: ray.data.Dataset,
    k: int,
    seed: int = 0,
    a_col: str = "a",
    b_col: str = "b",
) -> ray.data.Dataset:
    """(src, dst, i): k DETERMINISTIC negative samples per vertex —
    candidate targets drawn by hashing into the dense vertex-id space
    (``dst_id = splitmix64((src_id*k + i) ^ seed) % V``), self-loops
    skipped, true directed edges anti-joined away.  The corruption-
    sampling primitive KG-embedding training objectives (TransE-style
    margin losses, SGNS over graphs) need NEXT to the positive edge
    stream; hash-derived like every sampler in this engine, so the
    negative set is reproducible under any partitioning/resume and in
    SQL — no RNG stream, no driver state.

    Scale shape: one :func:`pyrdf2vec_ray.shuffle.dense_ids` encoding
    (the iterative-reuse regime that utility is for), a stateless k-fold
    candidate expansion over the vertex-id table (vertex-scale, not
    edge-scale), one vid-bucket decode join and one pair-bucket
    anti-join against the true edges.  Expected output ≈ V·k minus
    accidental-hit and self-loop losses; callers needing EXACTLY k per
    vertex oversample and top-k per src downstream."""
    from pyrdf2vec_ray.ops.curate import splitmix64
    from pyrdf2vec_ray.ops.join import _dtypes_of, hash_join, hash_semi_join
    from pyrdf2vec_ray.shuffle import dense_ids, distinct

    def verts(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"v": np.concatenate(
            [batch[a_col].to_numpy(), batch[b_col].to_numpy()])})

    vmap = dense_ids(edges.map_batches(verts, batch_format="pandas"),
                     "v").materialize()
    n_verts = int(vmap.count())
    kk = int(k)

    def gen(batch: pd.DataFrame) -> pd.DataFrame:
        sid = batch["vid"].to_numpy(dtype=np.int64)
        src = np.repeat(batch["v"].to_numpy(), kk)
        sid_r = np.repeat(sid, kk)
        i = np.tile(np.arange(kk, dtype=np.int64), len(sid))
        key = (sid_r * kk + i).view(np.uint64)
        did = (splitmix64(key ^ np.uint64(seed))
               % np.uint64(n_verts)).astype(np.int64)
        keep = did != sid_r
        return pd.DataFrame({"src": src[keep], "vid": did[keep],
                             "i": i[keep]})

    cands = vmap.map_batches(gen, batch_format="pandas")
    vd = _dtypes_of(vmap, None)["v"]
    i8 = np.dtype("int64")

    def as_dst(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"vid": batch["vid"].to_numpy(),
                             "dst": batch["v"].to_numpy()})

    named = hash_join(cands, vmap.map_batches(as_dst,
                                              batch_format="pandas"),
                      on=["vid"], lschema={"src": vd, "vid": i8, "i": i8},
                      rschema={"vid": i8, "dst": vd})

    def pair_cols(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"src": batch["src"].to_numpy(),
                             "dst": batch["dst"].to_numpy(),
                             "i": batch["i"].to_numpy()})

    def true_pairs(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"src": batch[a_col].to_numpy(),
                             "dst": batch[b_col].to_numpy()})

    e = distinct(edges.map_batches(true_pairs, batch_format="pandas"),
                 ["src", "dst"])
    return hash_semi_join(
        named.map_batches(pair_cols, batch_format="pandas"), e,
        on=["src", "dst"], anti=True,
        lschema={"src": vd, "dst": vd, "i": i8},
        rschema={"src": vd, "dst": vd})


def bfs_distances(
    edges: ray.data.Dataset,
    seeds: list,
    max_depth: int,
    a_col: str = "a",
    b_col: str = "b",
) -> ray.data.Dataset:
    """Multi-source shortest-path BFS: for every seed, the exact
    unweighted distance to every vertex reachable within ``max_depth``
    directed hops — ``(seed, vertex, dist)`` with dist = the MINIMUM
    hop count (0 for the seed itself).  This is the distance-labeled
    sibling of :func:`transitive_closure` (min-hop semiring instead of
    reachability) and the primitive behind sampled closeness/harmonic
    centrality, "distance to the nearest labeled node" features and
    ego-network radius checks.

    ``seeds`` is an explicit small list — the SAMPLED-sources contract
    (exact all-pairs BFS is quadratic and not this operator); the seed
    frontier starts as a tiny in-memory table and every expansion is
    distributed.

    Scale shape per level: the hop is one ``join.adaptive_join`` — a
    broadcast join while the frontier fits ``join.BROADCAST_ROWS`` (the
    frontier is the small side by construction — seeds × reached
    vertices — so the edge set is only SCANNED, never exchanged), else
    one mid-vertex-bucket hash join of the frontier against the edge
    set; then one fused (seed, vertex)-bucket pass that
    both collapses parallel paths (distinct) AND drops already-settled
    vertices (anti vs visited) in the same kernel, so each vertex
    settles at its FIRST (= minimal) level — frontier and visited are
    materialized per round (they feed two consumers each).  Empty
    frontier short-circuits.  Naive frontier expansion (not doubling)
    is the right call here: distances need every level anyway."""
    from pyrdf2vec_ray.ops.join import adaptive_join
    from pyrdf2vec_ray.shuffle import bucket_apply

    def canon(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"m": batch[a_col].to_numpy(),
                             "nxt": batch[b_col].to_numpy()})

    es = edges.map_batches(canon, batch_format="pandas").materialize()
    frontier = ray.data.from_pandas(pd.DataFrame(
        {"seed": np.asarray(seeds),
         "vertex": np.asarray(seeds),
         "dist": np.zeros(len(seeds), dtype=np.int64)})).materialize()
    if not es.count():
        return frontier   # each seed reaches only itself
    visited = frontier
    levels = [frontier]

    for d in range(1, int(max_depth) + 1):
        def as_left(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"seed": batch["seed"].to_numpy(),
                                 "m": batch["vertex"].to_numpy()})

        # the frontier is the SMALL side at every level (seeds ×
        # reached vertices); broadcast, the hop is a stateless scan of
        # the edge set — a hash join exchanges the FULL edge set once
        # per level
        hop = adaptive_join(
            es, frontier.map_batches(as_left, batch_format="pandas"),
            on=["m"])

        def as_cand(batch: pd.DataFrame) -> pd.DataFrame:
            # per-batch combiner: local dedup before the fused shuffle
            return pd.DataFrame(
                {"seed": batch["seed"].to_numpy(),
                 "vertex": batch["nxt"].to_numpy(),
                 "_new": True}).drop_duplicates(["seed", "vertex"])

        def as_seen(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"seed": batch["seed"].to_numpy(),
                                 "vertex": batch["vertex"].to_numpy(),
                                 "_new": False})

        tagged = hop.map_batches(as_cand, batch_format="pandas").union(
            visited.map_batches(as_seen, batch_format="pandas"))

        def settle(g: pd.DataFrame, _d=d) -> pd.DataFrame:
            # fused distinct + anti-join: keep candidate keys with no
            # visited row, once each
            seen = g[~g["_new"]][["seed", "vertex"]]
            fresh = (g[g["_new"]][["seed", "vertex"]]
                     .drop_duplicates(["seed", "vertex"])
                     .merge(seen.assign(_hit=True),
                            on=["seed", "vertex"], how="left"))
            out = fresh[fresh["_hit"].isna()][["seed", "vertex"]].copy()
            out["dist"] = np.int64(_d)
            return out.reset_index(drop=True)

        frontier = bucket_apply(tagged, ["seed", "vertex"], settle,
                                batch_format="pandas").materialize()
        if frontier.count() == 0:
            break
        levels.append(frontier)
        visited = visited.union(frontier).materialize()

    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out


def pagerank_rounds(
    edges: ray.data.Dataset,
    rounds: int,
    alpha: float = 0.85,
    a_col: str = "a",
    b_col: str = "b",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Distributed PageRank power iteration — the SURVEY A5 scale path
    (k rounds of scores⋈edges + a dst-keyed reduce) whose vectorized
    driver twin is ``samplers._pagerank_from_pairs`` (that form pulls
    the DISTINCT EDGE LIST to the driver and serves graphs that fit
    the object store; this one never does).  Same networkx update rule
    — uniform personalization, dangling mass redistributed — so at
    equal round counts the two agree to float-sum reassociation
    (pytest-pinned; the oracle's 1e-6 rounding absorbs it).

    Pinned state: the distinct-edge relation with source out-degree
    attached is materialized ONCE; the node table (name, od) likewise.
    Per round: one scalar dangling-mass reduce, one score attach over
    the pinned edges — a broadcast searchsorted map while the node
    table fits ``join.small_table`` (scores are node-scale; edges are
    the big side), falling back to a src-keyed co-partition
    hash_join — one dst-keyed pre-combined sum, and a node-table fill
    (same adaptive choice).  Returns (name, pagerank)."""
    import pyarrow as pa

    import ray

    from pyrdf2vec_ray.ops.join import hash_join, small_table
    from pyrdf2vec_ray.shuffle import bucket_agg, bucket_count, distinct
    from pyrdf2vec_ray.util import to_table

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"src": batch[a_col].astype(str),
                             "dst": batch[b_col].astype(str)})

    rel = distinct(edges.map_batches(pairs, batch_format="pandas"),
                   ["src", "dst"], num_buckets=num_buckets).materialize()

    def names_of(batch: pa.Table) -> pa.Table:
        return pa.table({"name": pa.concat_arrays([
            batch["src"].combine_chunks().cast(pa.string()),
            batch["dst"].combine_chunks().cast(pa.string())])})

    outdeg = bucket_count(rel, ["src"], count_col="od",
                          num_buckets=num_buckets)
    node_names = distinct(rel.map_batches(names_of, batch_format="pyarrow"),
                          ["name"], num_buckets=num_buckets)
    # node table with out-degree (0 = dangling): group-scale left join
    nodes = hash_join(
        node_names, outdeg.map_batches(
            lambda b: b.rename(columns={"src": "name"}),
            batch_format="pandas"),
        on=["name"], how="left",
        lschema={"name": object}, rschema={"name": object, "od": np.int64},
    ).map_batches(
        lambda b: b.assign(od=b["od"].fillna(0).astype("int64")),
        batch_format="pandas",
    ).materialize()
    n = nodes.count()
    if n == 0:
        import ray.data as rd

        return rd.from_items([])

    nodes_t = small_table(nodes)
    small = nodes_t is not None

    def attach_rel_od():
        """(src, dst, od) pinned once — the per-round join input."""
        if small:
            names = np.asarray(
                nodes_t["name"].to_numpy(zero_copy_only=False),
                dtype=np.str_)
            order = np.argsort(names, kind="stable")
            ref = ray.put((names[order], nodes_t["od"].to_numpy()[order]
                           .astype(np.float64)))

            def am(batch: pd.DataFrame, ref=ref) -> pd.DataFrame:
                nm, od = ray.get(ref)
                batch = batch.copy()
                batch["od"] = od[np.searchsorted(
                    nm, batch["src"].to_numpy(dtype=np.str_))]
                return batch

            return rel.map_batches(am, batch_format="pandas").materialize()
        return hash_join(
            rel, outdeg, on=["src"],
            lschema={"src": object, "dst": object},
            rschema={"src": object, "od": np.int64},
        ).materialize()

    rel_od = attach_rel_od()

    # scores live WITH the od flag so the dangling reduce is one
    # stateless filtered sum per round
    x0 = 1.0 / n
    scores = nodes.map_batches(
        lambda b: b.assign(x=np.float64(x0)), batch_format="pandas",
    ).materialize()

    for _ in range(rounds):
        dang = scores.map_batches(
            lambda b: pd.DataFrame(
                {"d": [float(b.loc[b["od"] == 0, "x"].sum())]}),
            batch_format="pandas").sum("d")
        const = (alpha * float(dang or 0.0) + (1.0 - alpha)) / n

        if small:
            t = to_table(scores)
            names = np.asarray(t["name"].to_numpy(zero_copy_only=False),
                               dtype=np.str_)
            order = np.argsort(names, kind="stable")
            ref = ray.put((names[order],
                           t["x"].to_numpy()[order].astype(np.float64)))

            def contrib(batch: pd.DataFrame, ref=ref) -> pd.DataFrame:
                nm, xv = ray.get(ref)
                c = xv[np.searchsorted(
                    nm, batch["src"].to_numpy(dtype=np.str_))] \
                    / batch["od"].to_numpy(dtype=np.float64)
                return pd.DataFrame({"dst": batch["dst"], "c": c})

            edge_c = rel_od.map_batches(contrib, batch_format="pandas")
        else:
            joined = hash_join(
                rel_od, scores.map_batches(
                    lambda b: b.rename(columns={"name": "src"})
                               .drop(columns=["od"]),
                    batch_format="pandas"),
                on=["src"],
                lschema={"src": object, "dst": object, "od": np.int64},
                rschema={"src": object, "x": np.float64},
            )

            def contrib_j(batch: pd.DataFrame) -> pd.DataFrame:
                return pd.DataFrame(
                    {"dst": batch["dst"],
                     "c": batch["x"].to_numpy(dtype=np.float64)
                     / batch["od"].to_numpy(dtype=np.float64)})

            edge_c = joined.map_batches(contrib_j, batch_format="pandas")

        csum = bucket_agg(edge_c, ["dst"], {"c": ("c", "sum")},
                          num_buckets=num_buckets)

        if small:
            ct = to_table(csum)
            cd = np.asarray(ct["dst"].to_numpy(zero_copy_only=False),
                            dtype=np.str_)
            corder = np.argsort(cd, kind="stable")
            cref = ray.put((cd[corder],
                            ct["c"].to_numpy()[corder].astype(np.float64)))

            def fill(batch: pd.DataFrame, cref=cref,
                     const=const) -> pd.DataFrame:
                nm, cv = ray.get(cref)
                names_b = batch["name"].to_numpy(dtype=np.str_)
                pos = np.searchsorted(nm, names_b)
                pos_c = np.clip(pos, 0, max(len(nm) - 1, 0))
                hit = (len(nm) > 0) & (nm[pos_c] == names_b)
                cval = np.where(hit, cv[pos_c] if len(nm) else 0.0, 0.0)
                batch = batch.copy()
                batch["x"] = alpha * cval + const
                return batch

            scores = nodes.map_batches(
                fill, batch_format="pandas").materialize()
        else:
            scores = hash_join(
                nodes, csum.map_batches(
                    lambda b: b.rename(columns={"dst": "name"}),
                    batch_format="pandas"),
                on=["name"], how="left",
                lschema={"name": object, "od": np.int64},
                rschema={"name": object, "c": np.float64},
            ).map_batches(
                lambda b, const=const: b.assign(
                    x=alpha * b["c"].astype("Float64").fillna(0.0)
                    .astype("float64") + const).drop(columns=["c"]),
                batch_format="pandas").materialize()

    def out(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"name": batch["name"],
                             "pagerank": batch["x"]})

    return scores.map_batches(out, batch_format="pandas")


def hits_rounds(
    edges: ray.data.Dataset,
    rounds: int,
    a_col: str = "a",
    b_col: str = "b",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """UN-NORMALIZED HITS power iteration, k rounds, ALL-INTEGER —
    the bit-exact iterated counterpart of :func:`pagerank_rounds`
    (whose float teleport sums can only ever match an oracle to
    rounding).  From h_0 = 1 everywhere: per round,
    ``authority(v) = Σ_{(u,v)} hub(u)`` then ``hub(u) = Σ_{(u,v)}
    authority(v)`` over the DISTINCT edge relation.  Skipping the
    per-round normalization keeps every value int64 and
    engine-independent; callers wanting the classic unit-norm scores
    divide once at the end (rankings are identical — normalization is
    a positive scalar per round).

    Growth bound: values multiply by ≤ (max in-degree · max
    out-degree) per round — the per-round int64 guard raises before a
    silent numpy wrap (the gini_int convention).  Per round: two
    attach+reduce passes over the once-pinned edge relation (adaptive
    broadcast searchsorted maps while the node table fits
    ``join.BROADCAST_ROWS``, key-bucket hash_join past it — same policy
    as pagerank_rounds).
    Returns (name, hub, authority) after ``rounds`` full rounds."""
    import pyarrow as pa

    import ray

    from pyrdf2vec_ray.ops import join
    from pyrdf2vec_ray.ops.join import hash_join
    from pyrdf2vec_ray.shuffle import bucket_agg, distinct
    from pyrdf2vec_ray.util import to_table

    if rounds < 1:
        raise ValueError("rounds must be >= 1")

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"src": batch[a_col].astype(str),
                             "dst": batch[b_col].astype(str)})

    rel = distinct(edges.map_batches(pairs, batch_format="pandas"),
                   ["src", "dst"], num_buckets=num_buckets).materialize()

    def names_of(batch: pa.Table) -> pa.Table:
        return pa.table({"name": pa.concat_arrays([
            batch["src"].combine_chunks().cast(pa.string()),
            batch["dst"].combine_chunks().cast(pa.string())])})

    nodes = distinct(rel.map_batches(names_of, batch_format="pyarrow"),
                     ["name"], num_buckets=num_buckets).materialize()
    n = nodes.count()
    if n == 0:
        import ray.data as rd

        return rd.from_items([])
    small = n <= join.BROADCAST_ROWS   # the size is known already

    def propagate(vec: ray.data.Dataset, key: str, other: str,
                  out_name: str) -> ray.data.Dataset:
        """out(other) = Σ_{edges} vec(key): attach vec to the pinned
        edges on `key`, pre-combined integer sum keyed on `other`,
        then fill 0 for nodes with no incident edge on that side."""
        if small:
            t = to_table(vec)
            nm = np.asarray(t["name"].to_numpy(zero_copy_only=False),
                            dtype=np.str_)
            order = np.argsort(nm, kind="stable")
            ref = ray.put((nm[order],
                           t["v"].to_numpy()[order].astype(np.int64)))

            def edge_v(batch: pd.DataFrame, ref=ref) -> pd.DataFrame:
                names, vals = ray.get(ref)
                return pd.DataFrame(
                    {other: batch[other],
                     "v": vals[np.searchsorted(
                         names, batch[key].to_numpy(dtype=np.str_))]})

            contrib = rel.map_batches(edge_v, batch_format="pandas")
        else:
            joined = hash_join(
                rel, vec.map_batches(
                    lambda b: b.rename(columns={"name": key}),
                    batch_format="pandas"),
                on=[key],
                lschema={"src": object, "dst": object},
                rschema={key: object, "v": np.int64},
            )
            contrib = joined.map_batches(
                lambda b: b[[other, "v"]], batch_format="pandas")
        summed = bucket_agg(contrib, [other], {"v": ("v", "sum")},
                            num_buckets=num_buckets)
        if small:
            st = to_table(summed)
            sn = np.asarray(st[other].to_numpy(zero_copy_only=False),
                            dtype=np.str_)
            sorder = np.argsort(sn, kind="stable")
            sref = ray.put((sn[sorder],
                            st["v"].to_numpy()[sorder].astype(np.int64)))

            def fill(batch: pd.DataFrame, sref=sref) -> pd.DataFrame:
                names, vals = ray.get(sref)
                b_names = batch["name"].to_numpy(dtype=np.str_)
                pos = np.clip(np.searchsorted(names, b_names), 0,
                              max(len(names) - 1, 0))
                hit = (len(names) > 0) & (names[pos] == b_names)
                out = np.where(hit, vals[pos] if len(names) else 0, 0)
                if out.size and out.max() > (1 << 62):
                    raise OverflowError(
                        f"HITS {out_name} values exceed the int64 "
                        "guard; reduce rounds")
                return pd.DataFrame({"name": batch["name"],
                                     "v": out.astype(np.int64)})

            return nodes.map_batches(
                fill, batch_format="pandas").materialize()
        out = hash_join(
            nodes, summed.map_batches(
                lambda b: b.rename(columns={other: "name"}),
                batch_format="pandas"),
            on=["name"], how="left",
            lschema={"name": object},
            rschema={"name": object, "v": np.int64},
        ).map_batches(
            lambda b: pd.DataFrame(
                {"name": b["name"],
                 "v": b["v"].fillna(0).astype("int64")}),
            batch_format="pandas").materialize()
        mx = out.max("v")
        if mx is not None and mx > (1 << 62):
            raise OverflowError(
                f"HITS {out_name} values exceed the int64 guard; "
                "reduce rounds")
        return out

    hub = nodes.map_batches(
        lambda b: b.assign(v=np.int64(1)), batch_format="pandas",
    ).materialize()
    auth = None
    for _ in range(rounds):
        auth = propagate(hub, "src", "dst", "authority")
        hub = propagate(auth, "dst", "src", "hub")

    def merge(hub, auth):
        return hash_join(
            hub.map_batches(
                lambda b: b.rename(columns={"v": "hub"}),
                batch_format="pandas"),
            auth.map_batches(
                lambda b: b.rename(columns={"v": "authority"}),
                batch_format="pandas"),
            on=["name"],
            lschema={"name": object, "hub": np.int64},
            rschema={"name": object, "authority": np.int64},
        )

    return merge(hub, auth)


def harmonic_centrality(
    edges: ray.data.Dataset,
    seeds: list,
    max_depth: int,
    a_col: str = "a",
    b_col: str = "b",
) -> ray.data.Dataset:
    """Bounded-hop harmonic centrality for a SAMPLED seed set (the
    composition :func:`bfs_distances`' docstring names): per seed,
    ``Σ_{v reachable, d(v) ≤ max_depth, d > 0} 1/d(v)``, plus the
    reachable-vertex count.

    Float summation order is partition-dependent, so the score is
    carried as an EXACT int64 rational over the fixed denominator
    ``L = lcm(1..max_depth)``: ``harmonic_num = Σ_d n_d · (L/d)``,
    ``harmonic_den = L`` — bit-identical on any engine — and the
    float ``harmonic`` is the single IEEE division num/den (also
    engine-independent).  Overflow bound (the gini_int convention):
    requires ``n_reached · L < 2^63`` per seed; raises if
    ``max_depth`` alone makes L overflow-prone (> 42, where
    lcm exceeds 2^58).

    Shape: bfs_distances does the traversal (frontier-sized joins,
    edges scanned not exchanged); this adds one reached-volume
    (seed, dist) pre-combined count exchange + one seed-scale reduce.
    """
    import math

    from pyrdf2vec_ray.shuffle import bucket_agg, bucket_apply

    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    L = math.lcm(*range(1, max_depth + 1))
    if L > (1 << 58):
        raise ValueError(
            f"lcm(1..{max_depth}) = {L} leaves fewer than 32 bits of "
            "per-seed headroom; use a smaller max_depth")

    dists = bfs_distances(edges, seeds, max_depth, a_col=a_col,
                          b_col=b_col)

    def positive(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch["dist"] > 0][["seed", "dist"]]

    counts = bucket_agg(
        dists.map_batches(positive, batch_format="pandas"),
        ["seed", "dist"], {"n": ("dist", "size")},
    )

    def per_seed(g: pd.DataFrame) -> pd.DataFrame:
        n = g["n"].to_numpy(dtype=np.int64)
        # bound check BEFORE the sums — numpy int64 wraps silently
        tot = g.groupby("seed")["n"].transform("sum").to_numpy(np.int64)
        if (tot > (1 << 62) // L).any():
            raise OverflowError(
                "per-seed reachable count too large for the exact "
                f"int64 rational at lcm={L}")
        w = (L // g["dist"].to_numpy(dtype=np.int64)).astype(np.int64)
        g = g.assign(_contrib=n * w)
        out = g.groupby("seed", as_index=False).agg(
            n_reached=("n", "sum"), harmonic_num=("_contrib", "sum"))
        out["harmonic_den"] = np.int64(L)
        out["harmonic"] = out["harmonic_num"] / np.float64(L)
        return out

    return bucket_apply(counts, ["seed"], per_seed,
                        batch_format="pandas")


def clustering_coefficients(
    edges: ray.data.Dataset,
    a_col: str = "a",
    b_col: str = "b",
) -> ray.data.Dataset:
    """Local clustering coefficient per vertex:
    ``cc = 2·n_tri / (degree·(degree−1))`` (fraction of the vertex's
    neighbor pairs that are themselves connected), 0 for degree < 2.
    A pure finisher over :func:`triangle_counts` — inherits its
    O(m^1.5) hub-safe wedge-closing plan and adds NO exchange; the
    float64 expression on exact int64 counts replays bit-identically
    in SQL (``(2.0·n_tri)/(degree·(degree−1.0))``)."""
    tc = triangle_counts(edges, a_col, b_col)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["degree"].to_numpy(np.float64)
        t = batch["n_tri"].to_numpy(np.float64)
        den = d * (d - 1.0)
        cc = np.where(den > 0, (2.0 * t) / np.where(den > 0, den, 1.0),
                      0.0)
        out = batch[["v", "degree", "n_tri"]].copy()
        out["cc"] = cc
        return out

    return tc.map_batches(finish, batch_format="pandas")


def _md5_priority(vals: np.ndarray) -> np.ndarray:
    """Deterministic per-vertex priority: first 15 md5 hex digits as
    int64 (the SQL-replayable hash shared with ops/text.fingerprint),
    computed once per distinct string via factorize."""
    import hashlib

    codes, uniq = pd.factorize(vals)
    if not len(uniq):
        return np.array([], dtype=np.int64)
    uh = np.fromiter(
        (int(hashlib.md5(str(u).encode()).hexdigest()[:15], 16)
         for u in uniq), dtype=np.int64, count=len(uniq))
    return uh[codes]


def mis_bounded(
    edges: ray.data.Dataset,
    rounds: int,
    a_col: str = "a",
    b_col: str = "b",
) -> ray.data.Dataset:
    """Deterministic Luby-style maximal-independent-set rounds (Luby
    1986): vertex priorities are the md5-prefix hash (no RNG stream —
    any worker recomputes any priority, and the SQL oracle replays it),
    and each round decides, IN PARALLEL, every undecided vertex whose
    priority is strictly below all undecided neighbors' (local minima
    join the set; their neighbors drop out).  After exactly ``rounds``
    iterations — the bounded-round contract shared with kcore/LPA so
    the oracle can unroll — returns ``(v, state)`` for EVERY vertex,
    state ∈ {'in', 'out', 'undecided'}.  With enough rounds the
    'undecided' class empties and in/out is a maximal independent set.

    Ties: distinct-vertex md5 collisions are ~2⁻⁶⁰·m improbable; on a
    collision neither endpoint is a strict local minimum, both stay
    undecided that round — identical on both engines, so determinism
    holds even then.

    Scale shape per round: neighbor-minimum is ONE vertex-bucket
    pre-aggregated reduce over the current edge set (priorities are
    recomputed from the vertex string inside the batch — no join to
    attach them); removals are key-bucket anti-joins; the edge set
    only shrinks.  O(rounds) sequential exchanges; Luby's theorem
    makes O(log n) rounds enough with high probability."""
    from pyrdf2vec_ray.ops.join import (_dtypes_of, adaptive_join,
                                        small_table)
    from pyrdf2vec_ray.shuffle import bucket_agg, distinct

    cur = _canon_undirected(edges, a_col, b_col)
    if not cur.count():
        return cur
    vd = _dtypes_of(cur, None)["a"]
    e_schema = {"a": vd, "b": vd}

    def ends(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"v": np.concatenate([batch["a"].to_numpy(),
                                  batch["b"].to_numpy()])})

    undecided = distinct(cur.map_batches(ends, batch_format="pandas"),
                         ["v"]).materialize()
    states: list[tuple[ray.data.Dataset, str]] = []

    for rnd in range(rounds):
        if undecided.count() == 0:
            break

        # (v, min neighbor priority) over the current edge set
        def nbr(batch: pd.DataFrame) -> pd.DataFrame:
            a = batch["a"].to_numpy()
            b = batch["b"].to_numpy()
            return pd.DataFrame(
                {"v": np.concatenate([a, b]),
                 "np": np.concatenate([_md5_priority(b),
                                       _md5_priority(a)])})

        mins = bucket_agg(cur.map_batches(nbr, batch_format="pandas"),
                          ["v"], {"mn": ("np", "min")}).materialize()

        # local minima among undecided (vertices with no current edge
        # have no mins row -> unconditionally IN); the min-neighbor
        # map is one int per LIVE vertex — broadcast it when small so
        # the decision is a stateless map, else key-bucket left join
        mt = small_table(mins)
        if mt is not None:
            mdf = mt.to_pandas()
            # an edge-free round yields a schema-less empty frame
            mmap0 = (dict(zip(mdf["v"], mdf["mn"].astype(np.int64)))
                     if "v" in mdf.columns else {})
            mins_ref = ray.put(mmap0)

            def local_min_b(batch: pd.DataFrame,
                            mins_ref=mins_ref) -> pd.DataFrame:
                if "v" not in batch.columns:
                    # an EMPTY undecided set reaches the UDF as a
                    # schema-less probe batch
                    return pd.DataFrame({"v": np.array([], dtype=object)})
                mmap = ray.get(mins_ref)
                v = batch["v"].to_numpy()
                p = _md5_priority(v)
                mn = batch["v"].map(mmap)
                isolated = mn.isna().to_numpy()
                # exact int64 compare (a float cast of ~2^60 hashes
                # could flip the strict < near 256-ulp coincidences)
                mni = mn.fillna(0).to_numpy(np.int64)
                return pd.DataFrame({"v": v[isolated | (p < mni)]})

            in_v = undecided.map_batches(
                local_min_b, batch_format="pandas").materialize()
        else:
            from pyrdf2vec_ray.ops.join import hash_join

            j = hash_join(undecided, mins, on=["v"], how="left")

            def local_min(batch: pd.DataFrame) -> pd.DataFrame:
                p = _md5_priority(batch["v"].to_numpy())
                isolated = batch["mn"].isna().to_numpy()
                mn = batch["mn"].fillna(0).to_numpy(np.int64)
                keep = isolated | (p < mn)
                return pd.DataFrame({"v": batch["v"].to_numpy()[keep]})

            in_v = j.map_batches(local_min,
                                 batch_format="pandas").materialize()
        states.append((in_v, "in"))

        # neighbors of IN drop out
        def tagged(col, out):
            def fn(batch: pd.DataFrame) -> pd.DataFrame:
                return pd.DataFrame({out: batch[col].to_numpy()})
            return fn

        in_set = _broadcast_set(in_v, "v")
        if in_set is not None:
            # fused broadcast form: ONE map over the edge set emits
            # every neighbor of an IN vertex (replacing two semi-join
            # passes + a union); the distinct exchange moves only the
            # emitted neighbor rows
            in_ref = ray.put(in_set)

            def nbrs_of_in(batch: pd.DataFrame,
                           in_ref=in_ref) -> pd.DataFrame:
                s = ray.get(in_ref)
                a = batch["a"].to_numpy()
                b = batch["b"].to_numpy()
                ka = batch["a"].isin(s).to_numpy()
                kb = batch["b"].isin(s).to_numpy()
                return pd.DataFrame({"v": np.concatenate([b[ka], a[kb]])})

            out_v = distinct(
                cur.map_batches(nbrs_of_in, batch_format="pandas"),
                ["v"]).materialize()
        else:
            half1 = adaptive_join(
                cur, in_v.map_batches(tagged("v", "a"),
                                      batch_format="pandas"),
                on=["a"], how="semi", lschema=e_schema)
            half2 = adaptive_join(
                cur, in_v.map_batches(tagged("v", "b"),
                                      batch_format="pandas"),
                on=["b"], how="semi", lschema=e_schema)
            out_v = distinct(
                half1.map_batches(tagged("b", "v"),
                                  batch_format="pandas")
                .union(half2.map_batches(tagged("a", "v"),
                                         batch_format="pandas")),
                ["v"]).materialize()
        states.append((out_v, "out"))

        out_set = _broadcast_set(out_v, "v") if in_set is not None else None
        if out_set is not None:
            # decided set broadcasts once; the undecided filter and the
            # edge prune (drop edges with a decided endpoint — same set
            # semantics as keeping both-undecided edges) are stateless
            # maps, the edge prune kept LAZY as in kcore_bounded
            dec_ref = ray.put(frozenset(in_set | out_set))

            def undec_only(batch: pd.DataFrame,
                           dec_ref=dec_ref) -> pd.DataFrame:
                s = ray.get(dec_ref)
                return batch[~batch["v"].isin(s).to_numpy()]

            undecided = undecided.map_batches(
                undec_only, batch_format="pandas").materialize()
            if rnd + 1 < rounds:  # final round never reads the edge set
                def drop_decided(batch: pd.DataFrame,
                                 dec_ref=dec_ref) -> pd.DataFrame:
                    s = ray.get(dec_ref)
                    keep = (~batch["a"].isin(s)
                            & ~batch["b"].isin(s)).to_numpy()
                    return batch[keep]

                cur = cur.map_batches(drop_decided, batch_format="pandas")
            continue

        decided = in_v.union(out_v)
        undecided = adaptive_join(
            undecided, decided, on=["v"], how="anti").materialize()
        if rnd + 1 < rounds:  # final round never reads the edge set
            cur = adaptive_join(
                cur, undecided.map_batches(tagged("v", "a"),
                                           batch_format="pandas"),
                on=["a"], how="semi", lschema=e_schema)
            cur = adaptive_join(
                cur, undecided.map_batches(tagged("v", "b"),
                                           batch_format="pandas"),
                on=["b"], how="semi", lschema=e_schema).materialize()

    def label(s):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"v": batch["v"].to_numpy(),
                                 "state": s})
        return fn

    out = undecided.map_batches(label("undecided"),
                                batch_format="pandas")
    for ds_part, s in states:
        out = out.union(ds_part.map_batches(label(s),
                                            batch_format="pandas"))
    return out


def degree_assortativity(
    edges: ray.data.Dataset,
    a_col: str = "a",
    b_col: str = "b",
) -> "pa.Table":
    """Newman's degree assortativity coefficient (Newman 2002,
    "Assortative mixing in networks"): the Pearson correlation of
    (deg(u), deg(v)) over the STUBS of the undirected deduplicated
    graph — each undirected edge counted once in each direction, so the
    coefficient is symmetric by construction.  One row out:
    ``(n_stubs, assortativity)``; > 0 means hubs attach to hubs
    (social-network-like), < 0 means hubs attach to leaves (the
    star-shaped KG/dependency regime).

    Plan (the :func:`triangle_counts` prefix): canonicalize + distinct
    the undirected edge set, ONE degree count, TWO degree-attach bucket
    joins, then per-batch exact int64 sufficient statistics (n, Σx, Σy,
    Σxy, Σx², Σy²) reduced over a block-count-bounded partial table —
    the corpus never reaches the driver, only one 6-int row per block.
    Bound: per-block Σ(deg²) must fit int64 (~9e18) — at 1e12 stubs
    that allows average degree ~3e3; past that, pre-scale degrees or
    shard the reduce.  The final correlation is ONE shared float64
    expression, replayed verbatim by the SQL oracle:
    ``(n·Σxy − Σx·Σy) / (sqrt(n·Σx² − Σx²)·sqrt(n·Σy² − Σy²))``."""
    import pyarrow as pa

    from pyrdf2vec_ray.ops.join import hash_join
    from pyrdf2vec_ray.shuffle import bucket_agg, distinct

    def canon(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch[a_col].to_numpy()
        b = batch[b_col].to_numpy()
        keep = a != b
        a, b = a[keep], b[keep]
        return pd.DataFrame({"lo": np.minimum(a, b),
                             "hi": np.maximum(a, b)})

    u = distinct(edges.map_batches(canon, batch_format="pandas"),
                 ["lo", "hi"]).materialize()

    def stubs_of(batch: pd.DataFrame) -> pd.DataFrame:
        lo = batch["lo"].to_numpy()
        hi = batch["hi"].to_numpy()
        return pd.DataFrame({"src": np.concatenate([lo, hi]),
                             "dst": np.concatenate([hi, lo])})

    stubs = u.map_batches(stubs_of, batch_format="pandas")

    def ends(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"v": batch["src"].to_numpy()})

    deg = bucket_agg(stubs.map_batches(ends, batch_format="pandas"),
                     ["v"], {"d": ("v", "size")}).materialize()

    def rn(new_v, new_d):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            return batch.rename(columns={"v": new_v, "d": new_d})
        return fn

    from pyrdf2vec_ray.ops.join import _dtypes_of

    vd = _dtypes_of(deg, None)["v"]
    i8 = np.dtype("int64")
    sx = hash_join(stubs, deg.map_batches(rn("src", "x"),
                                          batch_format="pandas"),
                   on=["src"],
                   lschema={"src": vd, "dst": vd},
                   rschema={"src": vd, "x": i8})
    sxy = hash_join(sx, deg.map_batches(rn("dst", "y"),
                                        batch_format="pandas"),
                    on=["dst"],
                    lschema={"src": vd, "dst": vd, "x": i8},
                    rschema={"dst": vd, "y": i8})

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        x = batch["x"].to_numpy(np.int64)
        y = batch["y"].to_numpy(np.int64)
        return pd.DataFrame(
            {"n": [np.int64(len(x))], "sx": [x.sum()], "sy": [y.sum()],
             "sxy": [(x * y).sum()], "sxx": [(x * x).sum()],
             "syy": [(y * y).sum()]})

    parts = sxy.map_batches(partial, batch_format="pandas").to_pandas()
    n = int(parts["n"].sum())
    sx_, sy_ = int(parts["sx"].sum()), int(parts["sy"].sum())
    sxy_ = int(parts["sxy"].sum())
    sxx_, syy_ = int(parts["sxx"].sum()), int(parts["syy"].sum())
    num = float(n) * float(sxy_) - float(sx_) * float(sy_)
    den = (np.sqrt(float(n) * float(sxx_) - float(sx_) * float(sx_))
           * np.sqrt(float(n) * float(syy_) - float(sy_) * float(sy_)))
    r = num / den if den > 0 else 0.0
    return pa.table({"n_stubs": pa.array([n], pa.int64()),
                     "assortativity": pa.array([r], pa.float64())})


def neighbor_jaccard(
    edges: ray.data.Dataset,
    a_col: str = "a",
    b_col: str = "b",
    max_fanin: int = 64,
    k: int = 50,
) -> ray.data.Dataset:
    """Top-``k`` vertex pairs by Jaccard similarity of their
    OUT-neighbor sets — the classic structural-equivalence signal
    ("these two suppliers ship the same parts") used for entity
    resolution and link prediction over KGs (reference scope: walks
    only; this is the set-similarity layer the walk embeddings
    approximate).  Returns ``(u, v, inter, deg_u, deg_v, jaccard)``
    with ``u < v``, ordered by (jaccard desc, u, v).

    Intersections count via shared-neighbor wedges: bucket the
    deduplicated edge set by the NEIGHBOR endpoint, one vectorized
    self-merge per bucket emits the (u < v) source pairs, and a
    pair-bucket count collapses them — exactly the co-mention shape.
    A neighbor reached by d sources emits d(d-1)/2 wedges, so
    super-hubs (every order points at a handful of nation vertices)
    would square; ``max_fanin`` drops neighbors above the cap BEFORE
    the quadratic step — the standard stop-word filter of set-
    similarity joins (prefix-filtering literature), and a hub shared
    by everyone carries no similarity information anyway.  Degrees
    (and therefore the Jaccard denominator) are computed over the
    SAME capped edge set, so the score stays a true Jaccard of the
    filtered neighborhoods.  ``jaccard = inter / (deg_u + deg_v -
    inter)`` is one int subtraction + one IEEE division on exact
    int64 inputs — bit-reproducible in SQL.

    Shuffle shape: distinct (1), fan-in count (1) + hub anti-filter
    (0 exchanges when the over-cap hub set — at most ``|E|/max_fanin``
    keys — fits the adaptive broadcast, else 1), out-degree count (1),
    wedge bucket (1), pair count (1), degree attach (0 exchanges when
    the capped-source degree map fits the broadcast, else two
    key-bucket joins), bounded top-k tree — no global sort."""
    from pyrdf2vec_ray.ops.agg import global_topn
    from pyrdf2vec_ray.ops.join import adaptive_join, hash_join, small_table
    from pyrdf2vec_ray.shuffle import bucket_agg, bucket_apply, distinct

    def canon(batch: pd.DataFrame) -> pd.DataFrame:
        keep = batch[a_col] != batch[b_col]
        return pd.DataFrame({"a": batch[a_col][keep],
                             "b": batch[b_col][keep]})

    e = distinct(
        edges.map_batches(canon, batch_format="pandas"), ["a", "b"]
    ).materialize()

    fanin = bucket_agg(e, ["b"], {"fi": ("a", "size")})

    # filter against the OVER-cap hub set, not the under-cap keep set:
    # hubs number at most |E|/max_fanin (each needs > max_fanin in-edges),
    # so the anti side is small by construction and usually broadcasts —
    # the keep-set join it replaces exchanged the FULL edge set
    def high_fan(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch["fi"] > max_fanin][["b"]].copy()

    kept = adaptive_join(
        e, fanin.map_batches(high_fan, batch_format="pandas"),
        on=["b"], how="anti",
    ).materialize()

    # consumed twice (u- and v-side attach): materialize once so the
    # degree reduce doesn't replay per consumer
    deg = bucket_agg(kept, ["a"], {"deg": ("b", "size")}).materialize()

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on="b", suffixes=("_u", "_v"))
        m = m[m["a_u"] < m["a_v"]]
        return (m.rename(columns={"a_u": "u", "a_v": "v"})
                [["u", "v"]].groupby(["u", "v"], as_index=False)
                .agg(inter=("u", "size")))

    pairs = bucket_agg(
        bucket_apply(kept, ["b"], wedges, batch_format="pandas"),
        ["u", "v"], {"inter": ("inter", "sum")}, pre=False,
    )

    # degree attach: the map is one int per CAPPED source vertex; when
    # it fits the broadcast rule, ship it once via ray.put and attach
    # both sides in one stateless map (zero exchanges on 915k+ pairs)
    # — else the key-bucket joins
    dt = small_table(deg)
    if dt is not None:
        dt = dt.to_pandas()
        dmap_ref = ray.put(dict(zip(dt["a"], dt["deg"].astype(np.int64))))

        def attach(batch: pd.DataFrame) -> pd.DataFrame:
            dmap = ray.get(dmap_ref)
            out = batch.copy()
            out["deg_u"] = out["u"].map(dmap).astype(np.int64)
            out["deg_v"] = out["v"].map(dmap).astype(np.int64)
            return out

        scored = pairs.map_batches(attach, batch_format="pandas")
    else:
        def as_u(batch: pd.DataFrame) -> pd.DataFrame:
            return batch.rename(columns={"a": "u", "deg": "deg_u"})

        def as_v(batch: pd.DataFrame) -> pd.DataFrame:
            return batch.rename(columns={"a": "v", "deg": "deg_v"})

        du = deg.map_batches(as_u, batch_format="pandas")
        dv = deg.map_batches(as_v, batch_format="pandas")
        scored = hash_join(hash_join(pairs, du, on=["u"]), dv, on=["v"])

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        inter = batch["inter"].to_numpy(np.int64)
        union = (batch["deg_u"].to_numpy(np.int64)
                 + batch["deg_v"].to_numpy(np.int64) - inter)
        out = batch.copy()
        out["inter"] = inter
        out["deg_u"] = batch["deg_u"].to_numpy(np.int64)
        out["deg_v"] = batch["deg_v"].to_numpy(np.int64)
        out["jaccard"] = inter.astype(np.float64) / union
        # tie-break key must preserve ORDER BY u, v for ANY id dtype:
        # int ids pack order-preservingly ((u<<32)|v, the dedup
        # _pack_pairs shape — astype(str) would reorder numeric ties
        # vs the oracle), string ids join on a low sentinel byte
        if out["u"].dtype.kind in "iu":
            u64 = out["u"].to_numpy().astype(np.uint64)
            v64 = out["v"].to_numpy().astype(np.uint64)
            if len(u64) and (int(u64.max()) >> 32 or int(v64.max()) >> 32):
                raise ValueError(
                    "neighbor_jaccard int ids must be < 2^32 for the "
                    "order-preserving pair key; densify ids first")
            out["pairkey"] = ((u64 << np.uint64(32)) | v64).view(np.int64)
        else:
            out["pairkey"] = (out["u"].astype(str) + "\x1f"
                              + out["v"].astype(str))
        return out

    top = global_topn(
        scored.map_batches(score, batch_format="pandas"),
        k, "jaccard", "pairkey",
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[["u", "v", "inter", "deg_u", "deg_v", "jaccard"]]

    return top.map_batches(finish, batch_format="pandas")


def scc_bounded(
    edges: ray.data.Dataset,
    rounds: int = 4,
    a_col: str = "a",
    b_col: str = "b",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Strongly connected components of a DIRECTED edge set, bounded:
    ``(node, scc)`` with ``scc`` = the lexicographically smallest
    member of the node's component (every edge endpoint appears;
    cycle-free nodes are their own singleton class).  The directed
    sibling of `ops/components.connected_components` — cycles are what
    it detects, so it is the dependency-graph / redirect-chain /
    sameAs-with-direction audit CC cannot express.

    Algorithm: mutual reachability.  ``R = transitive_closure(edges,
    rounds)`` (path doubling, O(rounds) exchanges), then the pair set
    ``M = {(u, v) : u→v ∈ R ∧ v→u ∈ R}`` via ONE co-partitioning
    SEMI-join of R against its own swap, and — because mutual
    reachability restricted to covered path lengths is already a full
    equivalence relation when the bound holds — the label is a single
    min-reduce ``scc(v) = min(v, min{u : u↔v})`` with NO iteration.

    EXACT when ``2^rounds >= the longest shortest-path between two
    members of any one SCC`` (a cycle of length L needs paths up to
    L−1); with fewer rounds, under-covered components fall apart into
    smaller classes — the same documented bounded-depth contract as
    :func:`transitive_closure` and :func:`kcore_bounded`.  Covered
    mutual pairs need not be transitive then (u↔v and v↔w covered,
    u↔w not), so the min-reduce may label ``scc(w) = v`` while
    ``scc(v) = u``; since ``scc(v) <= v`` the labels form a forest, and
    pointer jumping resolves every node to its root.  The output is
    always a partition whose classes each lie inside one true SCC.

    Scale shape: cost ceiling is the CLOSURE itself (reachability
    pairs — hierarchy-shaped graphs stay linear-ish, dense graphs
    explode on any engine); the semi-join and the min-reduce are
    closure-pair-scale and node-scale bucket exchanges."""
    from pyrdf2vec_ray.ops.components import _pointer_jump
    from pyrdf2vec_ray.ops.join import hash_semi_join
    from pyrdf2vec_ray.shuffle import bucket_agg

    o = np.dtype("O")
    R = transitive_closure(edges, rounds, a_col=a_col, b_col=b_col)

    def swap(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"src": batch["dst"].to_numpy(),
                             "dst": batch["src"].to_numpy()})

    mutual = hash_semi_join(
        R, R.map_batches(swap, batch_format="pandas"),
        on=["src", "dst"], num_buckets=num_buckets,
        lschema={"src": o, "dst": o}, rschema={"src": o, "dst": o})

    def as_cand(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": batch["src"].to_numpy(),
                             "cand": batch["dst"].to_numpy()})

    def identity(batch: pd.DataFrame) -> pd.DataFrame:
        both = np.concatenate([batch[a_col].to_numpy(),
                               batch[b_col].to_numpy()])
        return pd.DataFrame({"node": both, "cand": both})

    votes = mutual.map_batches(as_cand, batch_format="pandas").union(
        edges.map_batches(identity, batch_format="pandas"))
    labels = bucket_agg(votes, ["node"], {"label": ("cand", "min")},
                        num_buckets=num_buckets)
    while True:
        labels = _pointer_jump(labels, num_buckets).materialize()
        if not labels.sum("changed"):
            return labels.drop_columns(["changed"]).rename_columns(
                {"label": "scc"})


def betweenness_sampled(
    edges: ray.data.Dataset,
    seeds: list,
    max_depth: int,
    a_col: str = "a",
    b_col: str = "b",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Sampled betweenness centrality (Brandes 2001 from an explicit
    seed set, bounded depth): ``(vertex, betweenness)`` where
    betweenness = Σ over seeds of the shortest-path dependency
    ``delta_s(v) = Σ_{w: v on a shortest s→w path} σ_sv/σ_sw ·
    (1 + delta_s(w))`` accumulated over the ≤``max_depth``-hop BFS
    DAG, seeds excluded from their own sums (the standard endpoint
    exclusion).  The k-seed sample is the classic scalable estimator
    (exact all-sources Brandes is O(V·E)); ``max_depth`` bounds the
    DAG like `bfs_distances` / `harmonic_centrality`.

    Distributed shape: the FORWARD pass is `bfs_distances`' level
    machinery carrying σ (shortest-path counts — parallel paths SUM
    at their settling level, exact int64; overflow needs σ < 2^63,
    astronomically safe for bounded depth); the BACKWARD pass walks
    the levels in reverse — per level ONE adaptive join of the
    (frontier-scale) successor table against the reversed edge scan,
    one inner join onto the level's σ table, one (seed, vertex)-bucket
    sum.  2·depth exchanges total; the edge set is scanned, never
    exchanged, while frontiers fit ``join.BROADCAST_ROWS``.  δ is
    float64 — summation grouping may differ from a sequential oracle
    by ulps (rounded comparisons only)."""
    from pyrdf2vec_ray.ops.join import _dtypes_of, adaptive_join, hash_join
    from pyrdf2vec_ray.shuffle import bucket_agg, bucket_apply

    def canon(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"m": batch[a_col].to_numpy(),
                             "nxt": batch[b_col].to_numpy()})

    es = edges.map_batches(canon, batch_format="pandas").materialize()
    # a zero-row Dataset has no schema (no edge, no backward pass)
    vd = _dtypes_of(es, None)["m"] if es.count() else np.dtype("O")
    f8 = np.dtype("float64")
    i8 = np.dtype("int64")

    frontier = ray.data.from_pandas(pd.DataFrame(
        {"seed": np.asarray(seeds), "vertex": np.asarray(seeds),
         "sigma": np.ones(len(seeds), dtype=np.int64)})).materialize()
    visited = frontier
    levels = [frontier]

    for _d in range(1, int(max_depth) + 1):
        def as_left(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"seed": batch["seed"].to_numpy(),
                                 "m": batch["vertex"].to_numpy(),
                                 "sigma": batch["sigma"].to_numpy()})

        hop = adaptive_join(
            es, frontier.map_batches(as_left, batch_format="pandas"),
            on=["m"], num_buckets=num_buckets)

        def as_cand(batch: pd.DataFrame) -> pd.DataFrame:
            # combiner: pre-sum parallel-path sigma per (seed, vertex)
            part = pd.DataFrame(
                {"seed": batch["seed"].to_numpy(),
                 "vertex": batch["nxt"].to_numpy(),
                 "sigma": batch["sigma"].to_numpy(np.int64)})
            out = part.groupby(["seed", "vertex"],
                               as_index=False).sum()
            out["_new"] = True
            return out

        def as_seen(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"seed": batch["seed"].to_numpy(),
                 "vertex": batch["vertex"].to_numpy(),
                 "sigma": np.zeros(len(batch), dtype=np.int64),
                 "_new": False})

        tagged = hop.map_batches(as_cand, batch_format="pandas").union(
            visited.map_batches(as_seen, batch_format="pandas"))

        def settle(g: pd.DataFrame) -> pd.DataFrame:
            seen = g[~g["_new"]][["seed", "vertex"]]
            fresh = (g[g["_new"]]
                     .groupby(["seed", "vertex"], as_index=False)
                     ["sigma"].sum()
                     .merge(seen.assign(_hit=True),
                            on=["seed", "vertex"], how="left"))
            out = fresh[fresh["_hit"].isna()][
                ["seed", "vertex", "sigma"]]
            return out.reset_index(drop=True)

        frontier = bucket_apply(tagged, ["seed", "vertex"], settle,
                                num_buckets=num_buckets,
                                batch_format="pandas").materialize()
        if frontier.count() == 0:
            break
        levels.append(frontier)
        visited = visited.union(frontier).materialize()

    # ---- backward dependency accumulation ----------------------------
    def with_delta(ds, val=0.0):
        def fn(batch: pd.DataFrame, _v=val) -> pd.DataFrame:
            batch = batch.copy()
            batch["delta"] = np.float64(_v)
            return batch
        return ds.map_batches(fn, batch_format="pandas")

    rev = es.map_batches(
        lambda b: pd.DataFrame({"w": b["nxt"].to_numpy(),
                                "v": b["m"].to_numpy()}),
        batch_format="pandas").materialize()

    delta_tabs = [None] * len(levels)
    delta_tabs[-1] = with_delta(levels[-1]).materialize()
    for li in range(len(levels) - 2, -1, -1):
        nxt = delta_tabs[li + 1]

        def as_succ(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"seed": batch["seed"].to_numpy(),
                 "w": batch["vertex"].to_numpy(),
                 "sw": batch["sigma"].to_numpy(np.float64),
                 "dw": batch["delta"].to_numpy(np.float64)})

        back = adaptive_join(
            rev, nxt.map_batches(as_succ, batch_format="pandas"),
            on=["w"], num_buckets=num_buckets)

        def as_term(batch: pd.DataFrame) -> pd.DataFrame:
            part = pd.DataFrame(
                {"seed": batch["seed"].to_numpy(),
                 "vertex": batch["v"].to_numpy(),
                 "t": (1.0 + batch["dw"].to_numpy(np.float64))
                 / batch["sw"].to_numpy(np.float64)})
            return part.groupby(["seed", "vertex"],
                                as_index=False).sum()

        terms = bucket_agg(
            back.map_batches(as_term, batch_format="pandas"),
            ["seed", "vertex"], {"t": ("t", "sum")},
            num_buckets=num_buckets, pre=False)
        # inner-join onto the level's sigma (only true SP-DAG
        # predecessors sit at this level), then delta = sigma_v * Σ t
        cur = hash_join(
            levels[li], terms, on=["seed", "vertex"], how="left",
            num_buckets=num_buckets,
            lschema={"seed": vd, "vertex": vd, "sigma": i8},
            rschema={"seed": vd, "vertex": vd, "t": f8})

        def finish(batch: pd.DataFrame) -> pd.DataFrame:
            batch = batch.copy()
            t = batch["t"].astype("float64").fillna(0.0)
            batch["delta"] = batch["sigma"].to_numpy(np.float64) \
                * t.to_numpy()
            return batch[["seed", "vertex", "sigma", "delta"]]

        delta_tabs[li] = cur.map_batches(
            finish, batch_format="pandas").materialize()

    # betweenness(v) = Σ_seeds delta, endpoint (level-0) rows excluded
    parts = delta_tabs[1:]
    if not parts:
        return ray.data.from_pandas(pd.DataFrame(
            {"vertex": pd.Series(dtype=object),
             "betweenness": pd.Series(dtype="float64")}))
    allv = parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])

    def proj(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"vertex": batch["vertex"].to_numpy(),
             "betweenness": batch["delta"].to_numpy(np.float64)})

    return bucket_agg(
        allv.map_batches(proj, batch_format="pandas"), ["vertex"],
        {"betweenness": ("betweenness", "sum")},
        num_buckets=num_buckets)


def weighted_distances(
    edges: ray.data.Dataset,
    seeds: list,
    rounds: int,
    a_col: str = "a",
    b_col: str = "b",
    w_col: str = "w",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Bounded multi-source WEIGHTED shortest paths — the min-plus
    semiring member completing the family (reachability =
    :func:`transitive_closure`, hop counts = :func:`bfs_distances`,
    this one = Bellman–Ford over non-negative int64 edge weights):
    ``(seed, vertex, dist)`` with dist = the minimum total weight over
    paths of at most ``rounds`` EDGES.  Exact when ``rounds >= the
    hop count of some minimum-weight path`` to every reached vertex
    (for non-negative weights, rounds = V−1 always suffices; bounded
    rounds are the documented contract, as everywhere in this file).

    Distributed shape per round: one adaptive join of the
    (seed-frontier-scale) tentative-distance table against the edge
    scan (broadcast within ``join.BROADCAST_ROWS`` — the edge set is
    scanned, never exchanged), then ONE (seed, vertex)-bucket min-reduce of
    the candidate ∪ current rows with a per-batch min combiner.
    Distances are exact int64 — no float accumulation anywhere.
    Rows only ever improve; a round with no improvements still costs
    its exchange (no convergence short-circuit across rounds is
    attempted — `rounds` is caller-bounded and small)."""
    from pyrdf2vec_ray.ops.join import adaptive_join
    from pyrdf2vec_ray.shuffle import bucket_agg

    def canon(batch: pd.DataFrame) -> pd.DataFrame:
        w = batch[w_col].to_numpy(np.int64)
        if (w < 0).any():
            raise ValueError("weighted_distances needs non-negative "
                             "weights")
        return pd.DataFrame({"m": batch[a_col].to_numpy(),
                             "nxt": batch[b_col].to_numpy(),
                             "w": w})

    es = edges.map_batches(canon, batch_format="pandas").materialize()
    dist = ray.data.from_pandas(pd.DataFrame(
        {"seed": np.asarray(seeds), "vertex": np.asarray(seeds),
         "dist": np.zeros(len(seeds), dtype=np.int64)})).materialize()

    for _r in range(int(rounds)):
        def as_left(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"seed": batch["seed"].to_numpy(),
                                 "m": batch["vertex"].to_numpy(),
                                 "dist": batch["dist"].to_numpy()})

        hop = adaptive_join(
            es, dist.map_batches(as_left, batch_format="pandas"),
            on=["m"], num_buckets=num_buckets)

        def as_cand(batch: pd.DataFrame) -> pd.DataFrame:
            part = pd.DataFrame(
                {"seed": batch["seed"].to_numpy(),
                 "vertex": batch["nxt"].to_numpy(),
                 "dist": batch["dist"].to_numpy(np.int64)
                 + batch["w"].to_numpy(np.int64)})
            return part.groupby(["seed", "vertex"],
                                as_index=False).min()

        both = hop.map_batches(as_cand, batch_format="pandas") \
            .union(dist)
        dist = bucket_agg(both, ["seed", "vertex"],
                          {"dist": ("dist", "min")},
                          num_buckets=num_buckets).materialize()
    return dist


def _label_edges(edges, labels, a_col, b_col, node_col, label_col,
                 num_buckets, op):
    """The size ``m`` of the distinct undirected edge set ``(u, v)``
    (u < v, self-loops dropped), and those edges with both endpoints'
    labels attached as ``(u, v, l_u, l_v)`` — one adaptive join per
    endpoint against the deduplicated label table."""
    from pyrdf2vec_ray.ops.join import adaptive_join
    from pyrdf2vec_ray.shuffle import distinct

    def canon(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch[a_col].to_numpy()
        b = batch[b_col].to_numpy()
        keep = a != b
        a, b = a[keep], b[keep]
        lo = np.where(a < b, a, b)
        hi = np.where(a < b, b, a)
        return pd.DataFrame({"u": lo, "v": hi}).drop_duplicates()

    und = distinct(
        edges.map_batches(canon, batch_format="pandas"), ["u", "v"],
        num_buckets=num_buckets).materialize()
    m = und.count()
    if m == 0:
        raise ValueError(f"{op} needs at least one edge")

    # one row per node — a duplicated label row would MULTIPLY every
    # incident edge through the attach join, so dedup here (label-
    # table-scale) rather than trusting the caller
    lab = distinct(labels.select_columns([node_col, label_col]),
                   [node_col, label_col],
                   num_buckets=num_buckets).materialize()
    o = np.dtype("O")

    def attach(ds, side, have):
        ren = lab.map_batches(
            lambda b, _s=side: pd.DataFrame(
                {_s: b[node_col].to_numpy(),
                 f"l_{_s}": b[label_col].to_numpy()}),
            batch_format="pandas")
        return adaptive_join(ds, ren, on=[side], num_buckets=num_buckets,
                             lschema={c: o for c in have})

    lu = attach(attach(und, "u", ["u", "v"]), "v", ["u", "v", "l_u"])
    return m, lu


def modularity(
    edges: ray.data.Dataset,
    labels: ray.data.Dataset,
    a_col: str = "a",
    b_col: str = "b",
    node_col: str = "node",
    label_col: str = "label",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Newman modularity of a node partition — THE quality number for
    a community assignment (LPA / Louvain outputs, or any attribute
    partition):  ``Q = Σ_c ( m_c/m − (d_c/2m)² )`` over communities c,
    with m = undirected edge count, m_c = intra-community edges, d_c =
    total degree of c's members.  Reported as the EXACT rational
    ``q_num / q_den`` with ``q_num = Σ_c (4·m·m_c − d_c²)``,
    ``q_den = 4m²`` — all int64, engine-independent (bound: 4m² and
    each d_c² must fit int64, i.e. m < ~1.5·10⁹ — stated, like
    gini_int); ``modularity`` is the float64 division of the two.

    Input edges may be directed/duplicated — they canonicalize to the
    distinct unordered pair set first (self-loops dropped).  Scale
    shape: ONE pair-distinct, label attach per endpoint (one
    ``join.adaptive_join`` each: broadcast while the label table fits,
    else a co-partitioning hash join), then community-scale reduces for m_c
    and d_c and a single-row fold over the COMMUNITY table (bounded by
    the partition's class count — community-scale by definition)."""
    from pyrdf2vec_ray.shuffle import bucket_agg

    m, lu = _label_edges(edges, labels, a_col, b_col, node_col,
                         label_col, num_buckets, "modularity")

    def intra(batch: pd.DataFrame) -> pd.DataFrame:
        sub = batch[batch["l_u"] == batch["l_v"]]
        part = pd.DataFrame({"c": sub["l_u"].to_numpy(),
                             "mc": np.int64(1)})
        return part.groupby("c", as_index=False).sum()

    mc = bucket_agg(lu.map_batches(intra, batch_format="pandas"),
                    ["c"], {"mc": ("mc", "sum")},
                    num_buckets=num_buckets, pre=False)

    def deg_rows(batch: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame({
            "c": np.concatenate([batch["l_u"].to_numpy(),
                                 batch["l_v"].to_numpy()]),
            "d": np.int64(1)})
        return part.groupby("c", as_index=False).sum()

    dc = bucket_agg(lu.map_batches(deg_rows, batch_format="pandas"),
                    ["c"], {"d": ("d", "sum")},
                    num_buckets=num_buckets, pre=False)

    # community-scale fold (bounded by the class count, stated above)
    mcp = mc.to_pandas().set_index("c")["mc"]
    dcp = dc.to_pandas().set_index("c")["d"]
    if 4 * m * m >= (1 << 63) or (dcp.to_numpy(np.int64) ** 2
                                  >= (1 << 63)).any():
        raise OverflowError("modularity needs 4m² and d_c² < 2^63")
    q_num = int(sum(4 * m * int(mcp.get(c, 0)) - int(d) ** 2
                    for c, d in dcp.items()))
    q_den = 4 * m * m
    return ray.data.from_arrow(pa.table({
        "m": pa.array([m], pa.int64()),
        "n_communities": pa.array([len(dcp)], pa.int64()),
        "q_num": pa.array([q_num], pa.int64()),
        "q_den": pa.array([q_den], pa.int64()),
        "modularity": pa.array([q_num / q_den], pa.float64()),
    }))


def _edge_support(e: ray.data.Dataset,
                  num_buckets: int | None = None) -> ray.data.Dataset:
    """Per-EDGE triangle support over a canonical distinct undirected
    edge set ``(a, b)`` with a < b (the edge-attributed sibling of
    `triangle_counts`' per-vertex counts): each :func:`_triangles` row
    explodes to its three canonical edges and ONE edge-bucket count
    gives ``(a, b, support)`` — edges in no triangle are absent
    (support 0 by convention at the caller)."""
    from pyrdf2vec_ray.shuffle import bucket_agg

    tri, _deg = _triangles(e, num_buckets)

    def tri_edges(batch: pd.DataFrame) -> pd.DataFrame:
        p = batch["p"].to_numpy()
        q = batch["q"].to_numpy()
        c = batch["center"].to_numpy()
        ea_ = np.concatenate([np.minimum(p, q), np.minimum(p, c),
                              np.minimum(q, c)])
        eb_ = np.concatenate([np.maximum(p, q), np.maximum(p, c),
                              np.maximum(q, c)])
        part = pd.DataFrame({"a": ea_, "b": eb_,
                             "support": np.int64(1)})
        return part.groupby(["a", "b"], as_index=False).sum()

    return bucket_agg(tri.map_batches(tri_edges, batch_format="pandas"),
                      ["a", "b"], {"support": ("support", "sum")},
                      num_buckets=num_buckets, pre=False)


def ktruss_bounded(
    edges: ray.data.Dataset,
    k: int,
    rounds: int = 3,
    a_col: str = "a",
    b_col: str = "b",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Bounded k-truss: iteratively delete every edge in fewer than
    ``k − 2`` triangles — the TRIANGLE-supported dense-subgraph peel,
    stricter than `kcore_bounded`'s degree peel (a k-core can be
    triangle-free; a k-truss cannot).  Returns the surviving edges
    ``(a, b, support)`` after at most ``rounds`` peels, with support
    measured in the graph of the FINAL computed round (exact — the
    true k-truss — when the peel converges within the bound, which the
    early-exit detects; otherwise the documented bounded-peel
    contract, exactly `kcore_bounded`'s).

    Per round: one `_edge_support` pass (degree-oriented wedge closing,
    O(m^1.5) wedge volume, adaptive broadcast attach/close within
    ``join.BROADCAST_ROWS``) + a vectorized support filter; edge sets are
    materialized per round (they feed the next round's degree count
    AND the convergence check)."""
    if k < 3:
        raise ValueError(f"k must be >= 3 for a meaningful truss, "
                         f"got {k}")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    e = _canon_undirected(edges, a_col, b_col, num_buckets)
    n_prev = e.count()
    sup = e
    for _r in range(int(rounds)):
        if not n_prev:
            break   # nothing left to peel
        sup = _edge_support(e, num_buckets).materialize()

        def keep_fn(batch: pd.DataFrame, _k=k) -> pd.DataFrame:
            return batch[batch["support"].to_numpy(np.int64)
                         >= _k - 2]

        sup = sup.map_batches(keep_fn,
                              batch_format="pandas").materialize()
        n_now = sup.count()
        e = sup.map_batches(
            lambda b: b[["a", "b"]], batch_format="pandas"
        ).materialize()
        if n_now == n_prev:
            break
        n_prev = n_now
    return sup


def conductance(
    edges: ray.data.Dataset,
    labels: ray.data.Dataset,
    a_col: str = "a",
    b_col: str = "b",
    node_col: str = "node",
    label_col: str = "label",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Per-community cut quality — the class-level detail view of
    :func:`modularity`: for each community c,
    ``conductance φ(c) = cut(c) / min(vol(c), vol(rest))`` with
    cut = edges leaving c, vol = total member degree.  Output one row
    per community: ``(community, m_within, cut, volume, phi_num,
    phi_den, conductance)`` — exact int64 numerator/denominator
    (phi_num = cut, phi_den = min(vol, 2m − vol); communities with
    phi_den = 0 report NaN), float64 division last.

    Same distributed shape as modularity: ONE pair-distinct, adaptive
    label attach (the label table dedups defensively), community-scale
    reduces; the output is class-count-sized."""
    from pyrdf2vec_ray.shuffle import bucket_agg

    m, lu = _label_edges(edges, labels, a_col, b_col, node_col,
                         label_col, num_buckets, "conductance")

    def per_edge(batch: pd.DataFrame) -> pd.DataFrame:
        intra = (batch["l_u"] == batch["l_v"]).to_numpy()
        part = pd.DataFrame({
            "community": np.concatenate([batch["l_u"].to_numpy(),
                                         batch["l_v"].to_numpy()]),
            # volume: every endpoint contributes one degree stub
            "volume": np.int64(1),
            # within: both stubs of an intra edge; halved at the end
            "m_within2": np.concatenate([intra, intra])
            .astype(np.int64),
            # cut: one per stub of an inter edge
            "cut": np.concatenate([~intra, ~intra]).astype(np.int64),
        })
        return part.groupby("community", as_index=False).sum()

    agg = bucket_agg(
        lu.map_batches(per_edge, batch_format="pandas"),
        ["community"],
        {"volume": ("volume", "sum"), "m_within2": ("m_within2", "sum"),
         "cut": ("cut", "sum")}, num_buckets=num_buckets, pre=False)

    def finish(batch: pd.DataFrame, _2m=2 * m) -> pd.DataFrame:
        vol = batch["volume"].to_numpy(np.int64)
        cut = batch["cut"].to_numpy(np.int64)
        den = np.minimum(vol, _2m - vol)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = np.where(den > 0,
                           cut / np.maximum(den, 1), np.nan)
        return pd.DataFrame({
            "community": batch["community"].to_numpy(),
            "m_within": batch["m_within2"].to_numpy(np.int64) // 2,
            "cut": cut, "volume": vol,
            "phi_num": cut, "phi_den": den,
            "conductance": phi.astype(np.float64)})

    return agg.map_batches(finish, batch_format="pandas")
