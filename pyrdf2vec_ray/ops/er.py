"""Entity resolution: blocking + pairwise string-distance matching.

The KG-construction pipeline links mentions to a candidate index
(stages/link.py); entity RESOLUTION is the complementary step —
finding records that denote the same real-world entity so they can be
canonicalized to one node before graph materialization (the reference
pipeline assumes pre-canonicalized IRIs; at corpus scale dirty names
must be resolved first).

Design: the classic blocking architecture.  A cheap deterministic
block key (default: the name's last token) partitions candidates so
the quadratic pairwise step runs only within blocks — ONE bucket
shuffle on the block key, then a vectorized batched Levenshtein DP
across all pair candidates of the bucket at once (no per-pair Python
DP).  Pair volume is sum-of-C(block,2); pick the block function to
keep blocks bounded, exactly as for LSH bands (ops/dedup.py).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

__all__ = ["batched_levenshtein", "er_match_pairs", "er_link_pairs",
           "sameas_canonicalize"]


def batched_levenshtein(sa, sb) -> np.ndarray:
    """Exact Levenshtein distance for n string pairs at once: one DP
    over the padded (maxlen_a × maxlen_b) grid, every cell update
    vectorized across the pair axis — O(L²) numpy steps instead of n
    Python DPs.  Matches DuckDB's ``levenshtein`` (unit costs) so the
    SQL oracle shares the definition bit-for-bit."""
    sa = [str(s) for s in sa]
    sb = [str(s) for s in sb]
    n = len(sa)
    if n != len(sb):
        raise ValueError("sa and sb must have equal length")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    la = np.array([len(s) for s in sa], dtype=np.int32)
    lb = np.array([len(s) for s in sb], dtype=np.int32)
    ml_a, ml_b = int(la.max()), int(lb.max())
    A = np.zeros((n, max(ml_a, 1)), dtype=np.uint32)
    B = np.zeros((n, max(ml_b, 1)), dtype=np.uint32)
    for i, s in enumerate(sa):
        if s:
            A[i, : len(s)] = np.frombuffer(
                s.encode("utf-32-le"), dtype=np.uint32)
    for i, s in enumerate(sb):
        if s:
            B[i, : len(s)] = np.frombuffer(
                s.encode("utf-32-le"), dtype=np.uint32)

    out = np.empty(n, dtype=np.int64)
    prev = np.broadcast_to(
        np.arange(ml_b + 1, dtype=np.int32), (n, ml_b + 1)).copy()
    sel0 = la == 0
    out[sel0] = lb[sel0]
    idx = np.arange(n)
    for i in range(1, ml_a + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        ai = A[:, i - 1]
        for j in range(1, ml_b + 1):
            cost = (ai != B[:, j - 1]).astype(np.int32)
            cur[:, j] = np.minimum(
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1),
                prev[:, j - 1] + cost)
        sel = la == i
        if sel.any():
            out[sel] = cur[idx[sel], lb[sel]]
        prev = cur
    return out


def er_match_pairs(
    records: ray.data.Dataset,
    id_col: str,
    name_col: str,
    max_dist: int = 2,
    block_fn=None,
) -> ray.data.Dataset:
    """(id_a, id_b, dist): candidate duplicate-entity pairs — records
    whose names are within ``max_dist`` Levenshtein edits, compared
    only within blocks.  ``block_fn(pd.Series[str]) -> pd.Series[str]``
    maps names to a block key (default: the last whitespace token —
    the head noun for "adjective noun"-style names).  Pairs are
    ordered ``id_a < id_b``; the same pair can never surface twice
    because a record has exactly one block key (unlike multi-table
    LSH, no cross-table dedup pass is needed)."""
    from pyrdf2vec_ray.shuffle import bucket_apply

    if block_fn is None:
        def block_fn(names: pd.Series) -> pd.Series:
            return names.str.split().str[-1].fillna("")

    def add_block(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {id_col: batch[id_col].to_numpy(),
             name_col: batch[name_col].to_numpy(),
             "blk": block_fn(batch[name_col]).to_numpy()})

    blocked = records.select_columns([id_col, name_col]).map_batches(
        add_block, batch_format="pandas")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, grp in g.groupby("blk"):
            if len(grp) < 2:
                continue
            grp = grp.sort_values(id_col)
            ids = grp[id_col].to_numpy()
            names = grp[name_col].to_numpy()
            ia, ib = np.triu_indices(len(ids), k=1)
            dist = batched_levenshtein(names[ia], names[ib])
            keep = dist <= max_dist
            if keep.any():
                outs.append(pd.DataFrame(
                    {"id_a": ids[ia[keep]], "id_b": ids[ib[keep]],
                     "dist": dist[keep]}))
        if not outs:
            return pd.DataFrame(
                {"id_a": pd.array([], dtype="int64"),
                 "id_b": pd.array([], dtype="int64"),
                 "dist": pd.array([], dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    return bucket_apply(blocked, ["blk"], per_bucket,
                        batch_format="pandas")


def er_resolve(
    records: ray.data.Dataset,
    id_col: str,
    name_col: str,
    max_dist: int = 2,
    block_fn=None,
) -> ray.data.Dataset:
    """(id, canonical): every record mapped to its cluster's canonical
    representative — the smallest record id transitively reachable
    through :func:`er_match_pairs` matches.  Records with no match map
    to themselves.  This is the full entity-resolution pass: blocked
    pairwise matching, then connected components over the match graph
    (``ops/components.connected_components`` — distributed neighbor-min
    label propagation), then an identity union so singletons surface.

    The canonical id replaces dirty surface forms BEFORE a KG build
    materializes one node per entity; the reference assumes
    pre-canonicalized IRIs (/root/reference/pyrdf2vec/graphs/kg.py
    stores vertex names verbatim) so this stage has no analog there.

    Scale shape: pair generation is the er_match_pairs block shuffle;
    CC is O(diameter) rounds of bucket exchanges over the PAIR table
    (match graphs are tiny next to the record table); the final merge
    is one node-bucket min-aggregation of components ∪ identity — the
    record table itself is never joined row-by-row against anything."""
    from pyrdf2vec_ray.ops.components import connected_components
    from pyrdf2vec_ray.shuffle import bucket_agg

    pairs = er_match_pairs(records, id_col, name_col,
                           max_dist=max_dist, block_fn=block_fn)
    comp = connected_components(pairs, "id_a", "id_b")

    def comp_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {id_col: batch["node"].astype("int64"),
             "canonical": batch["component"].astype("int64")})

    def identity_rows(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch[id_col].astype("int64")
        return pd.DataFrame({id_col: ids, "canonical": ids})

    both = (comp.map_batches(comp_rows, batch_format="pandas")
            .union(records.select_columns([id_col]).map_batches(
                identity_rows, batch_format="pandas")))
    return bucket_agg(both, [id_col], {"canonical": ("canonical", "min")})


def sameas_canonicalize(
    triples: ray.data.Dataset,
    sameas_pred: str = "owl:sameAs",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Collapse ``owl:sameAs`` equivalence classes in a ``(subj, pred,
    obj)`` triple set: every name transitively linked by ``sameas_pred``
    edges is rewritten to its class's canonical representative (the
    LEXICOGRAPHICALLY SMALLEST name — SQL-replayable, unlike an
    id-order pick), the sameAs triples themselves are dropped, and the
    rewritten facts are deduplicated.  This is the KG-construction
    cleanup the reference cannot do (it assumes pre-canonicalized IRIs,
    /root/reference/pyrdf2vec/graphs/kg.py stores vertex names
    verbatim): merging Wikidata/DBpedia/crawl aliases into one node
    BEFORE walks, so embeddings train on one vertex per entity.

    Distributed shape (never materializes the fact corpus):

    1. ONE pass splits the stream into sameAs edges and facts
       (vectorized Arrow masks).
    2. Alias names get dense int64 ids (`shuffle.dense_ids` — closed
       form, no global sort), the edge list joins to int pairs, and
       `ops/components.connected_components` (neighbor-min label
       propagation + pointer jumping, O(log diameter) rounds of
       bucket exchanges over the EDGE-scale table) finds classes.
    3. min(name) per class = canonical; the (name, canon) alias map is
       ALIAS-TABLE-sized.
    4. Fact rewrite is one `ops/join.adaptive_join` per side (subj,
       obj): the map broadcasts (`ray.put` once, stateless per-batch
       merge — zero shuffles) while it fits ``BROADCAST_ROWS``, else a
       co-partitioning hash join.  Final distinct is ONE bucket shuffle
       over the rewritten facts.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    from pyrdf2vec_ray.ops.components import connected_components
    from pyrdf2vec_ray.ops.join import adaptive_join, hash_join, small_table
    from pyrdf2vec_ray.shuffle import bucket_agg, dense_ids, distinct

    def edge_scan(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.equal(batch["pred"], sameas_pred))
        return pa.table({"a": kept["subj"], "b": kept["obj"]})

    def fact_scan(batch: pa.Table) -> pa.Table:
        kept = batch.filter(
            pc.invert(pc.equal(batch["pred"], sameas_pred)))
        return pa.table({"subj": kept["subj"], "pred": kept["pred"],
                         "obj": kept["obj"]})

    o = np.dtype("O")
    i8 = np.dtype("int64")
    # the sameAs edge set is alias-table-scale (tiny next to the fact
    # corpus) — materialize it once: the no-alias case short-circuits,
    # and the id joins below re-read the pinned blocks instead of
    # re-filtering the corpus
    edges = triples.map_batches(
        edge_scan, batch_format="pyarrow").materialize()
    facts = triples.map_batches(fact_scan, batch_format="pyarrow")
    if edges.count() == 0:
        return distinct(facts, ["subj", "pred", "obj"],
                        num_buckets=num_buckets)
    ep = small_table(edges)
    if ep is not None:
        # the alias edge set fits the broadcast rule — so compute the
        # classes directly with a union-find over the collected pairs
        # instead of paying dense_ids + CC + four hash joins their
        # fixed per-exchange costs (measured 21 s → ~6 s at gate
        # scale); the FACT rewrite below stays fully distributed
        # either way
        ep = ep.to_pandas()
        parent: dict = {}

        def find(x):
            r = x
            while parent.get(r, r) != r:
                r = parent[r]
            while parent.get(x, x) != x:
                parent[x], x = r, parent[x]
            return r

        for a, b in zip(ep["a"], ep["b"]):
            ra, rb = find(a), find(b)
            if ra != rb:
                # union by canonical order so roots trend small
                lo, hi = (ra, rb) if ra < rb else (rb, ra)
                parent[hi] = lo
        names = pd.unique(pd.concat([ep["a"], ep["b"]],
                                    ignore_index=True))
        # union-by-smaller-root keeps every class's root at its
        # lexicographic minimum (induction over unions), so the root
        # IS the canonical name
        amap = ray.data.from_pandas(pd.DataFrame(
            {"name": names, "canon": [find(n) for n in names]}))
    else:
        amap = None

    if amap is None:
        def col_as(name_from: str, name_to: str):
            def fn(batch: pa.Table) -> pa.Table:
                return pa.table({name_to: batch[name_from]})
            return fn

        names = edges.map_batches(col_as("a", "name"),
                                  batch_format="pyarrow").union(
            edges.map_batches(col_as("b", "name"), batch_format="pyarrow"))
        ids = dense_ids(names, "name", num_buckets=num_buckets)

        ida = ids.map_batches(
            lambda b: pa.table({"a": b["name"], "ia": b["vid"]}),
            batch_format="pyarrow")
        idb = ids.map_batches(
            lambda b: pa.table({"b": b["name"], "ib": b["vid"]}),
            batch_format="pyarrow")
        pairs = hash_join(
            hash_join(edges, ida, on=["a"], num_buckets=num_buckets,
                      lschema={"a": o, "b": o}, rschema={"a": o, "ia": i8}),
            idb, on=["b"], num_buckets=num_buckets,
            lschema={"a": o, "b": o, "ia": i8}, rschema={"b": o, "ib": i8})
        comp = connected_components(pairs, "ia", "ib",
                                    num_buckets=num_buckets)

        # (name, component) -> canonical = min(name) within the class; the
        # map stays distributed (alias-table-scale exchanges only)
        named = hash_join(
            comp, ids.map_batches(
                lambda b: pa.table({"node": b["vid"], "name": b["name"]}),
                batch_format="pyarrow"),
            on=["node"], num_buckets=num_buckets,
            lschema={"node": i8, "component": i8},
            rschema={"node": i8, "name": o})
        canon = bucket_agg(named, ["component"], {"canon": ("name", "min")},
                           num_buckets=num_buckets)
        amap = hash_join(
            named, canon, on=["component"], num_buckets=num_buckets,
            lschema={"component": i8, "node": i8, "name": o},
            rschema={"component": i8, "canon": o}
        ).select_columns(["name", "canon"])

    def rewrite_with(side: str, mapped: str):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch.copy()
            hit = out[mapped].notna()
            out.loc[hit, side] = out.loc[hit, mapped]
            return out.drop(columns=[mapped])
        return fn

    amap = amap.materialize()
    for side in ("subj", "obj"):
        side_map = amap.map_batches(
            lambda b, _s=side: pa.table({_s: b["name"],
                                         "__canon": b["canon"]}),
            batch_format="pyarrow")
        facts = adaptive_join(facts, side_map, on=[side], how="left",
                              num_buckets=num_buckets,
                              lschema={"subj": o, "pred": o, "obj": o})
        facts = facts.map_batches(rewrite_with(side, "__canon"),
                                  batch_format="pandas")
    return distinct(facts.select_columns(["subj", "pred", "obj"]),
                    ["subj", "pred", "obj"], num_buckets=num_buckets)


def er_link_pairs(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    id_col: str,
    name_col: str,
    max_dist: int = 2,
    block_fn=None,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Two-table record LINKAGE — the cross-table sibling of
    :func:`er_match_pairs` (one dirty feed matched against a clean
    master table, the classic MDM shape): ``(id_l, id_r, dist)`` for
    every left×right pair within ``max_dist`` Levenshtein edits,
    compared only within blocks.  ``block_fn(pd.Series[str]) ->
    pd.Series[str]`` defaults to the last whitespace token; pick it so
    the expected typo classes PRESERVE the block (e.g. a suffix block
    when corruptions hit the prefix) — a pair split across blocks is
    unmatchable by construction, the stated blocking contract.

    Scale shape: both sides tag their block key + a side flag, ONE
    co-partitioning block-bucket shuffle of (id, name) rows, then a
    vectorized left×right batched-Levenshtein DP per block (no
    per-pair Python).  Pair volume is Σ |L_b|·|R_b| — block design
    bounds it exactly as for `er_match_pairs` / LSH bands."""
    from pyrdf2vec_ray.shuffle import bucket_apply

    if block_fn is None:
        def block_fn(names: pd.Series) -> pd.Series:
            return names.str.split().str[-1].fillna("")

    def tagger(side: int):
        def tag(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {id_col: batch[id_col].to_numpy(),
                 name_col: batch[name_col].to_numpy(),
                 "blk": block_fn(batch[name_col]).to_numpy(),
                 "side": np.int8(side)})
        return tag

    tagged = left.select_columns([id_col, name_col]).map_batches(
        tagger(0), batch_format="pandas").union(
        right.select_columns([id_col, name_col]).map_batches(
            tagger(1), batch_format="pandas"))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, grp in g.groupby("blk"):
            ls = grp[grp["side"] == 0]
            rs = grp[grp["side"] == 1]
            if not len(ls) or not len(rs):
                continue
            li = np.repeat(np.arange(len(ls)), len(rs))
            ri = np.tile(np.arange(len(rs)), len(ls))
            dist = batched_levenshtein(
                ls[name_col].to_numpy()[li],
                rs[name_col].to_numpy()[ri])
            keep = dist <= max_dist
            if keep.any():
                outs.append(pd.DataFrame(
                    {"id_l": ls[id_col].to_numpy()[li[keep]],
                     "id_r": rs[id_col].to_numpy()[ri[keep]],
                     "dist": dist[keep]}))
        if not outs:
            return pd.DataFrame(
                {"id_l": pd.Series(dtype="int64"),
                 "id_r": pd.Series(dtype="int64"),
                 "dist": pd.Series(dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    return bucket_apply(tagged, ["blk"], per_bucket,
                        num_buckets=num_buckets, batch_format="pandas")
