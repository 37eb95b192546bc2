"""Distributed connected components over near-dup pair sets.

The missing tail of every large-scale dedup pipeline: pair generation
(exact hash, MinHash+LSH, SimHash, embedding-cosine — `ops/dedup.py`)
emits EDGES, but keep/drop decisions need COMPONENTS — "these 40
documents are all transitively near-identical, keep the canonical one".
This module closes that gap with a shuffle-shaped label propagation:

    connected_components(pairs) -> Dataset(node, component)

where ``component`` is the smallest node id reachable from ``node``
(the conventional canonical-representative choice).

Algorithm — iterated neighbor-min plus pointer jumping, entirely as
bucket-shuffle rounds over Datasets (no driver-side graph):

  1. L0[n] = n for every pair endpoint.
  2. Neighbor-min round: every node sends its label to each neighbor
     (one co-partitioned hash join of the static edge set with L), then
     every node takes the min of its own label and all received ones
     (one min-reduce shuffle with a per-batch partial-min combiner).
  3. Pointer-jump round: L[n] <- L[L[n]] (one self-join shuffle) —
     path-halving, which turns the O(diameter) fixpoint of step 2 into
     O(log diameter) total rounds (Kiveris et al., "Connected
     Components in MapReduce and Beyond", SoCC'14 — the public
     large-star/small-star family; plain hash-to-min + jumping is the
     simplest member and enough here because near-dup components are
     shallow in practice).
  4. Stop when no label changed in step 2.  Labels only ever decrease,
     and the neighbor-min fixpoint is exactly "label constant per
     component = component min", so the changed-count is a sound and
     cheap convergence certificate (an int sum over the node-scale
     label table, not a join).

Scale notes (100 TB): the edge set is re-shuffled once per round —
inherent to the MapReduce-CC family; rounds are O(log diameter), and
dup components are near-cliques (diameter 2-4), so 3-4 rounds in
practice.  The label table is node-scale (only pair endpoints, far
smaller than the corpus) and is materialized per round in the OBJECT
STORE, never collected to the driver.  Hot components (a viral doc
duplicated millions of times) concentrate one label value, not one
shuffle key — the min-reduce keys by node, which stays uniform.

Reference scope note: the reference engine (pyRDF2Vec) has no dedup
surface at all; this operator exists for the training-data-pipeline
capabilities this engine adds on top (see SURVEY.md §2.6 extensions).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from pyrdf2vec_ray.shuffle import bucket_apply


def _tag_edges(pairs: ray.data.Dataset, col_a: str, col_b: str):
    """Symmetric directed edge rows (key=u, val=v, kind=1), both
    directions — min labels must flow both ways along every pair."""

    def sym(batch: pa.Table) -> pa.Table:
        a = batch[col_a].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[col_b].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "key": pa.array(np.concatenate([a, b])),
            "val": pa.array(np.concatenate([b, a])),
            "kind": pa.array(np.ones(2 * len(a), dtype=np.int8)),
        })

    return pairs.map_batches(sym, batch_format="pyarrow")


def _init_labels(edges_tagged: ray.data.Dataset,
                 num_buckets: int | None = None) -> ray.data.Dataset:
    """L0: every distinct endpoint labeled with itself.  The symmetric
    edge rows carry every endpoint in ``key``, so one distinct over that
    column covers all nodes."""

    def pre(batch: pa.Table) -> pa.Table:
        # keep the column named "key": the bucket hash runs AFTER pre
        u = np.unique(batch["key"].to_numpy(zero_copy_only=False))
        return pa.table({"key": pa.array(u, pa.int64())})

    def uniq(g: pa.Table) -> pa.Table:
        u = np.unique(g["key"].to_numpy(zero_copy_only=False))
        return pa.table({"node": pa.array(u, pa.int64()),
                         "label": pa.array(u, pa.int64())})

    return bucket_apply(edges_tagged, ["key"], uniq, pre=pre,
                        num_buckets=num_buckets, batch_format="pyarrow")


def _messages(labels: ray.data.Dataset,
              edges_tagged: ray.data.Dataset,
              num_buckets: int | None = None) -> ray.data.Dataset:
    """Hash-join edges with labels on the source endpoint: each edge row
    (u -> v) becomes the message (v, label[u]); own-label rows pass
    through so the min-reduce sees every node."""

    def tag_l(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "key": batch["node"].cast(pa.int64()),
            "val": batch["label"].cast(pa.int64()),
            "kind": pa.array(np.zeros(n, dtype=np.int8)),
        })

    tagged = labels.map_batches(tag_l, batch_format="pyarrow") \
                   .union(edges_tagged)

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        own = g[g["kind"] == 0]
        e = g[g["kind"] == 1]
        if not len(e):
            return own[["key", "val", "kind"]]
        lab = own.set_index("key")["val"]
        msgs = pd.DataFrame({
            "key": e["val"].to_numpy(),
            "val": e["key"].map(lab).to_numpy(),
            "kind": np.int8(1),
        })
        return pd.concat(
            [own[["key", "val", "kind"]], msgs], ignore_index=True
        )

    return bucket_apply(tagged, ["key"], join_bucket,
                        num_buckets=num_buckets, batch_format="pandas")


def _min_reduce(msgs: ray.data.Dataset,
                num_buckets: int | None = None) -> ray.data.Dataset:
    """New label = min(own, received); per-batch partial min (keyed by
    (node, kind) so the own-label row survives for the changed check)
    combines before the shuffle."""

    def pre(batch: pa.Table) -> pa.Table:
        t = batch.group_by(["key", "kind"]).aggregate([("val", "min")])
        return pa.table({"key": t["key"], "val": t["val_min"],
                         "kind": t["kind"]})

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        new = g.groupby("key")["val"].min()
        old = g[g["kind"] == 0].groupby("key")["val"].min()
        changed = (new.to_numpy()
                   < old.reindex(new.index).to_numpy()).astype(np.int64)
        return pd.DataFrame({
            "node": new.index.to_numpy().astype(np.int64),
            "label": new.to_numpy().astype(np.int64),
            "changed": changed,
        })

    return bucket_apply(msgs, ["key"], reduce_bucket, pre=pre,
                        num_buckets=num_buckets, batch_format="pandas")


def _pointer_jump(labels: ray.data.Dataset,
                  num_buckets: int | None = None) -> ray.data.Dataset:
    """L[n] <- L[L[n]] in one self-join shuffle: every node routes a
    request row to its parent's bucket; the parent's own row answers it.
    Every label value is itself a node present in L (labels start as
    node ids and only ever take other labels' values), so every request
    finds its parent.  Keys may be of any one type; ``changed`` flags
    the nodes whose label moved (`ops.graph.scc_bounded` jumps until
    none does)."""

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        node, lab = batch["node"].to_numpy(), batch["label"].to_numpy()
        return pd.DataFrame({"key": np.concatenate([node, lab]),
                             "val": np.concatenate([lab, node]),
                             "req": np.repeat([False, True], len(batch))})

    def jump_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lab = g[~g["req"]].set_index("key")["val"]
        req = g[g["req"]]
        root = req["key"].map(lab)
        return pd.DataFrame({
            "node": req["val"].to_numpy(),
            "label": root.to_numpy(),
            "changed": (root != req["key"]).to_numpy().astype(np.int64),
        })

    return bucket_apply(labels.map_batches(tag, batch_format="pandas"),
                        ["key"], jump_bucket, num_buckets=num_buckets,
                        batch_format="pandas")


def connected_components(
    pairs: ray.data.Dataset,
    col_a: str = "doc_a",
    col_b: str = "doc_b",
    max_rounds: int = 30,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Components of the undirected graph given by ``pairs`` (int64 node
    ids; factorize string keys first).  Returns a Dataset with columns
    ``node`` (every distinct pair endpoint) and ``component`` (the
    smallest node id in its component — the canonical representative).
    Nodes that appear in no pair are absent by construction; callers
    wanting singleton rows union the full id table with component=node.

    Each round costs 3 bucket shuffles (join, min-reduce, jump) plus a
    node-scale object-store materialization for the convergence count.
    ``max_rounds`` is a safety backstop: with pointer jumping the round
    count is O(log diameter), so 30 covers any real graph.
    """
    edges_tagged = _tag_edges(pairs, col_a, col_b).materialize()
    n_edges = edges_tagged.count()
    if n_edges == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "component": pa.array([], pa.int64()),
        }))
    if num_buckets is None:
        # each round is 3 shuffles; size buckets by EDGE VOLUME, not CPU
        # count — a tiny pair set in CPU-many buckets pays the whole
        # repartition/sort overhead per round for near-empty groups
        # (measured: 68 s -> ~15 s for the sf0.01 driver query).  At
        # real scale the CPU-count default takes over.
        from pyrdf2vec_ray.shuffle import default_num_buckets

        num_buckets = max(1, min(default_num_buckets(),
                                 -(-n_edges // 131072)))
    labels = _init_labels(edges_tagged, num_buckets).materialize()

    for _ in range(max_rounds):
        reduced = _min_reduce(
            _messages(labels, edges_tagged, num_buckets), num_buckets
        ).materialize()
        n_changed = reduced.sum("changed")
        labels = reduced.drop_columns(["changed"])
        if not n_changed:
            break
        labels = _pointer_jump(labels, num_buckets).materialize()
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} rounds"
        )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["node"],
                         "component": batch["label"]})

    return labels.map_batches(rename, batch_format="pyarrow")
