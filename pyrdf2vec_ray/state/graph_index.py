"""Compact CSR adjacency kernel over a triples table.

Replaces the reference's dict-of-sets transition matrices
(graphs/kg.py:122-133, _get_hops kg.py:445-467).  ``intern`` maps every
vertex and predicate name to an int32 id (the position in its sorted
vocabulary); ``csr`` sorts one direction's edges by (key, pred, other)
into (indptr, pred_ids, other_ids) — so a hop lookup is two zero-copy
numpy slices instead of a set product.

Every shard of ``state/sharded_graph.ShardedGraphIndex`` is ONE ``csr``
over its own vocabulary: a forward shard keyed by subj, a reverse shard
by obj; walks and literals are served only by that sharded index.  A
whole-graph ``GraphIndex`` (``intern`` plus both ``csr`` directions) is
still built on the driver where a whole-graph algorithm needs every
edge at once (``stats.vertex_stats``: PageRank, Louvain) and as the
reference oracle for the Dataset-side fits (``stages.wl.wl_labels``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa


def intern(triples: pa.Table) -> tuple:
    """(names, s_id, p_id, o_id): the sorted distinct names of the
    subj, pred and obj columns as one fixed-width unicode array, and each
    column's ids into it."""
    import pandas as pd

    subj = np.asarray(triples["subj"].to_numpy(zero_copy_only=False))
    pred = np.asarray(triples["pred"].to_numpy(zero_copy_only=False))
    obj = np.asarray(triples["obj"].to_numpy(zero_copy_only=False))

    # hash-based factorize, NOT np.unique: sorting 4M object strings
    # by comparison took 29 s at sf0.1 vs 1 s for factorize(sort=True)
    # — identical sorted names and codes (measured equal)
    codes, uniq = pd.factorize(np.concatenate([subj, pred, obj]), sort=True)
    # fixed-width unicode, NOT object dtype: a U-array is one contiguous
    # buffer, so ray.put/ray.get maps it zero-copy from the object store
    # instead of re-pickling 100k+ Python strings into every walk actor
    names = np.asarray(uniq).astype(np.str_)
    n = len(subj)
    return names, codes[:n], codes[n : 2 * n], codes[2 * n :]


def csr(key: np.ndarray, a: np.ndarray, b: np.ndarray,
        num_vertices: int) -> tuple:
    """(indptr, a, b) of the edges sorted by (key, a, b): the edges of
    vertex v are ``a[indptr[v]:indptr[v+1]]`` / ``b[...]``."""
    order = np.lexsort((b, a, key))
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.add.at(indptr, key[order] + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, a[order].astype(np.int32), b[order].astype(np.int32)


def distinct_edges(indptr: np.ndarray, b: np.ndarray) -> tuple:
    """The distinct (key, b) id pairs of one CSR as two int64 arrays,
    sorted by (key, b)."""
    nv = len(indptr) - 1
    key = np.repeat(np.arange(nv, dtype=np.int64), np.diff(indptr))
    pair = np.unique(key * nv + b)
    return pair // nv, pair % nv


@dataclass
class GraphArrays:
    names: np.ndarray        # sorted vertex/predicate names, id = position
    fwd_indptr: np.ndarray   # int64[num_vertices+1]
    fwd_pred: np.ndarray     # int32[num_edges]
    fwd_obj: np.ndarray      # int32[num_edges]
    rev_indptr: np.ndarray
    rev_pred: np.ndarray
    rev_subj: np.ndarray
    is_entity: np.ndarray    # bool[num_vertices]: appears as subj or obj
    is_pred: np.ndarray      # bool[num_vertices]: appears as pred


class GraphIndex:
    """Handle on one CSR; ``local()`` wraps it for hop and degree reads."""

    def __init__(self, arrays: GraphArrays):
        self.arrays = arrays

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_table(triples: pa.Table) -> "GraphIndex":
        names, s_id, p_id, o_id = intern(triples)
        nv = len(names)
        is_entity = np.zeros(nv, dtype=bool)
        is_entity[s_id] = True
        is_entity[o_id] = True
        is_pred = np.zeros(nv, dtype=bool)
        is_pred[p_id] = True
        return GraphIndex(GraphArrays(
            names, *csr(s_id, p_id, o_id, nv), *csr(o_id, p_id, s_id, nv),
            is_entity, is_pred,
        ))

    @staticmethod
    def from_dataset(triples_ds) -> "GraphIndex":
        """Collect the (already deduplicated) triples to the caller and
        build one CSR over all of them — for whole-graph algorithms on
        graphs that fit one process; walks use the sharded build."""
        from pyrdf2vec_ray.util import to_table

        return GraphIndex.from_table(to_table(triples_ds))

    def local(self) -> "LocalGraph":
        return LocalGraph(self.arrays)


class LocalGraph:
    """Id-keyed hop slices (≡ kg.get_hops) and degrees over one CSR."""

    def __init__(self, arrays: GraphArrays):
        self.a = arrays

    @property
    def num_vertices(self) -> int:
        return len(self.a.names)

    def get_hops(self, vid: int, is_reverse: bool = False):
        """(pred_ids, other_ids) numpy views, sorted by (pred, other) —
        deterministic hop order (the reference's is Python-set order,
        kg.py:445-467; walk SETS are unaffected, DFS sampling order is
        documented as deterministic-by-sort here)."""
        a = self.a
        if is_reverse:
            lo, hi = a.rev_indptr[vid], a.rev_indptr[vid + 1]
            return a.rev_pred[lo:hi], a.rev_subj[lo:hi]
        lo, hi = a.fwd_indptr[vid], a.fwd_indptr[vid + 1]
        return a.fwd_pred[lo:hi], a.fwd_obj[lo:hi]

    def out_deg(self) -> np.ndarray:
        return np.diff(self.a.fwd_indptr)

    def in_deg(self) -> np.ndarray:
        return np.diff(self.a.rev_indptr)
