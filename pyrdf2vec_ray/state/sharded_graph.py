"""Hash-sharded graph index: the one backend that serves walks and
literals, built and served without collecting the graph to the driver
(SURVEY.md §4 "Data distribution").

Build: the triples Dataset is materialized once (one Ray Data job on a
lazy input, none on a materialized one) and each non-empty block goes
to one split task, which cuts it into S forward pieces keyed by
``crc32(subj) % S`` and S reverse pieces keyed by ``crc32(obj) % S``.
One Ray task per (direction, shard) then concatenates its pieces and
builds that shard's ONE CSR with the kernel of ``state/graph_index.py``
(``intern`` + ``csr``): a forward shard's keyed by subj, a reverse
shard's by obj.  The arrays stay in the object store, and these 2·S
CSRs are the materialized graph; a forward task also writes its
shard's triples as one parquet file under ``{root}/fwd``, which
``triples_dataset()`` reads.  The driver holds S object refs per
direction, never the triples.  ``num_shards=1`` is one forward and one
reverse CSR, each holding every triple.

Fit: ``counts`` and ``entity_edges`` (the sampler and community fits)
run one grouped count per shard where it lives, and the driver sums
them over one merged vocabulary; only vocabularies travel as strings.

Serve: hop lookups route by vertex NAME — shard ``crc32(name) % S``
owns every triple whose subj (resp. obj) is that name, so one shard
answers each forward (resp. reverse) ``get_hops`` exactly.  Hops come
back as name arrays sorted by (pred, other) — each shard's vocabulary
is sorted, so the order is lexicographic by name and does not depend on
S.  Walks, sampler fits and literals are therefore identical for every
shard count (pinned by tests/test_sharded_graph.py).

On one node every worker maps the shards it touches zero-copy from the
shared object store; on a multi-node cluster each shard ref lives
wherever its build task ran and workers pull only the shards their walks
touch (walk batches are routed by the same crc32, which is stable across
processes).

Reference parity: this replaces kg.py:122-133's driver-resident
transition matrices; the reference ships the WHOLE graph to every
worker (walker.py:187-195) and cannot exceed one machine.
"""

from __future__ import annotations

import shutil
import weakref
import zlib
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from pyrdf2vec_ray.state.graph_index import csr, intern

TRIPLE_COLS = ["subj", "pred", "obj"]


@dataclass
class ShardCSR:
    """One (direction, shard)'s CSR over its own sorted vocabulary: the
    edges keyed by vertex id ``v`` are ``pred[indptr[v]:indptr[v+1]]``
    and ``other[...]`` (objects forward, subjects reverse)."""
    names: np.ndarray    # sorted fixed-width names, id = position
    indptr: np.ndarray   # int64[len(names)+1]
    pred: np.ndarray     # int32[num_edges]
    other: np.ndarray    # int32[num_edges]


def shard_of(name: str, num_shards: int) -> int:
    return zlib.crc32(name.encode()) % num_shards


def _shard_col(names: pa.ChunkedArray, num_shards: int) -> pa.Array:
    # crc32 so workers can route a SINGLE name to its shard at hop time
    # with the same function (process-stable, unlike builtin hash())
    vals = names.to_numpy(zero_copy_only=False)
    out = np.fromiter(
        (zlib.crc32(v.encode()) % num_shards for v in vals),
        dtype=np.int64, count=len(vals),
    )
    return pa.array(out, pa.int64())


@ray.remote
def _split_block(block: pa.Table, cols: list, keys: tuple,
                 num_shards: int):
    """One block's ``cols`` cut by ``crc32(key) % num_shards`` for each
    key column: ``len(keys) * num_shards`` pieces, key-major, each in
    the block's row order."""
    block = block.select(cols)
    pieces = []
    for key in keys:
        shard = _shard_col(block[key], num_shards).to_numpy()
        order = np.argsort(shard, kind="stable")
        bounds = np.searchsorted(shard[order], np.arange(num_shards + 1))
        pieces += [block.take(order[lo:hi])
                   for lo, hi in zip(bounds[:-1], bounds[1:])]
    # a task with num_returns=1 returns its one object, not a list
    return pieces if len(pieces) > 1 else pieces[0]


def split_by_shard(ds: "ray.data.Dataset", cols: list, keys: tuple,
                   num_shards: int) -> list:
    """Cut every row of ``ds`` to the shard ``crc32(key) % num_shards``
    of each key column, with one task per non-empty block.  Returns
    ``pieces[k][s]``, the piece refs of key ``k`` and shard ``s``; a
    shard's pieces are in block order.  ``ds`` is materialized here: one
    Ray Data job on a lazy Dataset, none on a materialized one.
    (``to_arrow_refs`` on a lazy Dataset would run its plan twice, once
    for the blocks and once more for their schema.)"""
    mat = ds.materialize()
    rows = [m.num_rows for b in mat.iter_internal_ref_bundles()
            for _, m in b.blocks]
    # a schema-less empty block has none of ``cols``: skip it
    blocks = [r for r, n in zip(mat.to_arrow_refs(), rows) if n != 0]
    del mat
    n_out = len(keys) * num_shards
    pieces = [[[] for _ in range(num_shards)] for _ in keys]
    for block in blocks:
        out = _split_block.options(num_returns=n_out).remote(
            block, cols, keys, num_shards)
        for i, ref in enumerate(out if n_out > 1 else [out]):
            pieces[i // num_shards][i % num_shards].append(ref)
    return pieces


def concat_pieces(pieces: tuple, cols: list) -> pa.Table:
    """One shard's pieces as one table; no pieces (no rows at all) give
    an empty table of string ``cols``."""
    if pieces:
        return pa.concat_tables(pieces)
    return pa.table({c: pa.array([], pa.string()) for c in cols})


@ray.remote
def _on_shard(kernel, a: ShardCSR, *args):
    """``kernel(a, *args)`` in a worker next to the shard."""
    return kernel(a, *args)


def shard_crc(a: ShardCSR) -> tuple[int, int, int]:
    """(vertices, edges, crc32 over the CSR and vocabulary) of a shard."""
    h = zlib.crc32(a.pred.tobytes())
    h = zlib.crc32(a.other.tobytes(), h)
    h = zlib.crc32(a.indptr.tobytes(), h)
    h = zlib.crc32(a.names.tobytes(), h)
    return len(a.names), len(a.pred), h


def pair_key(a, b) -> np.ndarray:
    """``a + "\\x1f" + b`` per pair (object add: the fastest numpy form)."""
    return (np.asarray(a, dtype=object) + "\x1f"
            + np.asarray(b, dtype=object)).astype(np.str_)


def shard_counts(a: ShardCSR, key: str, cols: tuple) -> tuple:
    """(names, ids, int64 counts) of one shard's triples grouped by
    ``cols``, one or two of subj/pred/obj; ``key`` is the column the
    shard is keyed by (subj forward, obj reverse).  ``ids`` holds one id
    array into ``names`` per column, each group that occurs once."""
    nv = len(a.names)
    col = {"pred": a.pred,
           key: np.repeat(np.arange(nv, dtype=np.int64), np.diff(a.indptr))}
    ids = [col.get(c, a.other).astype(np.int64) for c in cols]
    groups, n = np.unique(ids[0] if len(ids) == 1 else ids[0] * nv + ids[1],
                          return_counts=True)
    return (pa.array(a.names),
            np.divmod(groups, nv) if len(ids) == 2 else (groups,), n)


def require_sharded(gi, caller: str) -> None:
    """Walks and literals are served only by a ShardedGraphIndex; reject
    anything else (e.g. a whole-graph ``GraphIndex``) by name."""
    if not isinstance(gi, ShardedGraphIndex):
        raise TypeError(
            f"{caller} takes a ShardedGraphIndex, not "
            f"{type(gi).__name__}; build one with "
            "ShardedGraphIndex.build(ray.data.from_arrow(triples), "
            "num_shards=...)"
        )


@ray.remote
def _build_shard(path: str | None, *pieces: pa.Table) -> ShardCSR:
    """Concatenate one shard's pieces and build its CSR (runs on any
    worker; the arrays land in that worker's object store, not on the
    driver).  A forward shard, the one given a ``path``, is keyed by
    subj and also writes its triples there, even when it holds none; a
    reverse shard is keyed by obj."""
    t = concat_pieces(pieces, TRIPLE_COLS)
    names, s_id, p_id, o_id = intern(t)
    if path is None:
        return ShardCSR(names, *csr(o_id, p_id, s_id, len(names)))
    import os

    import pyarrow.parquet as pq

    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(t, path)
    return ShardCSR(names, *csr(s_id, p_id, o_id, len(names)))


class ShardedGraphIndex:
    """S forward shards (partitioned by subj hash) + S reverse shards
    (partitioned by obj hash), each a ShardCSR object ref."""

    def __init__(self, fwd_refs: list, rev_refs: list, num_shards: int,
                 parquet_root: str):
        self.fwd_refs = fwd_refs
        self.rev_refs = rev_refs
        self.num_shards = num_shards
        self.parquet_root = parquet_root

    @staticmethod
    def build(
        triples_ds: "ray.data.Dataset",
        num_shards: int = 8,
        scratch_dir: str | None = None,
    ) -> "ShardedGraphIndex":
        """Split the triples into ``num_shards`` forward and reverse
        shards with Ray tasks and build each shard's CSR in a worker; the
        forward shards' triples go to ``{root}/fwd`` as one parquet file
        per shard.  ``root`` is ``scratch_dir``, or a fresh temp dir that
        is removed when the index is collected; a caller's dir is never
        removed."""
        import tempfile

        root = scratch_dir or tempfile.mkdtemp(prefix="sharded_graph_")
        fwd, rev = split_by_shard(triples_ds, TRIPLE_COLS, ("subj", "obj"),
                                  num_shards)
        fwd_refs = [
            _build_shard.remote(f"{root}/fwd/shard-{s:05d}.parquet", *fwd[s])
            for s in range(num_shards)
        ]
        rev_refs = [_build_shard.remote(None, *rev[s])
                    for s in range(num_shards)]
        del fwd, rev   # the shard tasks hold the pieces until they finish
        # wait for completion (refs stay in the object store; no driver copy)
        ray.wait(fwd_refs + rev_refs, num_returns=2 * num_shards, fetch_local=False)
        index = ShardedGraphIndex(fwd_refs, rev_refs, num_shards, root)
        if not scratch_dir:
            weakref.finalize(index, shutil.rmtree, root, True)
        return index

    def triples_dataset(self) -> "ray.data.Dataset":
        """The forward shards' parquet re-read as a Dataset: the input
        of the WL fit (``stages/wl.wl_labels_from_dataset``), of
        ``bench.py``'s WL stage and of tests."""
        import ray.data

        return ray.data.read_parquet(
            f"{self.parquet_root}/fwd", columns=TRIPLE_COLS
        )

    def fingerprint(self) -> str:
        """Content identity of the graph for checkpoint manifests, so a
        resume against a DIFFERENT graph rebuilds instead of reusing
        completed partitions.  One task per forward shard hashes that
        shard's CSR where it lives; no shard array reaches the driver.
        The forward shards hold every triple once, and each shard's CSR
        is sorted, so the same triples give the same fingerprint in any
        scratch dir and row order (a different shard count gives a
        different one)."""
        parts = self._map(shard_crc, self.fwd_refs)
        h = 0
        for nv, ne, crc in parts:
            h = zlib.crc32(f"{nv},{ne},{crc};".encode(), h)
        edges = sum(ne for _, ne, _ in parts)
        return f"s{self.num_shards}e{edges}x{h:08x}"

    def _map(self, kernel, refs: list, *args) -> list:
        """``kernel(shard, *args)`` per shard of ``refs``, one task each."""
        return ray.get([_on_shard.remote(kernel, r, *args) for r in refs])

    def _gather(self, cols: tuple) -> tuple:
        """(names, ids, n): ``shard_counts`` per shard (reverse shards if
        obj is grouped), its ids re-coded into ``names``, the one sorted
        vocabulary, and concatenated with the counts ``n``."""
        key = "obj" if "obj" in cols else "subj"
        parts = self._map(shard_counts,
                          self.rev_refs if key == "obj" else self.fwd_refs,
                          key, cols)
        # factorize(sort=True), not np.unique: comparison-sorting millions
        # of object strings is ~30x slower (measured at sf0.1)
        codes, names = pd.factorize(pa.chunked_array(
            [p[0] for p in parts]).to_numpy(zero_copy_only=False), sort=True)
        recode = np.split(codes, np.cumsum([len(p[0]) for p in parts])[:-1])
        ids = [np.concatenate([m[p[1][j]] for m, p in zip(recode, parts)])
               for j in range(len(cols))]
        return names, ids, np.concatenate([p[2] for p in parts])

    def counts(self, *cols: str) -> tuple:
        """The triples' ``GROUP BY cols`` row counts: (sorted names,
        float64 counts).  ``cols`` is one or two of subj/pred/obj; a
        pair is named by ``pair_key``.  Each shard counts its own
        triples, so summing over shards is exact."""
        names, ids, n = self._gather(cols)
        key = ids[0]
        if len(ids) == 2:   # name only the pairs seen, once
            key, names = pd.factorize(pair_key(names[key], names[ids[1]]),
                                      sort=True)
        w = np.bincount(key, weights=n.astype(np.float64),
                        minlength=len(names))
        seen = np.flatnonzero(w)
        return names[seen].astype(np.str_), w[seen]

    def entity_edges(self) -> tuple:
        """The distinct (subj, obj) edges: (names, src, dst), every subj
        and obj name sorted and the edges as int64 ids into it, sorted
        by (src, dst)."""
        names, (src, dst), _ = self._gather(("subj", "obj"))
        ents = np.unique(np.concatenate([src, dst]))   # not predicates
        n = len(ents)
        pair = np.unique(np.searchsorted(ents, src) * n
                         + np.searchsorted(ents, dst))
        return names[ents].astype(np.str_), pair // n, pair % n

    def local(self) -> "ShardedLocalGraph":
        """Lazy worker/driver-side view: shards resolve from the object
        store on FIRST TOUCH (shard-owner routing, VERDICT r4 item 2) —
        a consumer that only walks shard s's entities maps shard s plus
        the shards its hops actually cross, not all 2·S."""
        return ShardedLocalGraph.from_refs(self.fwd_refs, self.rev_refs)


class ShardedLocalGraph:
    """Worker-side view over the shard arrays (zero-copy object-store
    maps on the node that holds them).  Keys are vertex NAMES.

    Built only by :meth:`from_refs`, which resolves each (direction,
    shard) LAZILY on first touch: walk batches are routed by
    ``crc32(entity) % S`` (see ``walkers.extract_walks``), so a worker
    holding shard s's entities maps s's arrays plus on-demand pulls for
    the shards its hops cross, O(graph/S + touched) per worker instead
    of O(graph).  ``mapped_count()`` reports how many (direction, shard)
    slots are resident — pinned by tests/test_sharded_graph.py."""

    @classmethod
    def from_refs(cls, fwd_refs: list, rev_refs: list) -> "ShardedLocalGraph":
        self = cls.__new__(cls)
        self.fwd = [None] * len(fwd_refs)
        self.rev = [None] * len(rev_refs)
        self.num_shards = len(fwd_refs)
        self._fwd_refs = list(fwd_refs)
        self._rev_refs = list(rev_refs)
        return self

    def _shard(self, s: int, is_reverse: bool) -> ShardCSR:
        arrs = self.rev if is_reverse else self.fwd
        a = arrs[s]
        if a is None:
            refs = self._rev_refs if is_reverse else self._fwd_refs
            a = arrs[s] = ray.get(refs[s])
        return a

    def mapped_count(self) -> int:
        """Resident (direction, shard) slots — the per-worker memory
        footprint the lazy routing bounds."""
        return (sum(a is not None for a in self.fwd)
                + sum(a is not None for a in self.rev))

    def _local_id(self, arrays: ShardCSR, name: str) -> int:
        i = int(np.searchsorted(arrays.names, name))
        if i < len(arrays.names) and arrays.names[i] == name:
            return i
        return -1

    def get_hops(self, name: str, is_reverse: bool = False):
        """(pred_names, other_names) in (pred, other) lexicographic order
        — the same for every shard count, so sampled walks are too."""
        a = self._shard(shard_of(name, self.num_shards), is_reverse)
        vid = self._local_id(a, name)
        if vid < 0:
            empty = a.names[:0]
            return empty, empty
        lo, hi = a.indptr[vid], a.indptr[vid + 1]
        return a.names[a.pred[lo:hi]], a.names[a.other[lo:hi]]

    def contains_one(self, name: str) -> bool:
        """Entity existence (kg.is_exist): a vertex exists iff it appears
        as some triple's subj (→ key of its forward shard) or obj (→ key
        of its reverse shard); both checks hit exactly one shard each."""
        s = shard_of(name, self.num_shards)
        for is_reverse in (False, True):
            a = self._shard(s, is_reverse)
            vid = self._local_id(a, name)
            if vid >= 0 and a.indptr[vid + 1] > a.indptr[vid]:
                return True
        return False
