"""Distributed Word2Vec: SGNS epochs as Ray tasks over vocab-sharded
parameter objects (north_star: "fits Word2Vec skip-gram embeddings on
parameter-server actors"; the parameter servers are object-store shards
here, so every step runs in a pooled worker and no actor is started).

Topology (the round-1 version was driver-averaged synchronous SGD with
the FULL corpus on the driver and FULL W/C matrices shipped to every
worker every epoch — neither survives corpus- or vocab-scale):

- **Corpus** is split block-wise into ``num_workers`` splits
  (``Dataset.split``).  Split i's Arrow block refs (object-store refs,
  never a driver list) go to one `count_walks` task, which reads them
  once: one sorted factorize gives both the split's token codes and its
  partial vocabulary.
- **Vocabulary**: the driver receives at most ``num_workers`` partial
  vocabularies (sorted tokens + counts) and folds them with
  `embedders.merge_vocab`; there is no vocabulary exchange.  The sorted
  token array + counts are the only vocab-scale driver state (= the
  model's key index, which any embedder API must hold anyway).  One
  `remap_corpus` task per split maps its codes to the merged
  vocabulary, once; the split's `embedders.TokenCorpus` stays in the
  object store.
- **Parameters** are ``num_ps`` shard objects ``(W_s, C_s)``, rows
  [lo, hi) of W and C, which the model holds as object refs; no
  process ever holds the full matrices.  `init_shard` creates each one
  (an update fit also copies the carried rows out of the old shards).
- **Epoch** = one `train_split` task per split.  It runs the epoch pair
  stream of `embedders.TokenCorpus` twice: once to flag the parameter
  rows it will touch, which it copies out of the shards, and once to
  train them locally with `embedders.SGNS.train_epoch`.  It returns one
  SPARSE delta per shard (``num_returns=num_ps``), and one
  `apply_deltas` task per shard adds them in fixed trainer order,
  scaled 1/num_workers, into the next shard object.  Every ref a task
  reads is a top-level argument, which Ray resolves before the task
  runs: no task calls ``ray.get``.  Synchronous + ordered ⇒ runs are
  deterministic for a fixed (seed, num_workers, num_ps).
- **Pickling**: the model pickles its shard objects by value and puts
  them back into the object store when first used, so a saved
  ``RDF2VecTransformer`` loads in any Ray session.

The vocabulary, negative table, initialisation, seeds and learning-rate
schedule are those of `embedders`, so ``DistributedWord2Vec(
num_workers=1, num_ps=1)`` equals the in-process `embedders.Word2Vec`
up to the float rounding of the delta round trip (W0 + (W1 − W0)).
More workers split the corpus and average their deltas, which changes
the vectors (the reference has the same caveat for gensim workers>1,
README.rst:466-498).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from pyrdf2vec_ray.embedders import (
    SGNS,
    FastText,
    TokenCorpus,
    build_vocab,
    carried_rows,
    compute_ngrams_bytes,
    ft_hash_bytes,
    init_rows,
    lookup,
    mean_of_buckets,
    merge_vocab,
    neg_table,
    sentence_arrays,
    token_ids,
    walk_arrays,
)


def _shard_bounds(vocab_size: int, num_ps: int) -> list[tuple[int, int]]:
    step = (vocab_size + num_ps - 1) // num_ps
    return [(min(i * step, vocab_size), min((i + 1) * step, vocab_size))
            for i in range(num_ps)]


@ray.remote(num_returns=2)
def count_walks(*parts):
    """One sorted factorize (`embedders.build_vocab`) over one split of
    the corpus: Arrow tables with a ``walk`` column (a Dataset split's
    blocks) or lists of token lists (`fit`).  Returns the partial
    vocabulary ``(sorted tokens, float64 counts)``, which goes to the
    driver, and ``(codes, lengths)``, which stays in the object store."""
    arrays = [walk_arrays(p["walk"]) if isinstance(p, pa.Table)
              else sentence_arrays(p) for p in parts] or [sentence_arrays([])]
    local, counts, codes = build_vocab(np.concatenate([a[0] for a in arrays]))
    return (local, counts), (codes, np.concatenate([a[1] for a in arrays]))


@ray.remote
def remap_corpus(vocab: np.ndarray, partial: tuple,
                 coded: tuple) -> TokenCorpus:
    """A split's counted codes as rows of the merged vocabulary: one
    searchsorted over its partial vocabulary."""
    codes, lens = coded
    corpus = TokenCorpus()
    corpus.add(token_ids(vocab, partial[0])[codes], lens)
    return corpus


@ray.remote
def init_shard(lo: int, hi: int, dim: int, seed: int, vocab: np.ndarray,
               old_vocab: np.ndarray | None, old_bounds: list, *old_shards):
    """Rows [lo, hi) of W and C.  An update fit (reference
    word2vec.py:37-52 ``build_vocab(update=True)`` keeps trained rows)
    passes the previous model's vocabulary, bounds and shards, and the
    rows of tokens it already had are copied from them."""
    W, C = init_rows(hi - lo, dim, seed)
    if old_shards:
        rows, gids = carried_rows(old_vocab, vocab[lo:hi])
        for (olo, ohi), (oW, oC) in zip(old_bounds, old_shards):
            m = (gids >= olo) & (gids < ohi)
            W[rows[m]] = oW[gids[m] - olo]
            C[rows[m]] = oC[gids[m] - olo]
    return W, C


@ray.remote
def train_split(cfg: dict, seed: int, epoch: int, lr: float, bounds: list,
                corpus: TokenCorpus, table: np.ndarray, *shards):
    """One epoch over one split.  A generator task: it yields one delta
    per parameter shard, ``(ids, dW, dC)`` or None, each its own return
    object (``num_returns=len(bounds)``)."""
    model = SGNS(**cfg)
    V = bounds[-1][1]
    # pass 1: touched-row flags only — the pair stream is REPLAYED in
    # pass 2 (expansion is ~0.3 s/1.5M tokens warm; rebuilding beats
    # holding corpus-scale pair buffers, see TokenCorpus.epoch_chunks)
    flag = np.zeros(V, dtype=bool)
    for centers, ctxs, negs in corpus.epoch_chunks(
        seed, epoch, model.window, model.negative, table
    ):
        flag[centers] = True
        flag[ctxs] = True
        flag[negs.ravel()] = True
    used = np.flatnonzero(flag)

    # copy only the touched rows out of their shards; `used` is sorted
    # and the by_shard concatenation preserves that order.  dtype= is
    # not redundant: arrays unpickled from the object store carry a
    # float32 dtype object that is not numpy's singleton, and np.add.at
    # then leaves its indexed fast path (measured ~18x slower)
    by_shard = [used[(used >= lo) & (used < hi)] for lo, hi in bounds]
    W0 = np.concatenate([W[ids - lo] for (W, _), ids, (lo, _)
                         in zip(shards, by_shard, bounds)], dtype=np.float32)
    C0 = np.concatenate([C[ids - lo] for (_, C), ids, (lo, _)
                         in zip(shards, by_shard, bounds)], dtype=np.float32)

    # pass 2: replay the pair stream on the compact local rows
    model.W, model.C = W0.copy(), C0.copy()
    inv = np.empty(V, dtype=np.int64)
    inv[used] = np.arange(len(used))
    model.train_epoch(corpus, seed, epoch, lr, table, remap=inv)

    dW, dC = model.W - W0, model.C - C0
    offset = 0
    for ids in by_shard:
        sl = slice(offset, offset + len(ids))
        yield (ids, dW[sl], dC[sl]) if len(ids) else None
        offset += len(ids)


@ray.remote
def apply_deltas(lo: int, scale: float, shard: tuple, *deltas):
    """The next ``(W_s, C_s)``: every split's sparse delta for this
    shard, added in trainer order (deterministic), scaled 1/num_workers.
    The copies take ``astype``: ``np.array(M, dtype=...)`` keeps the
    object store's non-singleton dtype (see `train_split`)."""
    W, C = (M.astype(np.float32) for M in shard)
    for d in deltas:
        if d is None:
            continue
        gids, dW, dC = d
        np.add.at(W, gids - lo, dW * scale)
        np.add.at(C, gids - lo, dC * scale)
    return W, C


@ray.remote
def shard_rows(shard: tuple, rows: np.ndarray) -> np.ndarray:
    return shard[0][rows]


def _arrow_rows(names: np.ndarray, W: np.ndarray) -> pa.Table:
    """(token, vector) rows, the vector column built from one offsets
    array."""
    n, dim = W.shape
    offsets = np.arange(0, (n + 1) * dim, dim, dtype=np.int32)
    return pa.table({
        "token": pa.array(names, pa.string()),
        "vector": pa.ListArray.from_arrays(offsets, W.ravel()),
    })


@ray.remote
def shard_table(names: np.ndarray, shard: tuple) -> pa.Table:
    return _arrow_rows(names, shard[0])


@ray.remote
def pick_buckets(need: np.ndarray, buckets: pa.Table) -> pa.Table:
    keep = np.isin(buckets["bucket"].to_numpy(), need)
    return buckets.filter(pa.array(keep))


@ray.remote
def write_shard(path: str, names: np.ndarray, shard: tuple) -> int:
    """Resumable per-shard embeddings sink: this shard's rows only."""
    import pyarrow.parquet as pq

    pq.write_table(
        _arrow_rows(names, shard[0]).rename_columns(["entity", "vector"]), path
    )
    return len(names)


class DistributedWord2Vec:
    """API-compatible with embedders.Word2Vec; trains with Ray tasks
    against vocab-sharded parameter objects."""

    # attributes holding lists of object refs, pickled by value
    _BY_VALUE = ("_shards",)

    def __init__(self, num_workers: int = 4, num_ps: int = 2, **kwargs):
        self.num_workers = num_workers
        self.num_ps = num_ps
        self.kwargs = {"min_count": 0, **kwargs}
        self._cfg = SGNS(**self.kwargs)
        self.vocab: np.ndarray | None = None      # sorted token array
        self.counts: np.ndarray | None = None
        self._shards: list | None = None

    def __getstate__(self):
        state = self.__dict__.copy()
        for k in self._BY_VALUE:
            if state[k] and isinstance(state[k][0], ray.ObjectRef):
                state[k] = ray.get(state[k])
        return state

    def _refs(self, name: str) -> list:
        """Attribute ``name``'s object refs; an unpickled model puts its
        values back into the object store on first use."""
        objs = getattr(self, name)
        if objs and not isinstance(objs[0], ray.ObjectRef):
            objs = [ray.put(o) for o in objs]
            setattr(self, name, objs)
        return objs

    # -- training ------------------------------------------------------------

    def _fit(self, parts: list[list], is_update: bool):
        """Train on ``parts[i]``, the `count_walks` input of split i.  An
        update re-fit of a trained model merges the vocabulary into the
        old one and warm-starts the carried rows (reference
        word2vec.py:37-52)."""
        cfg = self._cfg
        counted = [count_walks.remote(*p) for p in parts]
        partials = ray.get([c[0] for c in counted])
        vocab, counts = partials[0]
        for v, c in partials[1:]:
            vocab, counts = merge_vocab(vocab, counts, v, c)
        old = (None, [])
        if is_update and self._shards is not None:
            old = (ray.put(self.vocab), self._bounds, *self._refs("_shards"))
            vocab, counts = merge_vocab(self.vocab, self.counts, vocab, counts)
        self.vocab, self.counts = vocab, counts

        bounds = _shard_bounds(len(vocab), self.num_ps)
        vocab_ref = ray.put(vocab)
        shards = [
            init_shard.remote(lo, hi, cfg.vector_size, cfg.seed + 7000 + i,
                              vocab_ref, *old)
            for i, (lo, hi) in enumerate(bounds)
        ]
        table = ray.put(neg_table(counts, cfg.seed))
        corpora = [remap_corpus.remote(vocab_ref, *c) for c in counted]
        del counted   # the remap tasks hold the codes now

        scale = 1.0 / self.num_workers
        P = self.num_ps
        for epoch, lr in enumerate(cfg.schedule()):
            deltas = [
                train_split.options(num_returns=P).remote(
                    self.kwargs, cfg.seed + 1000 + i, epoch, lr, bounds,
                    corpus, table, *shards)
                for i, corpus in enumerate(corpora)
            ]
            if P == 1:
                deltas = [[d] for d in deltas]
            # rebinding drops the previous epoch's refs: Ray frees that
            # generation once these apply tasks have read it
            shards = [
                apply_deltas.remote(lo, scale, shards[s],
                                    *[d[s] for d in deltas])
                for s, (lo, _) in enumerate(bounds)
            ]
        # trained when fit returns, but nothing is fetched: a failed
        # task raises where the shards are first read
        ray.wait(shards, num_returns=P, fetch_local=False)
        self._shards = shards
        self._bounds = bounds
        return self

    def fit(self, walks, is_update: bool = False) -> "DistributedWord2Vec":
        """List-of-walks API (reference embedder contract): split i gets
        every num_workers-th walk."""
        sentences = [list(w) for ew in walks for w in ew]
        return self._fit([[sentences[i :: self.num_workers]]
                          for i in range(self.num_workers)], is_update)

    def fit_dataset(self, walks_ds, is_update: bool = False) -> "DistributedWord2Vec":
        """Dataset API: the corpus never lands on the driver — split i
        is counted from its Arrow block refs, with no vocabulary
        exchange."""
        # equal=True would silently DROP rows when the corpus size is not
        # divisible by num_workers; the epoch tasks tolerate uneven splits.
        splits = walks_ds.split(self.num_workers, equal=False)
        return self._fit([sp.to_arrow_refs() for sp in splits], is_update)

    # -- output --------------------------------------------------------------

    def _pull_vectors(self, entities: list[str]) -> list[np.ndarray]:
        ids = lookup(self.vocab, entities)
        shards = self._refs("_shards")
        shard = np.searchsorted([hi for _, hi in self._bounds], ids,
                                side="right")
        owners = np.unique(shard)
        rows = ray.get([
            shard_rows.remote(shards[s], ids[shard == s] - self._bounds[s][0])
            for s in owners
        ])
        out = np.empty((len(ids), self._cfg.vector_size), dtype=np.float32)
        for s, mat in zip(owners, rows):
            out[shard == s] = mat
        return list(out)

    def __contains__(self, token: str) -> bool:
        return self.vocab is not None and lookup(self.vocab, [token])[0] >= 0

    def transform(self, entities: list[str]) -> list[np.ndarray]:
        if self.vocab is None or (lookup(self.vocab, entities) < 0).any():
            raise ValueError(
                "The entities must have been provided to fit() first "
                "before they can be transformed into a numerical vector."
            )
        return self._pull_vectors(entities)

    def write_parquet(self, out_dir: str) -> int:
        """Per-shard embeddings sink: one task per shard writes its rows
        (no driver collect); returns total rows written."""
        import os

        os.makedirs(out_dir, exist_ok=True)
        shards = self._refs("_shards")
        return int(sum(ray.get([
            write_shard.remote(os.path.join(out_dir, f"shard-{s:04d}.parquet"),
                               self.vocab[lo:hi], shards[s])
            for s, (lo, hi) in enumerate(self._bounds)
        ])))


class DistributedFastText(DistributedWord2Vec):
    """FastText on the sharded-parameter topology (reference
    embedders/fasttext.py:130-156; completes the north_star
    "parameter-server embedder" story for the subword variant).

    Word vectors train exactly like :class:`DistributedWord2Vec`.  The
    ngram-bucket matrix — bucket vector = mean of the word vectors whose
    subwords FNV-1a-hash to it — is computed DISTRIBUTED: one task per
    parameter shard turns its rows into a (token, vector) block of a
    Dataset (``from_arrow_refs``, never a driver collect), tokens fan
    out to one row per (bucket, vector), and ONE bucket shuffle reduces
    the means, so the 2M-bucket × dim matrix never lives on any single
    process.
    Group rows are summed in sorted-token order, so bucket vectors are
    deterministic under any partitioning (pairwise float32 summation,
    the same sum `embedders.FastText` takes in process).  OOV
    ``transform`` pulls ONLY the buckets the requested entities hash to
    (one filter task per bucket block, bounded by #entities × ngrams)."""

    _BY_VALUE = ("_shards", "_buckets")

    def __init__(self, bucket: int = 2_000_000, func_computing_ngrams=None,
                 num_workers: int = 4, num_ps: int = 2, **kwargs):
        kwargs.setdefault("vector_size", 500)
        super().__init__(num_workers=num_workers, num_ps=num_ps, **kwargs)
        self.bucket = bucket
        self.func_computing_ngrams = func_computing_ngrams or compute_ngrams_bytes
        self._buckets: list | None = None   # Arrow (bucket, vector) blocks

    ft_ngram_hashes = FastText.ft_ngram_hashes

    # -- bucket matrix --------------------------------------------------------

    def _vectors_dataset(self):
        """Trained (token, vector) rows as a Dataset, one Arrow block
        per parameter shard — parameters stream object store→tasks."""
        import ray.data

        shards = self._refs("_shards")
        return ray.data.from_arrow_refs([
            shard_table.remote(self.vocab[lo:hi], shards[s])
            for s, (lo, hi) in enumerate(self._bounds)
        ])

    def _fit_buckets(self):
        import pandas as pd

        from pyrdf2vec_ray import shuffle

        B = self.bucket
        fn_ngrams = self.func_computing_ngrams

        def fanout(batch: pa.Table) -> pa.Table:
            toks = batch["token"].to_pylist()
            idx, buckets = [], []
            for i, t in enumerate(toks):
                for n in fn_ngrams(t, 0, 0):
                    idx.append(i)
                    buckets.append(ft_hash_bytes(n) % B)
            taken = batch.take(pa.array(idx, pa.int64()))
            return pa.table({
                "bkt": pa.array(buckets, pa.int64()),
                "token": taken["token"],
                "vector": taken["vector"],
            })

        def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["bkt", "token"], kind="stable")
            out_b, out_v = [], []
            for b, sub in g.groupby("bkt", sort=False):
                M = np.stack(sub["vector"].to_numpy())
                out_b.append(int(b))
                out_v.append((M.sum(axis=0) / len(M)).astype(np.float32)
                             .tolist())
            return pd.DataFrame({"bkt": out_b, "vector": out_v})

        def to_arrow(batch: pd.DataFrame) -> pa.Table:
            return pa.table({
                "bucket": pa.array(batch["bkt"].tolist(), pa.int64()),
                "vector": pa.array(batch["vector"].tolist(),
                                   pa.list_(pa.float32())),
            })

        buckets = (
            shuffle.bucket_apply(
                self._vectors_dataset().map_batches(
                    fanout, batch_format="pyarrow"
                ),
                ["bkt"], per_bucket, batch_format="pandas",
            )
            .map_batches(to_arrow, batch_format="pandas")
            .materialize()
        )
        # the bucket exchange leaves empty, schema-less blocks: keep the rest
        self._buckets = [ref for bundle in buckets.iter_internal_ref_bundles()
                         for ref, meta in bundle.blocks if meta.num_rows]

    def fit(self, walks, is_update: bool = False) -> "DistributedFastText":
        super().fit(walks, is_update)
        self._fit_buckets()
        return self

    def fit_dataset(self, walks_ds, is_update: bool = False) -> "DistributedFastText":
        super().fit_dataset(walks_ds, is_update)
        self._fit_buckets()
        return self

    # -- lookup ---------------------------------------------------------------

    def _lookup_buckets(self, needed: set) -> dict:
        """Fetch ONLY the requested buckets' vectors (a semi-filter per
        bucket block — result bounded by |needed|)."""
        if not needed or not self._buckets:
            return {}
        need = np.array(sorted(int(h) for h in needed), dtype=np.int64)
        out: dict[int, np.ndarray] = {}
        for t in ray.get([pick_buckets.remote(need, b)
                          for b in self._refs("_buckets")]):
            for b, v in zip(t["bucket"].to_pylist(), t["vector"].to_pylist()):
                out[int(b)] = np.asarray(v, dtype=np.float32)
        return out

    def get_vector(self, entity: str) -> np.ndarray:
        return self.transform([entity])[0]

    def transform(self, entities: list[str]) -> list[np.ndarray]:
        """In-vocab → parameter shard rows; OOV → mean of its ngram-bucket
        vectors (fasttext.py:130-156 semantics)."""
        invocab = [e for e in entities if e in self]
        pulled = dict(zip(invocab, self._pull_vectors(invocab))) \
            if invocab else {}
        oov = [e for e in entities if e not in pulled]
        bucket_vecs = self._lookup_buckets(
            {h for e in oov for h in self.ft_ngram_hashes(e)}
        ) if oov else {}
        dim = self._cfg.vector_size
        return [
            pulled[e] if e in pulled
            else mean_of_buckets(self.ft_ngram_hashes(e), bucket_vecs, dim)
            for e in entities
        ]
