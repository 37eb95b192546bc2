"""Distributed Word2Vec on vocab-sharded parameter-server actors
(north_star: "fits Word2Vec skip-gram embeddings on parameter-server
actors").

Topology (the round-1 version was driver-averaged synchronous SGD with
the FULL corpus on the driver and FULL W/C matrices shipped to every
actor every epoch — neither survives corpus- or vocab-scale):

- **Vocabulary** is a grouped count over the exploded walks Dataset
  (SURVEY.md A11, one bucket shuffle); the sorted token array + counts
  are the only vocab-scale driver state (= the model's key index, which
  any embedder API must hold anyway).
- **Parameters** live on ``num_ps`` ParamShard actors, each owning a
  contiguous row range of W and C.  No actor ever holds the full
  matrices.
- **Corpus** is split block-wise across ``num_workers`` trainer actors
  (``Dataset.split`` — object-store refs, never a driver list).  Each
  trainer tokenizes its shard once (searchsorted against the broadcast
  vocab) in its own heap.
- **Epoch** = each trainer runs the epoch pair stream of
  `embedders.TokenCorpus` twice: once to flag the parameter rows it
  will touch, which it PULLS from the owning shards, and once to train
  them locally with `embedders.SGNS.train_epoch`.  It returns SPARSE
  per-shard deltas; the driver forwards the delta refs (no driver
  deserialization) and every shard applies them in fixed trainer order,
  scaled 1/num_workers.  Synchronous + ordered ⇒ runs are deterministic
  for a fixed (seed, num_workers, num_ps).

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


@ray.remote
class ParamShard:
    """Owns rows [lo, hi) of W and C."""

    def __init__(self, lo: int, hi: int, dim: int, seed: int):
        self.lo = lo
        self.W, self.C = init_rows(hi - lo, dim, seed)

    def pull(self, global_ids: np.ndarray):
        ids = np.asarray(global_ids, dtype=np.int64) - self.lo
        return self.W[ids], self.C[ids]

    def apply(self, shard_idx: int, delta_refs: list, scale: float):
        """Apply every trainer's sparse delta for THIS shard, in trainer
        order (deterministic), averaged across trainers.  ``delta_refs``
        are ObjectRefs — the driver forwards them unresolved, so delta
        payloads move worker→shard through the object store only."""
        for ref in delta_refs:
            d = ray.get(ref)
            if d is None:
                continue
            per = d["ids"].get(shard_idx)
            if per is None:
                continue
            gids, dW, dC = per
            lids = np.asarray(gids, dtype=np.int64) - self.lo
            np.add.at(self.W, lids, dW * scale)
            np.add.at(self.C, lids, dC * scale)
        return True

    def rows(self, global_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(global_ids, dtype=np.int64) - self.lo
        return self.W[ids]

    def warm_init(self, old_ps: list, old_bounds: list, old_vocab: np.ndarray,
                  my_vocab: np.ndarray) -> int:
        """Online-update warm start (reference word2vec.py:37-52
        ``build_vocab(update=True)`` keeps trained rows): overwrite this
        shard's rows for tokens that existed in the previous model by
        pulling them from the OLD shard actors — parameters move
        shard→shard through the object store, never via the driver."""
        local_rows, gids = carried_rows(old_vocab, np.asarray(my_vocab))
        for s, (lo, hi) in enumerate(old_bounds):
            m = (gids >= lo) & (gids < hi)
            if not m.any():
                continue
            Ws, Cs = ray.get(old_ps[s].pull.remote(gids[m]))
            self.W[local_rows[m]] = Ws
            self.C[local_rows[m]] = Cs
        return len(gids)

    def arrow_rows(self, names: np.ndarray):
        """This shard's (token, vector) rows as one Arrow table — the
        building block for streaming the trained matrix OUT as a
        Dataset (``from_arrow_refs``) without a driver collect."""
        import pyarrow as pa

        return pa.table(
            {"token": pa.array([str(n) for n in names], pa.string()),
             "vector": pa.array([r.tolist() for r in self.W],
                                pa.list_(pa.float32()))}
        )

    def write_parquet(self, path: str, names: np.ndarray) -> int:
        """Resumable per-shard embeddings sink: this shard's rows only."""
        import pyarrow.parquet as pq

        pq.write_table(
            self.arrow_rows(names).rename_columns(["entity", "vector"]), path
        )
        return len(names)


def vocab_from_dataset(walks_ds) -> tuple[np.ndarray, np.ndarray]:
    """Sorted vocabulary + counts of an exploded walks Dataset by a
    distributed token count (one bucket shuffle); only the vocabulary
    reaches the driver."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from pyrdf2vec_ray.shuffle import bucket_count
    from pyrdf2vec_ray.util import to_table

    def tokens(batch: pa.Table) -> pa.Table:
        return pa.table({"token": pc.list_flatten(batch["walk"].combine_chunks())})

    t = to_table(
        bucket_count(
            walks_ds.map_batches(tokens, batch_format="pyarrow"),
            ["token"], "n",
        )
    )
    names = np.asarray(t["token"].to_numpy(zero_copy_only=False)).astype(np.str_)
    cnt = t["n"].to_numpy().astype(np.float64)
    order = np.argsort(names)
    return names[order], cnt[order]


def _shard_bounds(vocab_size: int, num_ps: int) -> list[tuple[int, int]]:
    step = (vocab_size + num_ps - 1) // num_ps
    return [(i * step, min((i + 1) * step, vocab_size)) for i in range(num_ps)]


@ray.remote
class PSTrainer:
    """One corpus shard; pulls touched rows per epoch, pushes sparse
    deltas."""

    def __init__(self, vocab, cfg: dict, seed: int, bounds: list):
        # the driver passes an ObjectRef; Ray resolves top-level args, so
        # the sorted U-array arrives zero-copy from the object store
        self.vocab: np.ndarray = vocab
        self.cfg = cfg
        self.seed = seed
        self.bounds = bounds
        self.corpus = TokenCorpus()
        self.neg_table = None

    def add_sentences(self, walks: list[list[str]]):
        tokens, lens = sentence_arrays(walks)
        return self.corpus.add(token_ids(self.vocab, tokens), lens)

    def add_dataset_split(self, split_ds):
        for batch in split_ds.iter_batches(batch_format="pyarrow",
                                           batch_size=1 << 14):
            tokens, lens = walk_arrays(batch["walk"])
            self.corpus.add(token_ids(self.vocab, tokens), lens)
        return self.corpus.n_sentences

    def set_neg_table(self, table):
        self.neg_table = table

    def train_epoch(self, epoch: int, lr: float, ps_handles: list):
        model = SGNS(**self.cfg)
        # pass 1: touched-row flags only — the pair stream is REPLAYED in
        # pass 2 (expansion is ~0.3 s/1.5M tokens warm; rebuilding beats
        # holding corpus-scale pair buffers, see TokenCorpus.epoch_chunks)
        V = len(self.vocab)
        flag = np.zeros(V, dtype=bool)
        n_pairs = 0
        for centers, ctxs, negs in self.corpus.epoch_chunks(
            self.seed, epoch, model.window, model.negative, self.neg_table
        ):
            flag[centers] = True
            flag[ctxs] = True
            flag[negs.ravel()] = True
            n_pairs += len(ctxs)
        if not n_pairs:
            return None
        used = np.flatnonzero(flag)

        # pull only the touched rows, from the owning shards, in parallel
        by_shard = []
        for s, (lo, hi) in enumerate(self.bounds):
            ids_s = used[(used >= lo) & (used < hi)]
            by_shard.append(ids_s)
        pulls = ray.get([
            ps_handles[s].pull.remote(ids_s)
            for s, ids_s in enumerate(by_shard)
        ])
        dim = model.vector_size
        W_local = np.zeros((len(used), dim), dtype=np.float32)
        C_local = np.zeros((len(used), dim), dtype=np.float32)
        offset = 0
        for (ids_s, (Ws, Cs)) in zip(by_shard, pulls):
            W_local[offset : offset + len(ids_s)] = Ws
            C_local[offset : offset + len(ids_s)] = Cs
            offset += len(ids_s)
        # `used` is sorted and by_shard concatenation preserves that order
        W0, C0 = W_local.copy(), C_local.copy()

        # pass 2: replay the pair stream on the compact local rows
        model.W, model.C = W_local, C_local
        inv = np.empty(V, dtype=np.int64)
        inv[used] = np.arange(len(used))
        model.train_epoch(self.corpus, self.seed, epoch, lr, self.neg_table,
                          remap=inv)

        dW, dC = model.W - W0, model.C - C0
        out = {"ids": {}}
        offset = 0
        for s, ids_s in enumerate(by_shard):
            sl = slice(offset, offset + len(ids_s))
            if len(ids_s):
                out["ids"][s] = (ids_s, dW[sl], dC[sl])
            offset += len(ids_s)
        return out


class DistributedWord2Vec:
    """API-compatible with embedders.Word2Vec; trains on trainer actors
    against vocab-sharded parameter servers."""

    def __init__(self, num_workers: int = 4, num_ps: int = 2, **kwargs):
        self.num_workers = num_workers
        self.num_ps = num_ps
        self.kwargs = {"min_count": 0, **kwargs}
        self._cfg = SGNS(**self.kwargs)
        self.vocab: np.ndarray | None = None      # sorted token array
        self.counts: np.ndarray | None = None
        self._ps: list | None = None

    def _set_vocab(self, vocab: np.ndarray, counts: np.ndarray,
                   is_update: bool):
        """Install a counted vocabulary.  An update re-fit of a trained
        model merges it into the old one and returns the old model's
        (shards, bounds, vocab) for the warm start; otherwise None."""
        warm = None
        if is_update and self._ps is not None:
            warm = (self._ps, self._bounds, self.vocab)
            vocab, counts = merge_vocab(self.vocab, self.counts, vocab, counts)
        self.vocab, self.counts = vocab, counts
        return warm

    # -- training ------------------------------------------------------------

    def _train(self, feed_trainers, warm=None):
        cfg = self._cfg
        dim = cfg.vector_size
        bounds = _shard_bounds(len(self.vocab), self.num_ps)
        ps = [
            ParamShard.remote(lo, hi, dim, seed=cfg.seed + 7000 + i)
            for i, (lo, hi) in enumerate(bounds)
        ]
        if warm is not None:
            old_ps, old_bounds, old_vocab = warm
            old_vocab_ref = ray.put(old_vocab)
            ray.get([
                p.warm_init.remote(old_ps, old_bounds, old_vocab_ref,
                                   self.vocab[lo:hi])
                for p, (lo, hi) in zip(ps, bounds)
            ])
            for p in old_ps:
                ray.kill(p)
        vocab_ref = ray.put(self.vocab)
        trainers = [
            PSTrainer.remote(vocab_ref, self.kwargs, seed=cfg.seed + 1000 + i,
                             bounds=bounds)
            for i in range(self.num_workers)
        ]
        feed_trainers(trainers)
        neg_ref = ray.put(neg_table(self.counts, cfg.seed))
        ray.get([t.set_neg_table.remote(neg_ref) for t in trainers])

        scale = 1.0 / self.num_workers
        for epoch, lr in enumerate(cfg.schedule()):
            delta_refs = [
                t.train_epoch.remote(epoch, lr, ps) for t in trainers
            ]
            # barrier BEFORE apply (fetch_local=False: deltas stay in the
            # object store).  apply blocks its PS actor on the delta refs,
            # and trainers block on pulls from the PS actors — applying
            # before all trainers finished would deadlock the two pools.
            ray.wait(delta_refs, num_returns=len(delta_refs),
                     fetch_local=False)
            # forward the REFS to every shard (nested refs stay unresolved
            # — the driver never deserializes a delta)
            ray.get([
                p.apply.remote(s, delta_refs, scale) for s, p in enumerate(ps)
            ])
        for t in trainers:
            ray.kill(t)
        self._ps = ps
        self._bounds = bounds

    def fit(self, walks, is_update: bool = False) -> "DistributedWord2Vec":
        """List-of-walks API (reference embedder contract).  With
        ``is_update=True`` after a prior fit, old vocabulary rows
        warm-start the new shards (reference word2vec.py:37-52)."""
        sentences = [list(w) for ew in walks for w in ew]
        warm = self._set_vocab(*build_vocab(sentence_arrays(sentences)[0]),
                               is_update)

        def feed(trainers):
            shards = [sentences[i :: self.num_workers]
                      for i in range(self.num_workers)]
            ray.get([
                t.add_sentences.remote(sh) for t, sh in zip(trainers, shards)
            ])

        self._train(feed, warm=warm)
        return self

    def fit_dataset(self, walks_ds, is_update: bool = False) -> "DistributedWord2Vec":
        """Dataset API: the corpus never lands on the driver — vocab by
        grouped count, block splits feed the trainers directly."""
        warm = self._set_vocab(*vocab_from_dataset(walks_ds), is_update)
        # equal=True would silently DROP rows when the corpus size is not
        # divisible by num_workers; trainers tolerate uneven shards.
        splits = walks_ds.split(self.num_workers, equal=False)

        def feed(trainers):
            ray.get([
                t.add_dataset_split.remote(sp)
                for t, sp in zip(trainers, splits)
            ])

        self._train(feed, warm=warm)
        return self

    # -- output --------------------------------------------------------------

    def _pull_vectors(self, entities: list[str]) -> list[np.ndarray]:
        ids = lookup(self.vocab, entities)
        shard = np.searchsorted([hi for _, hi in self._bounds], ids,
                                side="right")
        owners = np.unique(shard)
        rows = ray.get([self._ps[s].rows.remote(ids[shard == s])
                        for s in owners])
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
        """Per-shard embeddings sink: each ParamShard writes its own rows
        (no driver collect); returns total rows written."""
        import os

        os.makedirs(out_dir, exist_ok=True)
        futures = []
        for s, ((lo, hi), p) in enumerate(zip(self._bounds, self._ps)):
            futures.append(
                p.write_parquet.remote(
                    os.path.join(out_dir, f"shard-{s:04d}.parquet"),
                    self.vocab[lo:hi],
                )
            )
        return int(sum(ray.get(futures)))


class DistributedFastText(DistributedWord2Vec):
    """FastText on the parameter-server topology (reference
    embedders/fasttext.py:130-156; completes the north_star
    "parameter-server embedder" story for the subword variant).

    Word vectors train exactly like :class:`DistributedWord2Vec`.  The
    ngram-bucket matrix — bucket vector = mean of the word vectors whose
    subwords FNV-1a-hash to it — is computed DISTRIBUTED: each
    ParamShard streams its rows out as a (token, vector) Dataset
    (``from_arrow_refs``, never a driver collect), tokens fan out to one
    row per (bucket, vector), and ONE bucket shuffle reduces the means,
    so the 2M-bucket × dim matrix never lives on any single process.
    Group rows are summed in sorted-token order, so bucket vectors are
    deterministic under any partitioning (pairwise float32 summation,
    the same sum `embedders.FastText` takes in process).  OOV
    ``transform`` pulls ONLY the buckets the requested entities hash to
    (a filter over the bucket Dataset, bounded by #entities × ngrams)."""

    def __init__(self, bucket: int = 2_000_000, func_computing_ngrams=None,
                 num_workers: int = 4, num_ps: int = 2, **kwargs):
        kwargs.setdefault("vector_size", 500)
        super().__init__(num_workers=num_workers, num_ps=num_ps, **kwargs)
        self.bucket = bucket
        self.func_computing_ngrams = func_computing_ngrams or compute_ngrams_bytes
        self._bucket_ds = None

    ft_ngram_hashes = FastText.ft_ngram_hashes

    # -- bucket matrix --------------------------------------------------------

    def _vectors_dataset(self):
        """Trained (token, vector) rows as a Dataset, one Arrow block
        per ParamShard — parameters stream shard→object store→tasks."""
        import ray.data

        refs = [
            p.arrow_rows.remote(self.vocab[lo:hi])
            for (lo, hi), p in zip(self._bounds, self._ps)
        ]
        return ray.data.from_arrow_refs(refs)

    def _fit_buckets(self):
        import pandas as pd
        import pyarrow as pa

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

        self._bucket_ds = (
            shuffle.bucket_apply(
                self._vectors_dataset().map_batches(
                    fanout, batch_format="pyarrow"
                ),
                ["bkt"], per_bucket, batch_format="pandas",
            )
            .map_batches(to_arrow, batch_format="pandas")
            .materialize()
        )

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
        """Fetch ONLY the requested buckets' vectors (semi-filter over
        the bucket Dataset — result bounded by |needed|)."""
        import pyarrow as pa

        if not needed or self._bucket_ds is None:
            return {}
        need = np.array(sorted(int(h) for h in needed), dtype=np.int64)

        def filt(batch: pa.Table) -> pa.Table:
            b = batch["bucket"].to_numpy()
            mask = np.isin(b, need)
            return batch.filter(pa.array(mask))

        out: dict[int, np.ndarray] = {}
        for t in self._bucket_ds.map_batches(
            filt, batch_format="pyarrow"
        ).iter_batches(batch_format="pyarrow"):
            for b, v in zip(t["bucket"].to_pylist(), t["vector"].to_pylist()):
                out[int(b)] = np.asarray(v, dtype=np.float32)
        return out

    def get_vector(self, entity: str) -> np.ndarray:
        return self.transform([entity])[0]

    def transform(self, entities: list[str]) -> list[np.ndarray]:
        """In-vocab → ParamShard rows; OOV → mean of its ngram-bucket
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
