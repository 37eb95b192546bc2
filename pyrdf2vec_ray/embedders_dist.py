"""Distributed Word2Vec on vocab-sharded parameter-server actors
(north_star: "fits Word2Vec skip-gram embeddings on parameter-server
actors").

Topology (the round-1 version was driver-averaged synchronous SGD with
the FULL corpus on the driver and FULL W/C matrices shipped to every
actor every epoch — neither survives corpus- or vocab-scale):

- **Corpus** is split block-wise across ``num_workers`` trainer actors
  (``Dataset.split``).  Split i's Arrow block refs (object-store refs,
  never a driver list) go to one `count_walks` task, which reads them
  once: one sorted factorize gives both the split's token codes and its
  partial vocabulary.  It runs in a pooled worker while the actor
  processes start; trainers receive int64 codes and never run Ray Data.
- **Vocabulary**: the driver receives at most ``num_workers`` partial
  vocabularies (sorted tokens + counts) and folds them with
  `embedders.merge_vocab`; there is no vocabulary exchange.  The sorted
  token array + counts are the only vocab-scale driver state (= the
  model's key index, which any embedder API must hold anyway).  Each
  trainer gets the vocabulary, the shard bounds and the negative table
  in one message and remaps its codes with one searchsorted over its
  partial vocabulary.
- **Parameters** live on ``num_ps`` ParamShard actors, each owning a
  contiguous row range of W and C.  No actor ever holds the full
  matrices.  They are created with the trainers, so both start while
  the corpus is counted, and get their rows once the bounds are known.
- **Epoch** = each trainer runs the epoch pair stream of
  `embedders.TokenCorpus` twice: once to flag the parameter rows it
  will touch, which it PULLS from the owning shards, and once to train
  them locally with `embedders.SGNS.train_epoch`.  It returns one
  SPARSE delta object per parameter shard; the driver forwards shard
  s only its own refs (no driver deserialization) and every shard
  applies them in fixed trainer order, scaled 1/num_workers.
  Synchronous + ordered ⇒ runs are deterministic for a fixed (seed,
  num_workers, num_ps).

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


@ray.remote
class ParamShard:
    """Owns rows [lo, hi) of W and C once `init` has run."""

    def init(self, lo: int, hi: int, dim: int, seed: int):
        self.lo = lo
        self.W, self.C = init_rows(hi - lo, dim, seed)

    def pull(self, global_ids: np.ndarray):
        ids = np.asarray(global_ids, dtype=np.int64) - self.lo
        return self.W[ids], self.C[ids]

    def apply(self, scale: float, *deltas):
        """Apply every trainer's sparse delta for THIS shard, in trainer
        order (deterministic), averaged across trainers.  Each delta is
        a trainer's return for this shard alone, ``(ids, dW, dC)`` or
        None; the driver passes the refs as top-level arguments, so the
        payloads move worker→shard through the object store only."""
        for d in deltas:
            if d is None:
                continue
            gids, dW, dC = d
            lids = gids - self.lo
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

    def arrow_rows(self, names: np.ndarray) -> pa.Table:
        """This shard's (token, vector) rows as one Arrow table — the
        building block for streaming the trained matrix OUT as a
        Dataset (``from_arrow_refs``) without a driver collect."""
        n, dim = self.W.shape
        offsets = np.arange(0, (n + 1) * dim, dim, dtype=np.int32)
        return pa.table({
            "token": pa.array(names, pa.string()),
            "vector": pa.ListArray.from_arrays(offsets, self.W.ravel()),
        })

    def write_parquet(self, path: str, names: np.ndarray) -> int:
        """Resumable per-shard embeddings sink: this shard's rows only."""
        import pyarrow.parquet as pq

        pq.write_table(
            self.arrow_rows(names).rename_columns(["entity", "vector"]), path
        )
        return len(names)


def _shard_bounds(vocab_size: int, num_ps: int) -> list[tuple[int, int]]:
    step = (vocab_size + num_ps - 1) // num_ps
    return [(min(i * step, vocab_size), min((i + 1) * step, vocab_size))
            for i in range(num_ps)]


@ray.remote(num_returns=2)
def count_walks(*parts):
    """One sorted factorize (`embedders.build_vocab`) over one trainer's
    share of the corpus: Arrow tables with a ``walk`` column (a
    Dataset split's blocks) or lists of token lists (`fit`).  Returns
    the partial vocabulary ``(sorted tokens, float64 counts)``, which
    goes to the driver, and ``(codes, lengths)``, which goes to the
    trainer.  A task, not a trainer method: Ray deserializes every
    Arrow table with a reducer that imports ``ray.data``, which pooled
    workers have loaded already and a fresh actor would pay for."""
    arrays = [walk_arrays(p["walk"]) if isinstance(p, pa.Table)
              else sentence_arrays(p) for p in parts] or [sentence_arrays([])]
    local, counts, codes = build_vocab(np.concatenate([a[0] for a in arrays]))
    return (local, counts), (codes, np.concatenate([a[1] for a in arrays]))


@ray.remote
class PSTrainer:
    """One corpus shard; pulls the rows it touches per epoch and pushes
    one sparse delta per parameter shard."""

    def __init__(self, cfg: dict, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.corpus = TokenCorpus()

    def set_corpus(self, vocab: np.ndarray, bounds: list, table: np.ndarray,
                   partial: tuple, coded: tuple):
        """Install the merged vocabulary and this shard's counted corpus,
        remapping its codes with one searchsorted over its partial
        vocabulary."""
        self.V = len(vocab)
        self.bounds = bounds
        self.neg_table = table
        codes, lens = coded
        return self.corpus.add(token_ids(vocab, partial[0])[codes], lens)

    def train_epoch(self, epoch: int, lr: float, ps_handles: list):
        """One epoch; returns one delta per parameter shard, ``(ids, dW,
        dC)`` or None, as ``num_returns=len(bounds)`` objects."""
        model = SGNS(**self.cfg)
        # pass 1: touched-row flags only — the pair stream is REPLAYED in
        # pass 2 (expansion is ~0.3 s/1.5M tokens warm; rebuilding beats
        # holding corpus-scale pair buffers, see TokenCorpus.epoch_chunks)
        flag = np.zeros(self.V, dtype=bool)
        n_pairs = 0
        for centers, ctxs, negs in self.corpus.epoch_chunks(
            self.seed, epoch, model.window, model.negative, self.neg_table
        ):
            flag[centers] = True
            flag[ctxs] = True
            flag[negs.ravel()] = True
            n_pairs += len(ctxs)
        if not n_pairs:
            return _per_shard([None] * len(self.bounds))
        used = np.flatnonzero(flag)

        # pull only the touched rows, from the owning shards, in parallel
        by_shard = [used[(used >= lo) & (used < hi)] for lo, hi in self.bounds]
        pulls = ray.get([
            ps_handles[s].pull.remote(ids_s)
            for s, ids_s in enumerate(by_shard)
        ])
        # `used` is sorted and by_shard concatenation preserves that order.
        # dtype= is not redundant: arrays unpickled from the object store
        # carry a float32 dtype object that is not numpy's singleton, and
        # np.add.at then leaves its indexed fast path (measured ~18x slower)
        W0 = np.concatenate([Ws for Ws, _ in pulls], dtype=np.float32)
        C0 = np.concatenate([Cs for _, Cs in pulls], dtype=np.float32)

        # pass 2: replay the pair stream on the compact local rows
        model.W, model.C = W0.copy(), C0.copy()
        inv = np.empty(self.V, dtype=np.int64)
        inv[used] = np.arange(len(used))
        model.train_epoch(self.corpus, self.seed, epoch, lr, self.neg_table,
                          remap=inv)

        dW, dC = model.W - W0, model.C - C0
        out, offset = [], 0
        for ids_s in by_shard:
            sl = slice(offset, offset + len(ids_s))
            out.append((ids_s, dW[sl], dC[sl]) if len(ids_s) else None)
            offset += len(ids_s)
        return _per_shard(out)


def _per_shard(deltas: list):
    """A task's ``num_returns=len(deltas)`` values: Ray wants a bare
    value for one return and a tuple for more."""
    return deltas[0] if len(deltas) == 1 else tuple(deltas)


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

    # -- training ------------------------------------------------------------

    def _fit(self, parts: list[list], is_update: bool):
        """Train on ``parts[i]``, the `count_walks` input of trainer i,
        counted while the actor processes start.  An update re-fit of a
        trained model merges the vocabulary into the old one and
        warm-starts the carried rows (reference word2vec.py:37-52)."""
        cfg = self._cfg
        trainers = [PSTrainer.remote(self.kwargs, seed=cfg.seed + 1000 + i)
                    for i in range(self.num_workers)]
        ps = [ParamShard.remote() for _ in range(self.num_ps)]
        counted = [count_walks.remote(*p) for p in parts]
        partials = ray.get([c[0] for c in counted])
        vocab, counts = partials[0]
        for v, c in partials[1:]:
            vocab, counts = merge_vocab(vocab, counts, v, c)
        warm = is_update and self._ps is not None
        if warm:
            old_ps, old_bounds, old_vocab = self._ps, self._bounds, self.vocab
            vocab, counts = merge_vocab(old_vocab, self.counts, vocab, counts)
        self.vocab, self.counts = vocab, counts

        bounds = _shard_bounds(len(vocab), self.num_ps)
        ray.get([
            p.init.remote(lo, hi, cfg.vector_size, cfg.seed + 7000 + i)
            for i, (p, (lo, hi)) in enumerate(zip(ps, bounds))
        ])
        if warm:
            old_vocab_ref = ray.put(old_vocab)
            ray.get([
                p.warm_init.remote(old_ps, old_bounds, old_vocab_ref,
                                   vocab[lo:hi])
                for p, (lo, hi) in zip(ps, bounds)
            ])
            for p in old_ps:
                ray.kill(p)
        vocab_ref = ray.put(vocab)
        neg_ref = ray.put(neg_table(counts, cfg.seed))
        ray.get([t.set_corpus.remote(vocab_ref, bounds, neg_ref, *c)
                 for t, c in zip(trainers, counted)])
        del counted   # the trainers hold the codes now: free the objects

        scale = 1.0 / self.num_workers
        P = self.num_ps
        for epoch, lr in enumerate(cfg.schedule()):
            deltas = [
                t.train_epoch.options(num_returns=P).remote(epoch, lr, ps)
                for t in trainers
            ]
            if P == 1:
                deltas = [[d] for d in deltas]
            # Ray resolves the top-level refs before apply runs, so shard
            # s receives only its own rows, and never blocks on a trainer
            # that is still pulling from it
            ray.get([
                p.apply.remote(scale, *[d[s] for d in deltas])
                for s, p in enumerate(ps)
            ])
        for t in trainers:
            ray.kill(t)
        self._ps = ps
        self._bounds = bounds
        return self

    def fit(self, walks, is_update: bool = False) -> "DistributedWord2Vec":
        """List-of-walks API (reference embedder contract): trainer i
        gets every num_workers-th walk."""
        sentences = [list(w) for ew in walks for w in ew]
        return self._fit([[sentences[i :: self.num_workers]]
                          for i in range(self.num_workers)], is_update)

    def fit_dataset(self, walks_ds, is_update: bool = False) -> "DistributedWord2Vec":
        """Dataset API: the corpus never lands on the driver — trainer
        i's split is counted from its Arrow block refs, with no Ray
        Data job and no vocabulary exchange."""
        # equal=True would silently DROP rows when the corpus size is not
        # divisible by num_workers; trainers tolerate uneven shards.
        splits = walks_ds.split(self.num_workers, equal=False)
        return self._fit([sp.to_arrow_refs() for sp in splits], is_update)

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
