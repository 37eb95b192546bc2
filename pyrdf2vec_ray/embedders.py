"""Embedders: skip-gram-negative-sampling Word2Vec + the FastText variant.

The reference wraps gensim (embedders/word2vec.py:29-58,
embedders/fasttext.py) — gensim is not available here, so training is a
from-scratch numpy SGNS implementation with the same contract:

- ``fit(walks, is_update)`` consumes the corpus (list of per-entity walk
  lists, flattened like word2vec.py:51) with ``min_count=0`` vocabulary;
  ``is_update=True`` merges the new tokens into the vocabulary and keeps
  the trained rows of the old ones (word2vec.py:37-52).
- ``transform(entities)`` raises ValueError for unseen entities with the
  reference's message (word2vec.py:71-76).

One trainer class per model.  `Word2Vec` (and `FastText`, which adds the
subword buckets) trains with Ray tasks over vocab-sharded parameter
objects: every step runs in a pooled worker and no actor is started.
``num_workers`` corpus splits train against ``num_ps`` parameter shards,
one and one by default; `embedders_dist` names the same classes with
four splits and two shards.

- **Corpus**: split i (every num_workers-th walk of `fit`, or the i-th
  contiguous run of the corpus's Arrow block refs in `fit_dataset`,
  never a driver list) goes to one `count_walks` task, which reads it
  once: one sorted factorize gives both the split's token codes and its
  partial vocabulary.
- **Vocabulary**: the driver folds at most ``num_workers`` partial
  vocabularies with `merge_vocab`; there is no vocabulary exchange.  The
  sorted token array + counts are the only vocab-scale driver state (=
  the model's key index, which any embedder API must hold anyway).  One
  `remap_corpus` task per split maps its codes to the merged vocabulary,
  once; the split's `TokenCorpus` stays in the object store.
- **Parameters** are ``num_ps`` shard objects ``(W_s, C_s)``, rows
  [lo, hi) of W and C, which the model holds as object refs; no process
  ever holds the full matrices.  `init_shard` creates each one (an update
  fit also copies the carried rows out of the old shards).
- **Epoch** = one `train_split` task per split.  It runs the epoch pair
  stream of `TokenCorpus` twice: once to flag the parameter rows it will
  touch, which it copies out of the shards, and once to train them
  locally with `SGNS.train_epoch`.  It returns one SPARSE delta per shard
  (``num_returns=num_ps``), and one `apply_deltas` task per shard adds
  them in fixed trainer order, scaled 1/num_workers, into the next shard
  object.  Every ref a task reads is a top-level argument, which Ray
  resolves before the task runs: no task calls ``ray.get``.  Synchronous
  + ordered ⇒ runs are deterministic for a fixed (seed, num_workers,
  num_ps).  More workers split the corpus and average their deltas,
  which changes the vectors (the reference has the same caveat for gensim
  workers>1, README.rst:466-498).
- **Pickling**: the model pickles its shard objects by value and puts
  them back into the object store when first used, so a saved
  ``RDF2VecTransformer`` loads in any Ray session.

The SGNS pieces the tasks run: the sorted vocabulary (`build_vocab`,
`merge_vocab`, `carried_rows`), the negative table (`neg_table`), the
seeded initialisation (`init_rows`), the learning-rate schedule
(`SGNS.schedule`), the epoch pair stream (`TokenCorpus.epoch_chunks`)
and the mini-batched update (`SGNS.train_epoch` → `SGNS._chunk_update`).

FastText subwords follow the reference exactly: IRI → split on '#' →
whole-fragment "ngrams", pure-Python FNV-1a (unmasked, as in
fasttext.py:203-214) mod `bucket`; OOV vector = mean of ngram-bucket
vectors (fasttext.py:130-156).  No bucket matrix is built: one task per
trained shard hashes its tokens, and an OOV lookup reads the rows of the
buckets it needs from the shards (see `FastText`).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

import ray


# -- vocabulary ----------------------------------------------------------------

def sentence_arrays(sentences) -> tuple[np.ndarray, np.ndarray]:
    """Token lists → (flat object array of tokens, int64 lengths)."""
    tokens = np.array([t for s in sentences for t in s], dtype=object)
    lens = np.fromiter((len(s) for s in sentences), np.int64, len(sentences))
    return tokens, lens


def walk_arrays(col) -> tuple[np.ndarray, np.ndarray]:
    """An Arrow ``list<string>`` walk column → (flat tokens, lengths)."""
    import pyarrow.compute as pc

    col = col.combine_chunks()
    lens = pc.list_value_length(col).to_numpy().astype(np.int64)
    return pc.list_flatten(col).to_numpy(zero_copy_only=False), lens


def build_vocab(tokens: np.ndarray):
    """Sorted distinct tokens, their float64 occurrence counts and each
    token's row in that vocabulary (int64 codes)."""
    import pandas as pd

    codes, uniq = pd.factorize(tokens, sort=True)
    cnt = np.bincount(codes, minlength=len(uniq)) if len(uniq) else np.array([])
    return (np.asarray(uniq).astype(np.str_), cnt.astype(np.float64),
            codes.astype(np.int64))


def merge_vocab(old_vocab, old_counts, vocab, counts):
    """build_vocab(update=True) semantics: union the token sets, sum
    occurrence counts on overlap (reference word2vec.py:37-52)."""
    merged = np.union1d(old_vocab, vocab).astype(np.str_)
    out = np.zeros(len(merged), dtype=np.float64)
    out[np.searchsorted(merged, old_vocab.astype(merged.dtype))] += old_counts
    out[np.searchsorted(merged, vocab.astype(merged.dtype))] += counts
    return merged, out


def carried_rows(old_vocab: np.ndarray, vocab: np.ndarray):
    """Warm start of an update fit: the rows of ``vocab`` whose token was
    in ``old_vocab``, and that token's row in the old model."""
    idx = np.searchsorted(old_vocab, vocab.astype(old_vocab.dtype))
    idx_cl = np.clip(idx, 0, max(0, len(old_vocab) - 1))
    hit = (idx < len(old_vocab)) & (old_vocab[idx_cl] == vocab)
    return np.nonzero(hit)[0], idx_cl[hit].astype(np.int64)


def lookup(vocab: np.ndarray, tokens) -> np.ndarray:
    """Rows of ``tokens`` in the sorted ``vocab``; -1 where absent."""
    toks = np.asarray(tokens, dtype=str)
    if not len(vocab):
        return np.full(len(toks), -1, np.int64)
    idx = np.clip(np.searchsorted(vocab, toks), 0, len(vocab) - 1)
    return np.where(vocab[idx] == toks, idx, -1).astype(np.int64)


def token_ids(vocab: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Rows of tokens known to be in ``vocab``."""
    return np.searchsorted(vocab, tokens.astype(vocab.dtype)).astype(np.int64)


@ray.remote
def neg_table(counts: np.ndarray, seed: int, size: int = 1 << 20) -> np.ndarray:
    """Unigram^0.75 negative-sampling table, built in a task: the 8 MiB
    table is written to the object store by a worker, never the driver
    (a driver put keeps its plasma pages in the driver's RSS)."""
    p = np.asarray(counts, dtype=np.float64) ** 0.75
    p /= p.sum()
    return np.random.RandomState(seed).choice(
        len(p), size=size, p=p
    ).astype(np.int64)


def init_rows(n: int, dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Initial W (uniform ±0.5/dim) and C (zeros) for ``n`` rows."""
    rng = np.random.RandomState(seed)
    W = (rng.rand(n, dim).astype(np.float32) - 0.5) / dim
    # np.full, not np.zeros: lazy zero pages are PATHOLOGICAL on this
    # class of microVM host — random-read page faults into an untouched
    # C measured 3 ms EACH (a 16k-pair gather stalled 3-7 s, the entire
    # epoch-0 slowdown in the bench); one eager sequential write makes
    # every later gather ~10 ms
    C = np.full((n, dim), 0.0, dtype=np.float32)
    return W, C


# -- corpus and the epoch pair stream -------------------------------------------

class TokenCorpus:
    """Sentences of token ids, kept as (ids, lengths) parts — one per
    ingest batch, not one array per sentence (np.concatenate over 300k
    5-element arrays alone cost seconds) — and served as one flat array.
    Sentences under two tokens have no pairs and are dropped."""

    def __init__(self):
        self._parts: list[tuple[np.ndarray, np.ndarray]] = []
        self.n_sentences = 0
        self._flat = None   # (ids, position in sentence, sentence length)

    def add(self, ids: np.ndarray, lens: np.ndarray) -> int:
        keep = lens > 1
        if not keep.all():
            ids, lens = ids[np.repeat(keep, lens)], lens[keep]
        if len(lens):
            self._parts.append((ids, lens))
            self.n_sentences += len(lens)
            self._flat = None
        return self.n_sentences

    def _arrays(self):
        if self._flat is None:
            lens = np.concatenate([p[1] for p in self._parts])
            flat = np.concatenate([p[0] for p in self._parts])
            self._parts = [(flat, lens)]
            starts = np.r_[0, np.cumsum(lens)[:-1]]
            self._flat = (flat, np.arange(len(flat)) - np.repeat(starts, lens),
                          np.repeat(lens, lens))
        return self._flat

    def epoch_chunks(self, seed: int, epoch: int, window: int, negative: int,
                     table: np.ndarray):
        """Generator of deterministic (centers, ctxs, negs) pair chunks.

        The expansion is vectorized over the CONCATENATED corpus (one
        offset-grid mask per chunk instead of a Python loop per
        sentence), and — critically for this microVM host — EVERY
        temporary stays bounded (~10-20 MB): first-touch page faults
        into fresh large mmaps cost 0.5-3 ms/page here, so one corpus-
        sized negatives buffer (190 MB at 1.5M tokens) alone burned ~25 s
        per epoch before this streaming form (measured; see BASELINE.md).
        Small buffers stay under glibc's adaptive mmap threshold and get
        reused across chunks.

        Determinism: a fresh RandomState(seed + epoch), consumed in
        fixed per-chunk order (gensim-style reduced windows, then that
        chunk's negatives); chunk boundaries are a constant, so the
        stream is reproducible run-to-run."""
        if not self._parts:
            return
        rng = np.random.RandomState(seed + epoch)
        flat, pos, slen = self._arrays()
        T = len(flat)
        offs = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
        CH = 1 << 17
        for lo in range(0, T, CH):
            hi = min(T, lo + CH)
            reduced = rng.randint(0, window, size=hi - lo)
            w = window - reduced
            grid = pos[lo:hi, None] + offs[None, :]
            valid = (
                (np.abs(offs)[None, :] <= w[:, None])
                & (grid >= 0) & (grid < slen[lo:hi, None])
            )
            m_per = valid.sum(1)
            centers = np.repeat(flat[lo:hi], m_per)
            ctxs = flat[(np.arange(lo, hi)[:, None] + offs[None, :])[valid]]
            if not len(ctxs):
                continue
            negs = table[
                rng.randint(0, len(table), size=len(ctxs) * negative)
            ].reshape(len(ctxs), negative)
            yield centers, ctxs, negs


# -- training ------------------------------------------------------------------

class SGNS:
    """Skip-gram negative-sampling hyper-parameters and the W/C matrices
    the update kernel trains (`train_split` sets them to its compact copy
    of the rows it touches)."""

    def __init__(self, vector_size=100, window=5, epochs=10, negative=5,
                 alpha=0.025, min_alpha=0.0001, seed=42, min_count=0):
        self.vector_size = vector_size
        self.window = window
        self.epochs = epochs
        self.negative = negative
        self.alpha = alpha
        self.min_alpha = min_alpha
        self.seed = seed
        self.min_count = min_count
        self.W: np.ndarray | None = None     # input vectors (the embeddings)
        self.C: np.ndarray | None = None     # output vectors

    def schedule(self) -> list[float]:
        """Per-epoch learning rate, decayed linearly over the epochs."""
        total = max(1, self.epochs)
        return [max(self.min_alpha, self.alpha * (1 - e / total))
                for e in range(total)]

    def train_epoch(self, corpus: TokenCorpus, seed: int, epoch: int,
                    lr: float, table: np.ndarray, remap=None):
        """One epoch of the pair stream, applied in 16k-pair sub-chunks.
        ``remap`` maps corpus ids to rows of W/C (`train_split`'s
        compact copy of the rows it touches)."""
        B = 16384
        for centers, ctxs, negs in corpus.epoch_chunks(
            seed, epoch, self.window, self.negative, table
        ):
            if remap is not None:
                centers, ctxs, negs = remap[centers], remap[ctxs], remap[negs]
            for i in range(0, len(ctxs), B):
                sl = slice(i, i + B)
                self._chunk_update(
                    centers[sl], ctxs[sl], negs[sl],
                    np.full(min(B, len(ctxs) - i), lr, np.float32),
                )

    @staticmethod
    def _scatter_add(M: np.ndarray, rows: np.ndarray, vals: np.ndarray):
        """Row scatter-add via the FLAT 1-D ``ufunc.at`` fast path:
        numpy 1.26's 2-D row form runs the generic buffered inner loop
        (~1 µs per row), while 1-D contiguous ``add.at`` takes the
        indexed fast path — measured 3.1x (88.5 → 28.9 ms per 82k×64
        scatter) and BIT-identical (same scalar adds in the same
        row-major order)."""
        if not M.flags["C_CONTIGUOUS"]:
            # reshape(-1) on a non-C-contiguous matrix returns a COPY —
            # the adds would land in a temporary and vanish silently
            # (e.g. a fortran-ordered pretrained matrix); take the
            # layout-agnostic slow path instead
            np.add.at(M, rows, vals)
            return
        d = M.shape[1]
        lin = (rows[:, None] * d
               + np.arange(d, dtype=np.int64)[None, :]).reshape(-1)
        np.add.at(M.reshape(-1), lin, vals.reshape(-1))

    def _chunk_update(self, centers, ctxs, negs, lrs):
        W, C = self.W, self.C
        d = self.vector_size
        k = negs.shape[1]
        v = W[centers]                                   # (P, d)
        pos = C[ctxs]                                    # (P, d)
        # flat 1-D gathers/scatters for the negatives: a 2-D fancy index
        # (C[negs]) and a strided (P,k,1)x(P,1,d) broadcast both take
        # numpy's generic non-SIMD path — flatten first, bit-identical
        negs_flat = negs.reshape(-1)
        with np.errstate(over="ignore"):                 # exp overflow → σ=0 exactly
            s = 1.0 / (1.0 + np.exp(-np.einsum("pd,pd->p", v, pos)))
            g_pos = ((1.0 - s) * lrs)[:, None]           # (P, 1)
            neg = C[negs_flat].reshape(len(centers), k, d)
            sn = 1.0 / (1.0 + np.exp(-np.einsum("pd,pkd->pk", v, neg)))
        g_neg = -sn * lrs[:, None]                       # (P, k)
        grad_v = g_pos * pos + np.einsum("pk,pkd->pd", g_neg, neg)
        self._scatter_add(W, centers, grad_v)
        self._scatter_add(C, ctxs, g_pos * v)
        self._scatter_add(
            C, negs_flat, g_neg.reshape(-1, 1) * np.repeat(v, k, axis=0)
        )


# -- Ray tasks ------------------------------------------------------------------

def _shard_bounds(vocab_size: int, num_ps: int) -> list[tuple[int, int]]:
    step = (vocab_size + num_ps - 1) // num_ps
    return [(min(i * step, vocab_size), min((i + 1) * step, vocab_size))
            for i in range(num_ps)]


@ray.remote(num_returns=2)
def count_walks(*parts):
    """One sorted factorize (`build_vocab`) over one split of
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
def write_shard(path: str, names: np.ndarray, shard: tuple) -> int:
    """Resumable per-shard embeddings sink: this shard's rows only."""
    import pyarrow.parquet as pq

    pq.write_table(
        _arrow_rows(names, shard[0]).rename_columns(["entity", "vector"]), path
    )
    return len(names)


class Word2Vec:
    """Reference-shaped embedder (embedders/word2vec.py), trained with
    Ray tasks against ``num_ps`` vocab-sharded parameter objects from
    ``num_workers`` corpus splits (see the module docstring)."""

    # attributes holding lists of object refs, pickled by value
    _BY_VALUE = ("_shards",)

    def __init__(self, num_workers: int = 1, num_ps: int = 1, **kwargs):
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
        table = neg_table.remote(counts, cfg.seed)
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

    def fit(self, walks, is_update: bool = False) -> "Word2Vec":
        """List-of-walks API (reference embedder contract): split i gets
        every num_workers-th walk."""
        sentences = [list(w) for ew in walks for w in ew]
        return self._fit([[sentences[i :: self.num_workers]]
                          for i in range(self.num_workers)], is_update)

    def fit_dataset(self, walks_ds, is_update: bool = False) -> "Word2Vec":
        """Dataset API: the corpus never lands on the driver — split i
        is counted from its Arrow block refs, with no vocabulary
        exchange."""
        # split i is the i-th contiguous run of the corpus's Arrow blocks,
        # as Dataset.split(equal=False) cuts them, with no Ray Data job
        # on a materialized corpus: to_arrow_refs() of an EMPTY split
        # runs one for its schema.  equal=True would silently DROP rows.
        refs = walks_ds.materialize().to_arrow_refs()
        runs = np.array_split(np.arange(len(refs)), self.num_workers)
        return self._fit([[refs[i] for i in run] for run in runs], is_update)

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


def compute_ngrams_bytes(entity: str, minn: int = 0, maxn: int = 0) -> list[bytes]:
    """IRI → '#'-split whole-fragment ngrams (fasttext.py:177-201)."""
    if "http" in entity:
        ngrams = " ".join(re.split("[#]", entity)).split()
        return [str.encode(n) for n in ngrams]
    return [str.encode(entity)]


def ft_hash_bytes(bytez: bytes) -> int:
    """Pure-Python FNV-1a, deliberately unmasked like fasttext.py:203-214."""
    h = 2166136261
    for b in bytez:
        h = h ^ b
        h = h * 16777619
    return h


def mean_of_buckets(hashes: list[int], bucket_vecs: dict, dim: int) -> np.ndarray:
    """FastText OOV vector (fasttext.py:130-156): the mean of the bucket
    vectors its ngrams hit; zeros when none does."""
    vec = np.zeros(dim, dtype=np.float32)
    hits = 0
    for h in hashes:
        if h in bucket_vecs:
            vec += bucket_vecs[h]
            hits += 1
    return vec / hits if hits else vec


@ray.remote
def hash_shard(names: np.ndarray, fn_ngrams, bucket: int):
    """One parameter shard's (bucket, row) pairs: one per (token, ngram),
    duplicates kept, rows local to the shard and in token order."""
    buckets, rows = [], []
    for i, t in enumerate(names.tolist()):
        for n in fn_ngrams(t, 0, 0):
            buckets.append(ft_hash_bytes(n) % bucket)
            rows.append(i)
    return np.array(buckets, np.int64), np.array(rows, np.int64)


@ray.remote
def bucket_rows(need: np.ndarray, pairs: tuple, shard: tuple):
    """The (bucket, word vector) rows of one shard whose bucket is in
    ``need``, in the shard's token order."""
    buckets, rows = pairs
    keep = np.isin(buckets, need)
    return buckets[keep], shard[0][rows[keep]]


class FastText(Word2Vec):
    """FastText variant (reference embedders/fasttext.py:130-156): word
    vectors train exactly like :class:`Word2Vec`, plus an ngram-bucket
    matrix — bucket vector = mean of the word vectors whose subwords
    FNV-1a-hash to it.

    The bucket matrix is never built: the reference reads bucket vectors
    only through OOV lookups, so a fit hashes each parameter shard's
    tokens once (one `hash_shard` task per shard, its (bucket, row)
    pairs held as refs like the shards), and `_lookup_buckets` runs one
    `bucket_rows` task per shard for the buckets the requested entities
    hash to.  The driver joins those rows in shard order, which is
    sorted-token order, sorts them stably by bucket and takes each mean,
    so a bucket's rows are summed in sorted-token order under any
    sharding (float32, ``M.sum(axis=0) / len(M)``)."""

    _BY_VALUE = ("_shards", "_buckets")

    def __init__(self, bucket: int = 2_000_000, func_computing_ngrams=None,
                 num_workers: int = 1, num_ps: int = 1, **kwargs):
        kwargs.setdefault("vector_size", 500)
        super().__init__(num_workers=num_workers, num_ps=num_ps, **kwargs)
        self.bucket = bucket
        self.func_computing_ngrams = func_computing_ngrams or compute_ngrams_bytes
        self._buckets: list | None = None   # per shard: (buckets, rows)

    def ft_ngram_hashes(self, entity: str) -> list[int]:
        return [
            ft_hash_bytes(n) % self.bucket
            for n in self.func_computing_ngrams(entity, 0, 0)
        ]

    def _fit(self, parts: list[list], is_update: bool):
        super()._fit(parts, is_update)
        self._buckets = [
            hash_shard.remote(self.vocab[lo:hi], self.func_computing_ngrams,
                              self.bucket)
            for lo, hi in self._bounds
        ]
        return self

    # -- lookup ---------------------------------------------------------------

    def _lookup_buckets(self, needed: set) -> dict:
        """The vectors of the ``needed`` buckets that any token hits:
        ``{bucket: float32 mean}``."""
        if not needed or not self._buckets:
            return {}
        need = np.array(sorted(int(h) for h in needed), dtype=np.int64)
        parts = ray.get([
            bucket_rows.remote(need, pairs, shard) for pairs, shard
            in zip(self._refs("_buckets"), self._refs("_shards"))
        ])
        buckets = np.concatenate([b for b, _ in parts])
        order = np.argsort(buckets, kind="stable")
        vecs = np.concatenate([v for _, v in parts], dtype=np.float32)[order]
        keys, starts = np.unique(buckets[order], return_index=True)
        return {int(k): M.sum(axis=0) / len(M)
                for k, M in zip(keys, np.split(vecs, starts[1:]))}

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
