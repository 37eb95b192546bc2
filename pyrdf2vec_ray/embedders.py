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

One SGNS algorithm, two places to run it.  This module holds all of it:
the sorted vocabulary (`build_vocab`, `merge_vocab`, `carried_rows`),
the negative table (`neg_table`), the seeded initialisation
(`init_rows`), the learning-rate schedule (`SGNS.schedule`), the epoch
pair stream (`TokenCorpus.epoch_chunks`) and the mini-batched update
(`SGNS.train_epoch` → `SGNS._chunk_update`).  `Word2Vec` and `FastText`
run it in this process and pickle with the transformer
(``RDF2VecTransformer.save``); `embedders_dist` runs the same stream as
Ray tasks over vocab-sharded parameter objects.  For a fixed seed,
in-process `Word2Vec` equals ``DistributedWord2Vec(num_workers=1,
num_ps=1)`` up to the float rounding of the sharded delta round trip
(pinned by tests/test_distributed_w2v.py).

FastText subwords follow the reference exactly: IRI → split on '#' →
whole-fragment "ngrams", pure-Python FNV-1a (unmasked, as in
fasttext.py:203-214) mod `bucket`; OOV vector = mean of ngram-bucket
vectors (fasttext.py:130-156).
"""

from __future__ import annotations

import re

import numpy as np


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


def neg_table(counts: np.ndarray, seed: int, size: int = 1 << 20) -> np.ndarray:
    """Unigram^0.75 negative-sampling table."""
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
    """Skip-gram negative-sampling hyper-parameters, the W/C matrices
    and the vocabulary they are indexed by."""

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
        self.vocab = np.array([], dtype=np.str_)   # sorted tokens = rows
        self.counts = np.array([], dtype=np.float64)
        self.W: np.ndarray | None = None     # input vectors (the embeddings)
        self.C: np.ndarray | None = None     # output vectors

    def schedule(self) -> list[float]:
        """Per-epoch learning rate, decayed linearly over the epochs."""
        total = max(1, self.epochs)
        return [max(self.min_alpha, self.alpha * (1 - e / total))
                for e in range(total)]

    def fit(self, tokens: np.ndarray, lens: np.ndarray, update: bool = False):
        """Train on sentences given as flat tokens + lengths.  A non-update
        fit starts a FRESH model (gensim, which the reference wraps,
        re-inits weights on build_vocab(update=False) too); an update fit
        merges vocabularies and carries the trained rows over."""
        local, counts, codes = build_vocab(tokens)
        vocab = local
        warm = update and self.W is not None
        if warm:
            vocab, counts = merge_vocab(self.vocab, self.counts, local, counts)
        # seeds of parameter shard 0 and trainer 0 in embedders_dist
        W, C = init_rows(len(vocab), self.vector_size, self.seed + 7000)
        if warm:
            rows, old_rows = carried_rows(self.vocab, vocab)
            W[rows], C[rows] = self.W[old_rows], self.C[old_rows]
        self.vocab, self.counts, self.W, self.C = vocab, counts, W, C
        corpus = TokenCorpus()
        if not corpus.add(token_ids(vocab, local)[codes], lens):
            return
        table = neg_table(counts, self.seed)
        for epoch, lr in enumerate(self.schedule()):
            self.train_epoch(corpus, self.seed + 1000, epoch, lr, table)

    def train_epoch(self, corpus: TokenCorpus, seed: int, epoch: int,
                    lr: float, table: np.ndarray, remap=None):
        """One epoch of the pair stream, applied in 16k-pair sub-chunks.
        ``remap`` maps corpus ids to rows of W/C (the distributed
        epoch task's compact copy of the rows it touches)."""
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


class Word2Vec:
    """Reference-shaped embedder (embedders/word2vec.py)."""

    def __init__(self, **kwargs):
        self.kwargs = {"min_count": 0, **kwargs}
        self._model = SGNS(**self.kwargs)

    def fit(self, walks: list[list[list[str]]], is_update: bool = False) -> "Word2Vec":
        return self._fit(*sentence_arrays([w for ew in walks for w in ew]),
                         is_update)

    def fit_dataset(self, walks_ds, is_update: bool = False) -> "Word2Vec":
        """Train from an exploded walks Dataset (entity, walk): the corpus
        streams off the object store into this process.  For training
        whose parameters outgrow one process use
        `embedders_dist.DistributedWord2Vec` (tasks over sharded
        parameters)."""
        parts = [walk_arrays(b["walk"]) for b in walks_ds.iter_batches(
            batch_size=1 << 16, batch_format="pyarrow")] or [sentence_arrays([])]
        return self._fit(np.concatenate([p[0] for p in parts]),
                         np.concatenate([p[1] for p in parts]), is_update)

    def _fit(self, tokens: np.ndarray, lens: np.ndarray, is_update: bool):
        self._model.fit(tokens, lens, update=is_update)
        return self

    def transform(self, entities: list[str]) -> list[np.ndarray]:
        ids = lookup(self._model.vocab, entities)
        if (ids < 0).any():
            raise ValueError(
                "The entities must have been provided to fit() first "
                "before they can be transformed into a numerical vector."
            )
        return [self._model.W[i] for i in ids]


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


class FastText(Word2Vec):
    """FastText variant: SGNS word vectors + ngram-bucket vectors; the
    bucket vector of a hash is the mean of the word vectors whose
    subwords hash to it, summed in sorted-token order like
    `embedders_dist.DistributedFastText`; OOV lookup = mean of bucket
    vectors (fasttext.py:130-156)."""

    def __init__(self, bucket: int = 2_000_000, func_computing_ngrams=None, **kwargs):
        kwargs.setdefault("vector_size", 500)
        super().__init__(**kwargs)
        self.bucket = bucket
        self.func_computing_ngrams = func_computing_ngrams or compute_ngrams_bytes
        self._bucket_vecs: dict[int, np.ndarray] = {}

    def ft_ngram_hashes(self, entity: str) -> list[int]:
        return [
            ft_hash_bytes(n) % self.bucket
            for n in self.func_computing_ngrams(entity, 0, 0)
        ]

    def _fit_buckets(self):
        rows: dict[int, list[int]] = {}
        for i, tok in enumerate(self._model.vocab):
            for h in self.ft_ngram_hashes(str(tok)):
                rows.setdefault(h, []).append(i)
        W = self._model.W
        self._bucket_vecs = {
            h: (W[r].sum(axis=0) / len(r)).astype(np.float32)
            for h, r in rows.items()
        }

    def _fit(self, tokens: np.ndarray, lens: np.ndarray, is_update: bool):
        super()._fit(tokens, lens, is_update)
        self._fit_buckets()
        return self

    def get_vector(self, entity: str) -> np.ndarray:
        i = lookup(self._model.vocab, [entity])[0]
        if i >= 0:
            return self._model.W[i]
        return mean_of_buckets(self.ft_ngram_hashes(entity), self._bucket_vecs,
                               self._model.vector_size)

    def transform(self, entities: list[str]) -> list[np.ndarray]:
        return [self.get_vector(e) for e in entities]
