"""Embedder + transformer behavior mirroring tests/embedders/test_word2vec.py
and tests/test_rdf2vec.py: determinism, fit-before-transform errors,
online update, fit_transform ≡ fit+transform, save/load round-trip."""

import numpy as np
import pytest

from pyrdf2vec_ray import synth
from pyrdf2vec_ray.embedders import (
    FastText,
    Word2Vec,
    compute_ngrams_bytes,
    ft_hash_bytes,
)
from pyrdf2vec_ray.pipelines.rdf2vec import RDF2VecTransformer
from pyrdf2vec_ray.walkers import WalkerSpec

IRI = synth.IRI_PREFIX
ENTITIES = [IRI + n for n in ["Alice", "Bob", "Dean"]]

CORPUS = [
    [("a", "p", "b"), ("a", "q", "c")],
    [("b", "p", "c")],
    [("c", "r", "a"), ("c", "p", "b"), ("c",)],
]
CORPUS = [[list(w) for w in ew] for ew in CORPUS]


def test_word2vec_determinism():
    va = Word2Vec(vector_size=16, epochs=3, seed=7).fit(CORPUS).transform(["a", "b"])
    vb = Word2Vec(vector_size=16, epochs=3, seed=7).fit(CORPUS).transform(["a", "b"])
    assert all(np.array_equal(x, y) for x, y in zip(va, vb))
    assert va[0].shape == (16,)
    assert not np.array_equal(va[0], va[1])


def test_sgns_refit_resets_weights():
    corpus_a = [[["a", "b", "c", "d"]] * 4] * 3
    corpus_b = [[["x", "y"]] * 4] * 3
    m = Word2Vec(vector_size=8, epochs=1, seed=3)
    m.fit(corpus_a)
    assert len(m.vocab) == 4
    # non-update re-fit: fresh vocab AND fresh weights (not the old matrix
    # trained for different tokens)
    m.fit(corpus_b, is_update=False)
    assert set(m.vocab.tolist()) == {"x", "y"}
    assert len(m.vocab) == 2
    # update re-fit still grows
    m.fit(corpus_a, is_update=True)
    assert len(m.vocab) == 6


def test_word2vec_unseen_raises():
    w2v = Word2Vec(vector_size=8, epochs=1).fit(CORPUS)
    with pytest.raises(ValueError, match="must have been provided to fit"):
        w2v.transform(["zzz"])


def test_word2vec_online_update():
    w2v = Word2Vec(vector_size=8, epochs=2, seed=1).fit(CORPUS)
    w2v.fit([[["x", "p", "a"]]], is_update=True)
    out = w2v.transform(["a", "x"])
    assert len(out) == 2


def test_fasttext_oov_vector():
    ft = FastText(vector_size=12, epochs=2, seed=3, bucket=1000).fit(CORPUS)
    # corpus tokens aren't IRIs → each token is its own "ngram"
    known = ft.transform(["a"])[0]
    assert known.shape == (12,)
    # OOV IRI whose '#' fragment collides with a seen token's ngram
    oov = ft.get_vector("http://x#a")
    assert np.allclose(oov, known) or oov.shape == (12,)


def test_ngram_hash_reference_values():
    assert compute_ngrams_bytes("http://dl#hasBond") == [b"http://dl", b"hasBond"]
    assert compute_ngrams_bytes("plain") == [b"plain"]
    # FNV-1a start values
    assert ft_hash_bytes(b"") == 2166136261
    assert ft_hash_bytes(b"a") == (2166136261 ^ 97) * 16777619


@pytest.fixture(scope="module")
def gi_loop(sharded_index):
    return sharded_index(synth.LOOP)


def test_fit_transform_equivalence(gi_loop):
    kw = dict(
        embedder=Word2Vec(vector_size=8, epochs=2, seed=5),
        walkers=[WalkerSpec(strategy="random", max_depth=2, max_walks=None,
                            random_state=5)],
    )
    t1 = RDF2VecTransformer(**kw)
    e1, _ = t1.fit_transform(gi_loop, ENTITIES)
    t2 = RDF2VecTransformer(
        embedder=Word2Vec(vector_size=8, epochs=2, seed=5),
        walkers=[WalkerSpec(strategy="random", max_depth=2, max_walks=None,
                            random_state=5)],
    )
    t2.fit(gi_loop, ENTITIES)
    e2, _ = t2.transform(gi_loop, ENTITIES)
    assert all(np.array_equal(a, b) for a, b in zip(e1, e2))


def test_transformer_unknown_entity_raises(gi_loop):
    t = RDF2VecTransformer()
    with pytest.raises(ValueError, match="Knowledge Graph"):
        t.fit(gi_loop, ["does", "not", "exist"])


def test_transformer_literals_and_save_load(gi_loop, tmp_path):
    t = RDF2VecTransformer(
        embedder=Word2Vec(vector_size=8, epochs=1, seed=2),
        walkers=[WalkerSpec(max_depth=1, max_walks=None)],
        literals=[[IRI + "knows"]],
    )
    emb, lits = t.fit_transform(gi_loop, ENTITIES)
    assert len(emb) == 3 and len(lits) == 3
    p = str(tmp_path / "t.pkl")
    t.save(p)
    t2 = RDF2VecTransformer.load(p)
    emb2 = t2.embedder.transform(ENTITIES)
    assert all(np.array_equal(a, b) for a, b in zip(emb, emb2))


def test_transformer_online_update(sharded_index):
    chain_gi = sharded_index(synth.LOOP + synth.LONG_CHAIN)
    t = RDF2VecTransformer(
        embedder=Word2Vec(vector_size=8, epochs=1, seed=2),
        walkers=[WalkerSpec(max_depth=1, max_walks=None)],
    )
    t.fit(chain_gi, ENTITIES)
    t.fit(chain_gi, [IRI + "Emma", IRI + "Alice"], is_update=True)
    assert set(t._entities) == set(ENTITIES + [IRI + "Emma"])
    out = t.embedder.transform(ENTITIES + [IRI + "Emma"])
    assert len(out) == 4


def test_multi_walker_corpus_union(gi_loop):
    """rdf2vec.py:178-181: corpora of several walkers are concatenated in
    walker order; the transformer trains on the union."""
    t = RDF2VecTransformer(
        embedder=Word2Vec(vector_size=8, epochs=1, seed=4),
        walkers=[
            WalkerSpec(strategy="random", max_depth=1, max_walks=None),
            WalkerSpec(strategy="walklet", max_depth=1, max_walks=None),
        ],
    )
    t.fit(gi_loop, ENTITIES)
    # one stored corpus row per (walker, entity)
    assert len(t._walks) == 2 * len(ENTITIES)
    emb = t.embedder.transform(ENTITIES)
    assert len(emb) == 3


def test_fit_dataset_matches_fit(gi_loop):
    from pyrdf2vec_ray.walkers import explode_walks, extract_walks

    spec = WalkerSpec(strategy="random", max_depth=2, max_walks=None,
                      random_state=9)
    ds = explode_walks(extract_walks(gi_loop, ENTITIES, spec))
    w1 = Word2Vec(vector_size=8, epochs=2, seed=9).fit_dataset(ds)
    # equivalent list-based fit over the same (sorted) corpus
    from pyrdf2vec_ray.util import to_table

    t = to_table(explode_walks(extract_walks(gi_loop, ENTITIES, spec)))
    corpus = [[list(w) for w in t["walk"].to_pylist()]]
    w2 = Word2Vec(vector_size=8, epochs=2, seed=9).fit(corpus)
    for e in ENTITIES:
        assert np.array_equal(w1.transform([e])[0], w2.transform([e])[0])


def test_chunk_update_matches_naive_scatter():
    """_chunk_update's flat-gather/vectorized form must match the
    definitional per-pair update — gradients from the PRE-update
    matrices, scatter-added in pair-occurrence order (np.add.at order) —
    to float32 accumulation tolerance (einsum reorders the dot sums)."""
    from pyrdf2vec_ray.embedders import SGNS

    rng = np.random.RandomState(3)
    V, d, P, k = 97, 8, 400, 5
    m = SGNS(vector_size=d, seed=1)
    m.W = (rng.rand(V, d).astype(np.float32) - 0.5) / d
    m.C = rng.randn(V, d).astype(np.float32) * 0.01
    centers = rng.randint(0, V, size=P).astype(np.int64)
    ctxs = rng.randint(0, V, size=P).astype(np.int64)
    negs = rng.randint(0, V, size=(P, k)).astype(np.int64)
    lrs = np.full(P, 0.025, np.float32)

    W0, C0 = m.W.copy(), m.C.copy()
    m._chunk_update(centers, ctxs, negs, lrs)

    # naive reference: same chunk semantics, scalar per-pair scatter
    Wn, Cn = W0.copy(), C0.copy()
    g_poss, g_negs, grad_vs = [], [], []
    for p in range(P):
        v = W0[centers[p]]
        s = 1.0 / (1.0 + np.exp(-np.float32(v @ C0[ctxs[p]])))
        g_pos = np.float32((1.0 - s) * lrs[p])
        sn = 1.0 / (1.0 + np.exp(-(C0[negs[p]] @ v).astype(np.float32)))
        g_neg = (-sn * lrs[p]).astype(np.float32)
        grad_vs.append(g_pos * C0[ctxs[p]] + g_neg @ C0[negs[p]])
        g_poss.append(g_pos * v)
        g_negs.append(g_neg[:, None] * v[None, :])
    for p in range(P):
        Wn[centers[p]] += grad_vs[p]
    for p in range(P):
        Cn[ctxs[p]] += g_poss[p]
    for p in range(P):
        for j in range(k):
            Cn[negs[p, j]] += g_negs[p][j]

    np.testing.assert_allclose(m.W, Wn, rtol=0, atol=1e-6)
    np.testing.assert_allclose(m.C, Cn, rtol=0, atol=1e-6)


def test_scatter_add_non_contiguous_matrix():
    """Fortran-ordered (or otherwise non-C-contiguous) weight matrices
    must still receive updates — reshape(-1) on them is a COPY and the
    fast path would silently discard every gradient."""
    from pyrdf2vec_ray.embedders import SGNS

    rows = np.array([0, 2, 2], dtype=np.int64)
    vals = np.ones((3, 4), dtype=np.float32)
    want = np.zeros((3, 4), np.float32)
    np.add.at(want, rows, vals)
    for order in ("C", "F"):
        M = np.zeros((3, 4), np.float32, order=order)
        SGNS._scatter_add(M, rows, vals)
        assert np.array_equal(M, want), order
