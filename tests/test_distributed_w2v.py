"""Word2Vec/FastText trained by Ray tasks over parameter shards:
determinism across runs, vectors pinned byte for byte at one split and
one shard (the public classes' defaults) and at two and two, pickling,
transformer integration."""

import gc
import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from pyrdf2vec_ray import shuffle, synth
from pyrdf2vec_ray.embedders import FastText, Word2Vec, build_vocab
from pyrdf2vec_ray.embedders_dist import DistributedFastText, DistributedWord2Vec
from pyrdf2vec_ray.pipelines.rdf2vec import RDF2VecTransformer
from pyrdf2vec_ray.walkers import WalkerSpec

CORPUS = [
    [["a", "p", "b"], ["a", "q", "c"], ["b", "p", "c"]],
    [["c", "r", "a"], ["c", "p", "b"], ["b", "q", "a"]],
] * 4
UPDATE = [[["c", "s", "d"], ["d", "p", "a", "q", "b"]]] * 3
OOV = ["http://x#a", "http://y#d#q"]


def _walks_ds(corpus):
    walks = [w for ew in corpus for w in ew]
    return ray.data.from_arrow(
        pa.table({"entity": pa.array([w[0] for w in walks], pa.string()),
                  "walk": pa.array(walks, pa.list_(pa.string()))})
    )


def test_distributed_deterministic():
    va = DistributedWord2Vec(num_workers=2, vector_size=16, epochs=3, seed=5) \
        .fit(CORPUS).transform(["a", "b", "c"])
    vb = DistributedWord2Vec(num_workers=2, vector_size=16, epochs=3, seed=5) \
        .fit(CORPUS).transform(["a", "b", "c"])
    assert all(np.array_equal(x, y) for x, y in zip(va, vb))
    assert va[0].shape == (16,)
    assert not np.allclose(va[0], va[1])


def test_distributed_in_transformer(sharded_index):
    gi = sharded_index(synth.LOOP)
    entities = [synth.IRI_PREFIX + n for n in ["Alice", "Bob", "Dean"]]
    t = RDF2VecTransformer(
        embedder=DistributedWord2Vec(num_workers=2, vector_size=8, epochs=2, seed=3),
        walkers=[WalkerSpec(max_depth=2, max_walks=None, random_state=3)],
    )
    emb, _ = t.fit_transform(gi, entities)
    assert len(emb) == 3 and emb[0].shape == (8,)


def test_fit_dataset_and_parquet_sink(tmp_path):
    """Scale paths: corpus from a walks Dataset (never a driver list),
    per-shard parquet sink with no driver collect."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    walks = [w for ew in CORPUS for w in ew]
    ds = ray.data.from_arrow(
        pa.table({"entity": pa.array([w[0] for w in walks], pa.string()),
                  "walk": pa.array(walks, pa.list_(pa.string()))})
    )
    m = DistributedWord2Vec(num_workers=2, num_ps=2, vector_size=8,
                            epochs=2, seed=11).fit_dataset(ds)
    vecs = m.transform(["a", "b", "c"])
    assert vecs[0].shape == (8,)
    n = m.write_parquet(str(tmp_path / "emb"))
    t = pq.read_table(str(tmp_path / "emb"))
    assert t.num_rows == n == 6  # vocab a b c p q r
    by_name = dict(zip(t["entity"].to_pylist(), t["vector"].to_pylist()))
    assert np.allclose(by_name["a"], vecs[0])


def test_transform_unknown_raises():
    import pytest

    m = DistributedWord2Vec(num_workers=2, vector_size=8, epochs=1, seed=2).fit(CORPUS)
    with pytest.raises(ValueError, match="provided to fit"):
        m.transform(["zz_unknown"])


def test_distributed_fasttext_buckets_and_oov():
    """FastText's distributed bucket reduce must agree with a driver-side
    accumulation (fasttext.py:130-156 —
    bucket vector = mean of word vectors whose subwords hash to it)
    computed from the SAME trained matrix, and OOV transform = mean of
    its ngram-bucket vectors."""
    from pyrdf2vec_ray.embedders import ft_hash_bytes, compute_ngrams_bytes
    from pyrdf2vec_ray.embedders_dist import DistributedFastText

    B = 997
    m = DistributedFastText(bucket=B, num_workers=2, num_ps=2,
                            vector_size=8, epochs=2, seed=7).fit(CORPUS)
    toks = [str(t) for t in m.vocab]
    word_vecs = dict(zip(toks, m._pull_vectors(toks)))

    # driver-side bucket algebra over the same word matrix
    sums, counts = {}, {}
    for t in toks:
        for n in compute_ngrams_bytes(t, 0, 0):
            h = ft_hash_bytes(n) % B
            if h in sums:
                sums[h] = sums[h] + word_vecs[t]
                counts[h] += 1
            else:
                sums[h] = word_vecs[t].copy()
                counts[h] = 1
    expect = {h: sums[h] / counts[h] for h in sums}

    got = m._lookup_buckets(set(range(B)))
    assert set(got) == set(expect)
    for h in expect:
        assert np.allclose(got[h], expect[h], atol=1e-6), h

    # OOV: '#'-fragment 'a' is in-vocab → vector = mean of the bucket
    # vectors its ngrams hit (the 'http://x' fragment has no bucket)
    oov = "http://x#a"
    vec = m.get_vector(oov)
    hit_buckets = [h for h in m.ft_ngram_hashes(oov) if h in got]
    assert hit_buckets
    assert np.abs(m.get_vector(OOV[1])).sum() > 0   # a bucket was hit
    assert np.allclose(vec, np.mean([got[h] for h in hit_buckets], axis=0),
                       atol=1e-6)
    # in-vocab transform still returns the word vector itself
    assert np.array_equal(m.transform(["a"])[0], word_vecs["a"])


def test_distributed_fasttext_deterministic():
    from pyrdf2vec_ray.embedders_dist import DistributedFastText

    a = DistributedFastText(bucket=101, num_workers=2, vector_size=8,
                            epochs=1, seed=4).fit(CORPUS)
    b = DistributedFastText(bucket=101, num_workers=2, vector_size=8,
                            epochs=1, seed=4).fit(CORPUS)
    probe = ["a", "http://x#b", "zz_unseen"]
    for x, y in zip(a.transform(probe), b.transform(probe)):
        assert np.array_equal(x, y)


# sha256[:16] of the float32 vectors (sorted vocab, then OOV for FastText)
# after fit(CORPUS), then fit(UPDATE, is_update=True), and after a fresh
# fit_dataset(CORPUS); vector_size=8, epochs=3, seed=5, bucket=997.
# Word2Vec and FastText run at their defaults, one split and one shard,
# so they share the 1x1 digests of the Distributed names.
PS_DIGESTS = {
    ("Word2Vec", 1, 1):
        ("931c3f15a1b47dd5", "033564a8b8b1ee6d", "931c3f15a1b47dd5"),
    ("FastText", 1, 1):
        ("991b2f16753b2cd1", "53843fd3cb444d65", "991b2f16753b2cd1"),
    ("DistributedWord2Vec", 1, 1):
        ("931c3f15a1b47dd5", "033564a8b8b1ee6d", "931c3f15a1b47dd5"),
    ("DistributedWord2Vec", 2, 2):
        ("a73d6b1414485804", "9f55782b3c521685", "b3636e1f5a7f77d8"),
    ("DistributedFastText", 1, 1):
        ("991b2f16753b2cd1", "53843fd3cb444d65", "991b2f16753b2cd1"),
    ("DistributedFastText", 2, 2):
        ("8b4e72abc99dfd53", "4b48c0149f860cef", "0faf0328fbe8aec8"),
}


@pytest.mark.parametrize("key", sorted(PS_DIGESTS),
                         ids=lambda k: f"{k[0]}-{k[1]}x{k[2]}")
def test_ps_vectors_pinned(key):
    name, nw, nps = key
    cls = {c.__name__: c for c in (Word2Vec, FastText, DistributedWord2Vec,
                                   DistributedFastText)}[name]
    kw = dict(vector_size=8, epochs=3, seed=5)
    if name.startswith("Distributed"):
        kw.update(num_workers=nw, num_ps=nps)
    if issubclass(cls, FastText):
        kw["bucket"] = 997

    def digest(m):
        probes = [str(t) for t in m.vocab]
        if issubclass(cls, FastText):
            probes += OOV
        M = np.stack(m.transform(probes)).astype(np.float32)
        return hashlib.sha256(M.tobytes()).hexdigest()[:16]

    m = cls(**kw).fit(CORPUS)
    assert (m.num_workers, m.num_ps) == (nw, nps)
    got = (digest(m), digest(m.fit(UPDATE, is_update=True)),
           digest(cls(**kw).fit_dataset(_walks_ds(CORPUS))))
    assert got == PS_DIGESTS[key]


def test_distributed_w2v_is_update_warm_start():
    corpus_a = [[["a", "b", "c", "d"]] * 6] * 4
    corpus_b = [[["c", "d", "e", "f"]] * 6] * 4
    m = DistributedWord2Vec(num_workers=2, num_ps=2, vector_size=8,
                            epochs=2, seed=3)
    m.fit(corpus_a)
    before = {t: v.copy() for t, v in zip(["a", "b", "c", "d"],
                                          m._pull_vectors(["a", "b", "c", "d"]))}
    m.fit(corpus_b, is_update=True)
    # vocab merged: old + new tokens all present
    assert set(m.vocab.tolist()) == {"a", "b", "c", "d", "e", "f"}
    after_a = m._pull_vectors(["a"])[0]
    # 'a' is absent from corpus_b → untouched by the update epochs, so it
    # must equal its previously trained vector (warm start, not re-init)
    assert np.allclose(after_a, before["a"])
    # fresh (non-update) re-fit drops the old vocabulary
    m.fit(corpus_b, is_update=False)
    assert set(m.vocab.tolist()) == {"c", "d", "e", "f"}


def test_distributed_w2v_dataset_split_keeps_all_rows():
    # 7 walks across 3 workers: equal=True would silently drop rows
    walks = [{"entity": f"e{i}", "walk": ["a", "b", "c"]} for i in range(7)]
    ds = ray.data.from_items(walks)
    m = DistributedWord2Vec(num_workers=3, num_ps=2, vector_size=4,
                            epochs=1, seed=1)
    m.fit_dataset(ds)
    assert set(m.vocab.tolist()) == {"a", "b", "c"}


def _vocab_ds(corpus):
    """Two Arrow blocks of exploded walks, the second with a one-token walk."""
    walks = [w for ew in corpus for w in ew] + [["z"]]
    half = len(walks) // 2
    return ray.data.from_arrow([
        pa.table({"walk": pa.array(part, pa.list_(pa.string()))})
        for part in (walks[:half], walks[half:])
    ]), walks


@pytest.mark.parametrize("num_workers", [1, 2, 3])
def test_trainer_vocab_equals_build_vocab(num_workers):
    """The count_walks partials, merged on the driver, equal one
    build_vocab over every token: for fit_dataset (3 workers over 2
    blocks leaves one split empty) and fit.  The one-token walk has no
    pairs but is counted."""
    ds, walks = _vocab_ds(CORPUS)
    vocab, counts, _ = build_vocab(np.array([t for w in walks for t in w],
                                            dtype=object))
    assert "z" in vocab
    kw = dict(num_workers=num_workers, num_ps=2, vector_size=4, epochs=1,
              seed=3)
    for m in (DistributedWord2Vec(**kw).fit_dataset(ds),
              DistributedWord2Vec(**kw).fit([[w] for w in walks])):
        assert np.array_equal(m.vocab, vocab)
        assert np.array_equal(m.counts, counts)
        assert m.counts.dtype == np.float64


def test_fit_dataset_runs_no_vocab_exchange(monkeypatch):
    """The vocabulary is counted by the count_walks tasks: no
    bucket_count exchange runs during fit_dataset."""
    def boom(*args, **kwargs):
        raise AssertionError("fit_dataset ran a bucket_count exchange")

    monkeypatch.setattr(shuffle, "bucket_count", boom)
    m = DistributedWord2Vec(num_workers=2, num_ps=1, vector_size=4,
                            epochs=1, seed=3).fit_dataset(_walks_ds(CORPUS))
    assert list(m.vocab) == ["a", "b", "c", "p", "q", "r"]


@pytest.mark.parametrize("nw,nps", [(1, 1), (2, 2)])
def test_fit_runs_no_ray_data_job(ray_jobs, nw, nps):
    """Training is tasks over object refs: FastText.fit on a list
    corpus (its buckets included) and fit_dataset on a materialized
    corpus run no Ray Data job."""
    ds = _walks_ds(CORPUS).materialize()
    kw = dict(bucket=997, num_workers=nw, num_ps=nps, vector_size=4,
              epochs=1, seed=3)
    with ray_jobs() as jobs:
        m = FastText(**kw).fit(CORPUS)
        assert len(m.transform(OOV)) == 2
        assert jobs.count == 0
        assert len(FastText(**kw).fit_dataset(ds).vocab) == 6
        assert jobs.count == 0


def test_fit_puts_no_large_object_from_driver(monkeypatch):
    """The driver puts nothing vocab-independent and large: the 8 MiB
    negative table is built in a task (a driver put keeps the plasma
    pages it writes in the driver's RSS)."""
    real = ray.put
    sizes = []

    def put(value, *args, **kwargs):
        sizes.append(len(pickle.dumps(value, protocol=5)))
        return real(value, *args, **kwargs)

    monkeypatch.setattr(ray, "put", put)
    Word2Vec(vector_size=4, epochs=1, seed=3).fit(CORPUS)
    assert sizes and max(sizes) < 1 << 20


def test_fit_creates_no_actor(monkeypatch):
    """Every training step is a task in a pooled worker: fit, an update
    fit and fit_dataset start no actor (an actor never reuses a pooled
    worker; creating one cost 0.8-0.9 s against 4-7 ms for a task).
    Ray Data's own helper actors, which every Dataset execution looks
    up, are let through."""
    real = ray.actor.ActorClass._remote

    def guarded(self, *args, **kwargs):
        desc = self.__ray_metadata__.actor_creation_function_descriptor
        assert desc.module_name.startswith("ray."), \
            f"the embedder started an actor: {desc.class_name}"
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ray.actor.ActorClass, "_remote", guarded)
    for cls in (DistributedWord2Vec, DistributedFastText):
        kw = dict(num_workers=2, num_ps=2, vector_size=4, epochs=2, seed=3)
        m = cls(**kw).fit(CORPUS)
        m.fit(UPDATE, is_update=True)
        assert len(m.transform(list(m.vocab))) == 8
        assert len(cls(**kw).fit_dataset(_walks_ds(CORPUS)).vocab) == 6


def test_parquet_sink_equals_per_row_build(tmp_path):
    """The per-shard sink builds the vector column from one offsets
    array: the written table equals a row-by-row Arrow build."""
    m = DistributedWord2Vec(num_workers=2, num_ps=2, vector_size=8,
                            epochs=1, seed=3).fit(CORPUS)
    assert m.write_parquet(str(tmp_path / "emb")) == len(m.vocab)
    names = [str(t) for t in m.vocab]
    want = pa.table({
        "entity": pa.array(names, pa.string()),
        "vector": pa.array([r.tolist() for r in m._pull_vectors(names)],
                           pa.list_(pa.float32())),
    })
    assert pq.read_table(str(tmp_path / "emb")).equals(want)


def test_more_shards_than_vocab_rows():
    """5 tokens over 4 shards: the last shard owns no rows (its bounds
    were (6, 5) before, a negative row count)."""
    m = DistributedWord2Vec(num_workers=1, num_ps=4, vector_size=4,
                            epochs=1, seed=3).fit([[["a", "b", "c", "d", "e"]]])
    assert m._bounds == [(0, 2), (2, 4), (4, 5), (5, 5)]
    assert len(m.transform(list(m.vocab))) == 5


PICKLED = [(Word2Vec, list("abcpqr")),
           (FastText, list("abcpqr") + OOV),
           (DistributedWord2Vec, list("abcpqr")),
           (DistributedFastText, list("abcpqr") + OOV)]


@pytest.mark.parametrize("cls,probes", PICKLED,
                         ids=[c.__name__ for c, _ in PICKLED])
def test_pickled_model_outlives_original(cls, probes):
    """A pickled model carries its parameters by value: it transforms
    (OOV probes included) after the original is collected.  Word2Vec
    and FastText run at their defaults (one shard), the Distributed
    names at two shards."""
    kw = dict(vector_size=8, epochs=2, seed=5)
    if cls.__name__.startswith("Distributed"):
        kw.update(num_workers=2, num_ps=2)
    if issubclass(cls, FastText):
        kw["bucket"] = 997
    m = cls(**kw).fit(CORPUS)
    want = np.stack(m.transform(probes))
    blob = pickle.dumps(m)
    del m
    gc.collect()
    got = np.stack(pickle.loads(blob).transform(probes))
    assert np.array_equal(got, want)


LOAD_IN_NEW_SESSION = """
import sys
import numpy as np
import ray
from pyrdf2vec_ray.pipelines.rdf2vec import RDF2VecTransformer

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
probes = sys.argv[3:]
t = RDF2VecTransformer.load(sys.argv[1])
np.save(sys.argv[2], np.stack(t.embedder.transform(probes)))
ray.shutdown()
"""


def test_saved_transformer_loads_in_new_ray_session(sharded_index, tmp_path):
    """RDF2VecTransformer.save holds a distributed model: a child process
    with its own Ray session loads it and gets the same vectors."""
    gi = sharded_index(synth.LOOP)
    entities = [synth.IRI_PREFIX + n for n in ["Alice", "Bob", "Dean"]]
    root = str(Path(__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    for cls in (DistributedWord2Vec, DistributedFastText):
        t = RDF2VecTransformer(
            embedder=cls(num_workers=2, num_ps=2, vector_size=8, epochs=2,
                         seed=3),
            walkers=[WalkerSpec(max_depth=2, max_walks=None, random_state=3)],
        )
        t.fit(gi, entities)
        probes = entities + (OOV if cls is DistributedFastText else [])
        want = np.stack(t.embedder.transform(probes))
        saved, out = tmp_path / f"{cls.__name__}.pkl", tmp_path / "got.npy"
        t.save(str(saved))
        subprocess.run([sys.executable, "-c", LOAD_IN_NEW_SESSION, str(saved),
                        str(out), *probes], env=env, check=True, timeout=300)
        assert np.array_equal(np.load(out), want)
