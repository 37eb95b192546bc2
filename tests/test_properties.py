"""Property-based invariants (hypothesis) for the pure kernels — no Ray
jobs per example, so hundreds of cases run in seconds."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrdf2vec_ray.functions import canon
from pyrdf2vec_ray.literals import cast_literals
from pyrdf2vec_ray.ops.dedup import _perm_coeffs, _shingle_hashes
from pyrdf2vec_ray.samplers import (
    SAMPLER_KINDS,
    NameFittedSampler,
    SamplerSpec,
    pagerank_scores,
)
from pyrdf2vec_ray.state.graph_index import GraphIndex, csr, intern
from pyrdf2vec_ray.state.sharded_graph import (
    ShardCSR,
    ShardedGraphIndex,
    shard_of,
)
from pyrdf2vec_ray.synth import triples_table

name = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12
)
triple = st.tuples(name, name, name)


@settings(max_examples=50, deadline=None)
@given(st.lists(triple, min_size=1, max_size=60))
def test_graph_index_roundtrip(triples):
    """Every input triple is reachable as a forward hop of its subject and
    a reverse hop of its object; degrees sum to the distinct triple count."""
    uniq = set(triples)
    gi = GraphIndex.from_table(triples_table(sorted(uniq)))
    g = gi.local()
    assert int(g.out_deg().sum()) == len(uniq) == int(g.in_deg().sum())
    names = g.a.names
    for s, p, o in uniq:
        preds, objs = g.get_hops(int(np.searchsorted(names, s)))
        assert (p, o) in {(str(names[a]), str(names[b])) for a, b in zip(preds, objs)}
        rpreds, subs = g.get_hops(int(np.searchsorted(names, o)), True)
        assert (p, s) in {(str(names[a]), str(names[b])) for a, b in zip(rpreds, subs)}


class _LocalShards(ShardedGraphIndex):
    """A ShardedGraphIndex over in-process shards: ``_map`` runs each
    shard kernel here instead of in a Ray task."""

    def _map(self, kernel, shards, *args):
        return [kernel(a, *args) for a in shards]


def _local_index(table: pa.Table, num_shards: int) -> _LocalShards:
    """The forward and reverse ShardCSRs the build would make, cut by
    the same ``shard_of`` and built with ``intern`` + ``csr``."""
    def shards(col: str) -> list:
        owner = np.array([shard_of(v, num_shards)
                          for v in table[col].to_pylist()])
        out = []
        for s in range(num_shards):
            names, s_id, p_id, o_id = intern(table.filter(owner == s))
            key, other = (o_id, s_id) if col == "obj" else (s_id, o_id)
            out.append(ShardCSR(names, *csr(key, p_id, other, len(names))))
        return out

    return _LocalShards(shards("subj"), shards("obj"), num_shards, None)


def _with_duplicates(triples: list) -> pa.Table:
    return triples_table(triples + triples[: len(triples) // 2])


def _group_count(keys) -> tuple:
    counts = keys.groupby(keys).size()
    return counts.index.tolist(), counts.to_numpy(np.float64)


@settings(max_examples=50, deadline=None)
@given(st.lists(triple, min_size=1, max_size=40))
def test_sampler_fit_equals_group_by(triples):
    """Every fitted array equals a pandas group-by over the table
    (duplicate rows counted), at 1 and 3 shards; the pagerank vertices
    are the sorted subj/obj names and its scores those of one
    whole-graph CSR."""
    table = _with_duplicates(triples)
    df = table.to_pandas()
    g = GraphIndex.from_table(table).local()
    want = {
        "in": _group_count(df["obj"]),
        "out": _group_count(df["subj"]),
        "pred": _group_count(df["pred"]),
        "pair": _group_count(df["pred"] + "\x1f" + df["obj"]),
    }
    for num_shards in (1, 3):
        gi = _local_index(table, num_shards)
        fits = {k: NameFittedSampler.fit(SamplerSpec(kind=k, split=True), gi)
                for k in ("objpredfreq", "wide", "pagerank")}
        got = {
            "in": (fits["wide"].in_keys, fits["wide"].in_deg),
            "out": (fits["wide"].out_keys, fits["wide"].out_deg),
            "pred": (fits["wide"].pred_keys, fits["wide"].pred_w),
            "pair": (fits["objpredfreq"].pair_keys,
                     fits["objpredfreq"].pair_w),
        }
        for stat, (keys, n) in want.items():
            assert got[stat][0].tolist() == keys, (stat, num_shards)
            np.testing.assert_array_equal(got[stat][1], n)
        pr = fits["pagerank"]
        names = sorted(set(df["subj"]) | set(df["obj"]))
        assert pr.node_keys.tolist() == names
        np.testing.assert_array_equal(pr.node_w,
                                      pagerank_scores(g)[g.a.is_entity])


@settings(max_examples=50, deadline=None)
@given(st.lists(triple, min_size=1, max_size=40))
def test_sampler_probabilities_valid(triples):
    table = _with_duplicates(triples)
    g = GraphIndex.from_table(table).local()
    names = g.a.names
    for num_shards in (1, 3):
        gi = _local_index(table, num_shards)
        for kind in SAMPLER_KINDS:
            fs = NameFittedSampler.fit(SamplerSpec(kind=kind), gi)
            for vid in range(g.num_vertices):
                preds, objs = g.get_hops(vid)
                if len(preds) == 0:
                    continue
                keep, p = fs.hop_probabilities(names[preds], names[objs])
                if len(p):
                    assert np.isclose(p.sum(), 1.0)
                    assert (p >= 0).all()


@settings(max_examples=100, deadline=None)
@given(st.lists(name, min_size=1, max_size=9))
def test_anonymous_walk_invariants(walk):
    root = walk[0]
    out = canon.map_anonymous(walk, root)
    assert len(out) == len(walk)
    for tok, orig in zip(out, walk):
        if orig == root:
            assert tok == root
        else:
            assert tok.isdigit() and walk[int(tok)] == orig


@settings(max_examples=100, deadline=None)
@given(st.lists(name, min_size=1, max_size=7))
def test_split_walk_deterministic_lower_unique(walk):
    out = canon.split_walk(walk, with_reverse=False)
    assert out == canon.split_walk(walk, with_reverse=False)
    assert len(set(out)) == len(out)                 # order-preserving dedup
    assert all(t == t.lower() for t in out)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.text(max_size=8), max_size=3), max_size=4))
def test_cast_literals_shape(chains):
    out = cast_literals(chains)
    assert len(out) == len(chains)
    for cell, chain in zip(out, chains):
        if len(chain) == 0:
            assert isinstance(cell, float) and np.isnan(cell)
        elif len(chain) > 1:
            assert isinstance(cell, tuple) and len(cell) == len(chain)


@settings(max_examples=30, deadline=None)
@given(st.text(min_size=1, max_size=200), st.text(min_size=1, max_size=200))
def test_minhash_similarity_monotone(a, b):
    """Identical texts → identical signatures; signature similarity is
    bounded by [0,1] and symmetric."""
    coeff_a, coeff_b = _perm_coeffs(32)
    def sig(t):
        sh = _shingle_hashes(t, 3)
        return ((sh[None, :] * coeff_a[:, None] + coeff_b[:, None])
                % np.uint64((1 << 61) - 1)).min(axis=1)
    sa, sb = sig(a), sig(b)
    assert np.array_equal(sa, sig(a))
    sim = (sa == sb).mean()
    assert 0.0 <= sim <= 1.0
    if a == b:
        assert sim == 1.0


@given(
    texts=st.lists(
        st.text(alphabet="ab cd", min_size=0, max_size=40), min_size=2, max_size=12
    ),
    threshold=st.sampled_from([0.3, 0.6, 0.9]),
)
@settings(max_examples=8, deadline=None)
def test_distributed_jaccard_equals_naive(texts, threshold):
    """The bucketed pair⋈shingles verification must equal a naive local
    Jaccard over every candidate pair."""
    import itertools

    import pyarrow as pa
    import ray.data

    from pyrdf2vec_ray.ops.dedup import _shingle_hashes, verify_jaccard
    from pyrdf2vec_ray.util import to_table

    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    )
    pairs = list(itertools.combinations(range(len(texts)), 2))
    pairs_ds = ray.data.from_arrow(
        pa.table({"doc_a": pa.array([a for a, _ in pairs], pa.int64()),
                  "doc_b": pa.array([b for _, b in pairs], pa.int64())})
    )
    got = to_table(verify_jaccard(docs, pairs_ds, k=2, threshold=threshold))
    if got.num_rows == 0 or "doc_a" not in got.column_names:
        got_map = {}
    else:
        got_map = {
            (a, b): j for a, b, j in zip(
                got["doc_a"].to_pylist(), got["doc_b"].to_pylist(),
                got["jaccard"].to_pylist(),
            )
        }
    for a, b in pairs:
        sa = set(_shingle_hashes(texts[a], 2).tolist())
        sb = set(_shingle_hashes(texts[b], 2).tolist())
        j = len(sa & sb) / max(1, len(sa | sb))
        if j >= threshold:
            assert abs(got_map[(a, b)] - j) < 1e-12, (a, b)
        else:
            assert (a, b) not in got_map


_iri_local = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1, max_size=10,
)
_lit_text = st.text(min_size=0, max_size=40).filter(
    lambda s: "\r" not in s and all(ord(c) >= 32 or c in "\t\n" for c in s)
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_iri_local, _iri_local, _lit_text),
                min_size=1, max_size=20))
def test_turtle_literal_roundtrip(rows):
    """Serialize (s, p, literal) triples to Turtle with escaped string
    literals (incl. arbitrary unicode), parse back, compare exactly —
    pins the escape decoder against the escape writer."""
    from pyrdf2vec_ray.sources.rdf import parse_turtle

    def esc(s: str) -> str:
        return (s.replace("\\", "\\\\").replace('"', '\\"')
                 .replace("\n", "\\n").replace("\t", "\\t"))

    doc = "@prefix ex: <http://e/> .\n" + "\n".join(
        f'ex:{s} ex:{p} "{esc(o)}" .' for s, p, o in rows
    )
    got = set(parse_turtle(doc))
    want = {(f"http://e/{s}", f"http://e/{p}", o) for s, p, o in rows}
    assert got == want


@settings(max_examples=12, deadline=None)
@given(
    st.lists(
        st.lists(st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1, max_size=6), min_size=0, max_size=20),
        min_size=1, max_size=8),
    st.integers(min_value=2, max_value=6),
)
def test_fingerprint_batch_equals_naive(tok_docs, window):
    """The vectorized fingerprint kernel must equal the obvious per-doc
    min-over-shingle-hashes definition for any token layout (short docs,
    empty docs, duplicate shingles)."""
    import hashlib

    import pandas as pd
    import pyarrow as pa

    import ray.data

    from pyrdf2vec_ray.ops.text import fingerprint

    texts = [" ".join(toks) for toks in tok_docs]

    def h(s):
        return int(hashlib.md5(s.encode()).hexdigest()[:15], 16)

    want = []
    for t in texts:
        toks = t.split()
        if len(toks) < window:
            want.append(h(" ".join(toks)))
        else:
            want.append(min(h(" ".join(toks[i:i + window]))
                            for i in range(len(toks) - window + 1)))

    ds = ray.data.from_arrow(pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}))
    got = fingerprint(ds, window=window).to_pandas().sort_values("doc_id")
    assert got["fingerprint"].tolist() == want


@settings(max_examples=100, deadline=None)
@given(
    st.lists(  # per entity: a ragged list of odd-ish length walks
        st.lists(
            st.lists(name, min_size=1, max_size=7),
            min_size=0, max_size=5,
        ),
        min_size=0, max_size=8,
    )
)
def test_halk_partial_counts_matches_naive(entity_walks):
    """The vectorized HALK stats kernel equals the definitional loop
    (per-walk DISTINCT predicate counting, halk.py:127-136) on any
    ragged corpus — empty batches, empty walk lists, single-token
    walks, repeated predicates within a walk."""
    import pyarrow as pa

    from pyrdf2vec_ray.walkers import halk_partial_counts

    batch = pa.table({
        "entity": pa.array(
            [f"e{i}" for i in range(len(entity_walks))], pa.string()
        ),
        "walks": pa.array(
            entity_walks, pa.list_(pa.list_(pa.string()))
        ),
    })
    counts: dict[str, int] = {}
    total = 0
    for walks in entity_walks:
        for walk in walks:
            total += 1
            for pred in set(walk[1::2]):
                counts[pred] = counts.get(pred, 0) + 1

    got = halk_partial_counts(batch)
    got_map = dict(zip(got["pred"].to_pylist(), got["n"].to_pylist()))
    assert got_map.pop("\x00TOTAL\x00") == total
    assert got_map == counts


@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_bitlen_u64_matches_python(vals):
    from pyrdf2vec_ray.ops.sketch import _bitlen_u64

    arr = np.array(vals, dtype=np.uint64)
    got = _bitlen_u64(arr)
    assert got.tolist() == [int(v).bit_length() for v in vals]


@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_splitmix64_vector_matches_scalar(vals):
    from pyrdf2vec_ray.ops.curate import splitmix64, splitmix64_py

    arr = np.array(vals, dtype=np.uint64)
    got = splitmix64(arr)
    assert got.tolist() == [splitmix64_py(int(v)) for v in vals]


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                max_size=200),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=150, deadline=None)
def test_quantile_rank_rule_matches_duckdb(vals, q):
    """The engine's ceil(n*q) 1-based rank rule == quantile_disc for
    arbitrary int multisets and q."""
    import duckdb

    s = sorted(vals)
    r = max(0, int(np.ceil(len(s) * q)) - 1)
    got = s[min(r, len(s) - 1)]
    con = duckdb.connect()
    ref = con.execute(
        "SELECT quantile_disc(x, ?) FROM (SELECT unnest(?) AS x)",
        [q, vals],
    ).fetchone()[0]
    assert got == ref, (vals, q, got, ref)
