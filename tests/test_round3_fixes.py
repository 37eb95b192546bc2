"""Round-3 fixes: Turtle escape/tokenizer correctness, vectorized LPA,
bundle fetch concurrency, sink gates, candidate fusion, pair packing."""

import numpy as np

from pyrdf2vec_ray.sources.rdf import parse_turtle


def test_turtle_non_ascii_literal_survives():
    # unicode_escape round-trips mojibake non-ASCII ('café' -> 'cafÃ©');
    # only backslash escape sequences may be decoded
    trips = parse_turtle(
        '@prefix ex: <http://e/> . ex:s ex:p "café" . '
        'ex:s ex:q "naïve Ω 中文" .'
    )
    objs = {o for _, _, o in trips}
    assert objs == {"café", "naïve Ω 中文"}


def test_turtle_escape_sequences_decoded():
    trips = parse_turtle(
        '@prefix ex: <http://e/> . '
        'ex:s ex:p "a\\tb\\nc" . '
        'ex:s ex:q "u:\\u00e9 U:\\U0001F600" . '
        'ex:s ex:r "q:\\" bs:\\\\" .'
    )
    objs = {o for _, _, o in trips}
    assert "a\tb\nc" in objs
    assert "u:é U:😀" in objs
    assert 'q:" bs:\\' in objs


def test_turtle_glued_statement_dot():
    # PN_LOCAL cannot end with '.' — 'ex:o.' is object + terminator, and
    # '42.' is the integer 42 + terminator (DECIMAL needs trailing digits)
    trips = parse_turtle(
        "@prefix ex: <http://e/> . ex:s ex:p ex:o. ex:s ex:n 42."
    )
    assert ("http://e/s", "http://e/p", "http://e/o") in trips
    assert ("http://e/s", "http://e/n", "42") in trips
    # dots INSIDE a pname local part are preserved
    trips2 = parse_turtle("@prefix ex: <http://e/> . ex:a.b ex:p ex:c .")
    assert ("http://e/a.b", "http://e/p", "http://e/c") in trips2


def _lpa_reference(u, v, nv, max_sweeps=20):
    """Straightforward per-node loop with the SAME synchronous semantics
    as the vectorized _lpa_labels (mode of previous-sweep neighbor
    labels, ties -> smallest; 2-cycles break by elementwise min)."""
    import numpy as np

    nbrs = [[] for _ in range(nv)]
    for a, b in zip(u, v):
        nbrs[a].append(b)
        nbrs[b].append(a)
    labels = np.arange(nv, dtype=np.int64)
    prev = None
    for _ in range(max_sweeps):
        new = labels.copy()
        for node in range(nv):
            if not nbrs[node]:
                continue
            cand, counts = np.unique(labels[np.array(nbrs[node])],
                                     return_counts=True)
            new[node] = cand[counts == counts.max()].min()
        if np.array_equal(new, labels):
            break
        if prev is not None and np.array_equal(new, prev):
            labels = np.minimum(new, labels)
            break
        prev = labels
        labels = new
    return labels


def test_lpa_vectorized_matches_loop_reference():
    from pyrdf2vec_ray.stages.community import _lpa_labels

    rng = np.random.RandomState(5)
    for nv, ne in [(10, 14), (60, 100), (200, 500)]:
        u = rng.randint(0, nv, size=ne).astype(np.int64)
        v = rng.randint(0, nv, size=ne).astype(np.int64)
        keep = u != v
        u, v = u[keep], v[keep]
        got = _lpa_labels(u, v, nv, np.arange(nv), 20)
        want = _lpa_reference(u, v, nv, 20)
        assert np.array_equal(got, want)
    # bipartite 2-cycle case: star + path structures oscillate under
    # synchronous sweeps; the min-break must make it deterministic
    u = np.array([0, 1, 2, 3], dtype=np.int64)
    v = np.array([4, 4, 5, 5], dtype=np.int64)
    got = _lpa_labels(u, v, 6, np.arange(6), 20)
    want = _lpa_reference(u, v, 6, 20)
    assert np.array_equal(got, want)


def test_afetch_bundles_concurrently_sync_transport():
    import time

    from pyrdf2vec_ray.connectors import FetchingSPARQLConnector

    calls = []

    def slow_fetch(endpoint, query):
        calls.append(query)
        time.sleep(0.15)
        return [{"o": {"value": query[-3:]}}]

    c = FetchingSPARQLConnector("http://x", slow_fetch)
    queries = [f"SELECT ?o WHERE {{ q{i:03d} }}" for i in range(12)]
    t0 = time.perf_counter()
    res = c.afetch(queries + queries[:3])  # 3 repeats -> single flight
    wall = time.perf_counter() - t0
    assert len(res) == 15
    assert res[0] == res[12]
    assert len(calls) == 12 == c.n_transport_calls
    # sequential would be >= 12 * 0.15 = 1.8 s; bundled must be far under
    assert wall < 1.0, wall
    # second bundle: all cache hits, zero transport calls
    assert c.afetch(queries) == res[:12]
    assert c.n_transport_calls == 12


def test_afetch_bundles_async_transport():
    import asyncio
    import time

    from pyrdf2vec_ray.connectors import FetchingSPARQLConnector

    async def slow_afetch(endpoint, query):
        await asyncio.sleep(0.15)
        return [{"o": {"value": query}}]

    c = FetchingSPARQLConnector("http://x", slow_afetch)
    t0 = time.perf_counter()
    res = c.afetch([f"q{i}" for i in range(12)])
    wall = time.perf_counter() - t0
    assert len(res) == 12 and res[3][0]["o"]["value"] == "q3"
    assert wall < 1.0, wall


def test_lance_sink_gate(tmp_path):
    import pytest
    import ray.data

    from pyrdf2vec_ray.sinks import write_table

    ds = ray.data.range(10)
    write_table(ds, str(tmp_path / "t"), fmt="parquet")
    assert ray.data.read_parquet(str(tmp_path / "t")).count() == 10
    with pytest.raises(ImportError, match="lance"):
        write_table(ds, str(tmp_path / "t2"), fmt="lance")
    with pytest.raises(ValueError, match="unknown sink format"):
        write_table(ds, str(tmp_path / "t3"), fmt="csvx")


def test_minhash_candidate_distinct_fusion_equivalent():
    """Skipping the candidate-pair distinct (distinct_pairs=False) must
    not change the verified pair set: duplicates from multiple LSH bands
    are absorbed inside verify_jaccard's doc_id-bucketed join."""
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.dedup import (
        minhash_lsh_candidates, minhash_signatures, verify_jaccard,
    )

    base = [
        "the quick brown fox jumps over the lazy dog again and again",
        "pack my box with five dozen liquor jugs before the night ends",
        "ray data streams blocks through the object store with backpressure",
    ]
    rows = []
    for i in range(60):
        t = base[i % 3] + f" filler {i % 5} tail"
        rows.append({"doc_id": i, "text": t})
    docs = ray.data.from_items(rows).materialize()
    sigs = minhash_signatures(docs)

    def pairs_of(cand):
        out = verify_jaccard(docs, cand, threshold=0.5).to_pandas()
        return set(map(tuple, out[["doc_a", "doc_b"]].itertuples(index=False)))

    with_distinct = pairs_of(minhash_lsh_candidates(sigs, distinct_pairs=True))
    fused = pairs_of(minhash_lsh_candidates(sigs, distinct_pairs=False))
    assert with_distinct == fused and len(fused) > 0


def test_pair_packing_roundtrip_32bit():
    from pyrdf2vec_ray.ops.dedup import _pack_pairs, _unpack_pair

    a = np.array([0, 1, 2**31, 2**32 - 1, 12345], dtype=np.int64)
    b = np.array([2**32 - 1, 0, 2**31 + 7, 2**32 - 2, 54321], dtype=np.int64)
    keys = _pack_pairs(a, b)
    assert keys.dtype == np.int64
    got = [_unpack_pair(k) for k in keys]
    assert got == list(zip(a.tolist(), b.tolist()))
    import pytest

    with pytest.raises(ValueError, match="2\\^32"):
        _pack_pairs(np.array([2**32]), np.array([0]))
