"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in pyrdf2vec_ray) calls ray.init()/ray.shutdown().

``queries()`` exposes the implemented operators from SURVEY.md §2 plus
the training-data-pipeline extras; ``oracle_sql()`` gives the DuckDB
equivalent for every SQL-expressible one (same column names).  Entries
without an oracle are rows-only checked (stateful walks with RNG,
hashing ops, approximate search) — their semantics are pinned by the
pytest suite instead.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa

SF_SMOKE = "/root/testdata/sf0.001"


# ---- helpers ---------------------------------------------------------------

def _rename(ds, mapping: dict[str, str]):
    def fn(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            [mapping.get(c, c) for c in batch.column_names]
        )

    return ds.map_batches(fn, batch_format="pyarrow")


_ENTITY_CACHE: dict[tuple, list] = {}


def _entities(sf_dir: str, table: str, col: str, prefix: str) -> list[str]:
    """``prefix:key`` vertex names of ``table``'s rows sorted by key,
    read once per (sf_dir, table)."""
    import pyarrow.parquet as pq

    if (sf_dir, table) not in _ENTITY_CACHE:
        keys = pq.read_table(f"{sf_dir}/{table}.parquet", columns=[col])
        _ENTITY_CACHE[sf_dir, table] = [
            f"{prefix}:{k}" for k in sorted(keys[col].to_pylist())]
    return _ENTITY_CACHE[sf_dir, table]


def _customer_entities(sf_dir: str) -> list[str]:
    return _entities(sf_dir, "customer", "c_custkey", "customer")


def _order_entities(sf_dir: str) -> list[str]:
    """Order vertices sorted by key: an order's first hop branches (its
    customer plus one `contains` hop per line item), so a sampled DFS
    from it can see its sampler."""
    return _entities(sf_dir, "orders", "o_orderkey", "order")


_GI_CACHE: dict[str, Any] = {}
_TRIPLES_CACHE: dict[str, Any] = {}


def _triples(sf_dir: str):
    """The deduplicated relational-KG triples Dataset, MATERIALIZED once
    per sf dir and shared across queries — the driver gate runs ~30
    triple-consuming queries against the same small input; re-running
    the union-read + dedup shuffle per query would dominate the gate's
    time budget.  (Pipelines at corpus scale stream instead — this cache
    is query-harness plumbing, not an operator.)"""
    from pyrdf2vec_ray.sources.tpch_kg import tpch_triples

    if sf_dir not in _TRIPLES_CACHE:
        _TRIPLES_CACHE[sf_dir] = tpch_triples(sf_dir).materialize()
    return _TRIPLES_CACHE[sf_dir]


def _graph_index(sf_dir: str):
    """The hash-sharded, parquet-backed graph index over the relational
    KG (state/sharded_graph.py; no driver-side triples
    materialization), built once per sf dir."""
    if sf_dir not in _GI_CACHE:
        from pyrdf2vec_ray.state.sharded_graph import ShardedGraphIndex

        _GI_CACHE[sf_dir] = ShardedGraphIndex.build(
            _triples(sf_dir), num_shards=8
        )
    return _GI_CACHE[sf_dir]


def _docs(sf_dir: str, columns: tuple = ("doc_id", "text")):
    """documents read pruned to the needed columns — the table also
    carries lang/source/n_chars, which most text ops never touch."""
    import ray.data

    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=list(columns)
    )


def _synth_docs(sf_dir: str):
    """Deterministic interleaved spans documents scaled to the sf dir
    (input_hint schema; no external data)."""
    import pyarrow.parquet as pq

    from pyrdf2vec_ray import synth

    n = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    return synth.synth_documents(n, seed=42, n_entities=max(20, n // 50)), n


# ---- queries ---------------------------------------------------------------

def q_kg_triples(sf_dir: str):
    return _triples(sf_dir)


def q_kg_out_degree(sf_dir: str):
    from pyrdf2vec_ray.shuffle import bucket_count

    return bucket_count(_triples(sf_dir), ["subj"], "out_deg")


def q_sampler_objfreq(sf_dir: str):
    from pyrdf2vec_ray.shuffle import bucket_count

    return bucket_count(_triples(sf_dir), ["obj"], "in_deg")


def q_sampler_predfreq(sf_dir: str):
    from pyrdf2vec_ray.shuffle import bucket_count

    return bucket_count(_triples(sf_dir), ["pred"], "n")


def q_sampler_objpredfreq(sf_dir: str):
    from pyrdf2vec_ray.shuffle import bucket_count

    return bucket_count(_triples(sf_dir), ["pred", "obj"], "n")


def q_vertex_stats(sf_dir: str):
    """The fitted-sampler state as one queryable table (SURVEY §2.4);
    the SQL-expressible columns only (pagerank/community are iterative —
    pinned by pytest instead)."""
    from pyrdf2vec_ray.state.graph_index import GraphIndex
    from pyrdf2vec_ray.stats import vertex_stats

    ds = vertex_stats(GraphIndex.from_dataset(_triples(sf_dir)))
    return ds.select_columns(["name", "in_deg", "out_deg", "pred_count"])


def q_bfs_walks_customers(sf_dir: str):
    """BFS depth-2 walks (no md5) from every customer — the reference's
    RandomWalker(max_depth=2, max_walks=None, md5_bytes=None) on the
    relational KG; every walk here reaches full depth, so the oracle is a
    two-join SQL path query.  Runs on the SHARDED index — the scale path
    with no driver-side graph materialization."""
    from pyrdf2vec_ray.walkers import WalkerSpec, extract_walks

    gi = _graph_index(sf_dir)
    entities = _customer_entities(sf_dir)
    spec = WalkerSpec(strategy="random", max_depth=2, max_walks=None, md5_bytes=None)
    walks = extract_walks(gi, entities, spec, batch_size=256)

    def explode(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        flat = pc.list_flatten(batch["walks"].combine_chunks())  # list<string>
        return pa.table(
            {name: pc.list_element(flat, i)
             for i, name in enumerate(("e0", "p1", "e1", "p2", "e2"))}
        )

    return walks.map_batches(explode, batch_format="pyarrow")


def q_bfs_walks_checkpointed(sf_dir: str):
    """Checkpoint/resume on the WALK pipeline (the north rule's
    mid-pipeline resumability, beyond the construct path): BFS depth-2
    walks from all customers run PARTITIONED over customer-key ranges
    through checkpoint.run_partitioned on the SHARDED graph backend —
    atomic per-partition parquet + manifest, a second run must skip
    every partition (asserted in-query), and the read-back union
    value-checks against the same two-join SQL path oracle as
    bfs_walks_customers."""
    import hashlib
    import os
    import shutil
    import tempfile
    import zlib

    import pyarrow.compute as pc

    from pyrdf2vec_ray.checkpoint import read_run, run_partitioned
    from pyrdf2vec_ray.walkers import WalkerSpec, extract_walks

    gi = _graph_index(sf_dir)
    entities = _customer_entities(sf_dir)
    n_parts = 4
    step = (len(entities) + n_parts - 1) // n_parts
    parts = []
    for i in range(n_parts):
        lo, hi = i * step, min(len(entities), (i + 1) * step)
        fp = hashlib.md5(
            f"{sf_dir}|bfs2|{entities[lo]}|{entities[hi - 1]}|v1".encode()
        ).hexdigest()
        parts.append((f"ents_{lo:08d}_{hi:08d}", fp))

    spec = WalkerSpec(strategy="random", max_depth=2, max_walks=None,
                      md5_bytes=None)

    def explode(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(batch["walks"].combine_chunks())
        return pa.table(
            {name: pc.list_element(flat, i)
             for i, name in enumerate(("e0", "p1", "e1", "p2", "e2"))}
        )

    def build(partition: str):
        lo, hi = (int(x) for x in partition.split("_")[1:])
        walks = extract_walks(gi, entities[lo:hi], spec, batch_size=256)
        return walks.map_batches(explode, batch_format="pyarrow")

    root = os.path.join(
        tempfile.gettempdir(),
        f"graft_ckpt_bfs_{zlib.crc32(sf_dir.encode()):08x}",
    )
    shutil.rmtree(root, ignore_errors=True)
    r1 = run_partitioned(root, parts, build)
    assert not any(r.skipped for r in r1)
    r2 = run_partitioned(root, parts, build)
    assert all(r.skipped for r in r2), "resume recomputed a partition"
    assert [r.rows for r in r1] == [r.rows for r in r2]
    return read_run(root).select_columns(["e0", "p1", "e1", "p2", "e2"])


def q_walklets_customers(sf_dir: str):
    from pyrdf2vec_ray.walkers import WalkerSpec, extract_walks

    gi = _graph_index(sf_dir)
    entities = _customer_entities(sf_dir)
    spec = WalkerSpec(strategy="walklet", max_depth=1, max_walks=None)
    walks = extract_walks(gi, entities, spec, batch_size=256)

    def explode(batch: pa.Table) -> pa.Table:
        w0, w1 = [], []
        for ws in batch["walks"].to_pylist():
            for w in ws:
                if len(w) == 2:
                    w0.append(w[0])
                    w1.append(w[1])
        return pa.table(
            {"w0": pa.array(w0, pa.string()), "w1": pa.array(w1, pa.string())}
        )

    return walks.map_batches(explode, batch_format="pyarrow")


def q_literals_region_chain(sf_dir: str):
    """Literal chain customer -in_nation-> nation -in_region-> region
    (get_pliterals, kg.py:330-350), exploded to (entity, value).  Runs on
    the SHARDED index (name-routed chain hops)."""
    from pyrdf2vec_ray.literals import literals_dataset

    gi = _graph_index(sf_dir)
    entities = _customer_entities(sf_dir)
    ds = literals_dataset(gi, entities, [["in_nation", "in_region"]])

    def explode(batch: pa.Table) -> pa.Table:
        ents, vals = [], []
        for e, chains in zip(batch["entity"].to_pylist(), batch["values"].to_pylist()):
            for v in chains[0]:
                ents.append(e)
                vals.append(v)
        return pa.table(
            {"entity": pa.array(ents, pa.string()), "value": pa.array(vals, pa.string())}
        )

    return ds.map_batches(explode, batch_format="pyarrow")


def q_walks_reverse(sf_dir: str):
    """with_reverse combiner (G4, random.py:134-139): depth-1 BFS both
    directions from every customer; each output walk is the cartesian
    r_walk[:-1] + walk.  Customers without orders keep the bare forward
    walk (the reverse dead-end root survives as `(root,)`).  Exploded to
    (entity, walk-as-string) so mixed walk lengths share one column."""
    from pyrdf2vec_ray.walkers import WalkerSpec, extract_walks

    gi = _graph_index(sf_dir)
    entities = _customer_entities(sf_dir)
    spec = WalkerSpec(strategy="random", max_depth=1, max_walks=None,
                      with_reverse=True, md5_bytes=None)
    walks = extract_walks(gi, entities, spec, batch_size=256)

    def explode(batch: pa.Table) -> pa.Table:
        ents, ws = [], []
        for e, walks_ in zip(batch["entity"].to_pylist(),
                             batch["walks"].to_pylist()):
            for w in walks_:
                ents.append(e)
                ws.append(" ".join(w))
        return pa.table({"entity": pa.array(ents, pa.string()),
                         "walk": pa.array(ws, pa.string())})

    return walks.map_batches(explode, batch_format="pyarrow")


def q_walks_ngram(sf_dir: str):
    """NGramWalker (W4, ngram.py:60-113): depth-2 customer walks with the
    token at even index >= grams replaced by the deterministic id of the
    trailing 3-gram (two-phase global assignment; ids = rank by
    (md5(key), key) via shuffle.dense_ids — no driver-resident map)."""
    from pyrdf2vec_ray.walkers import WalkerSpec, extract_walks

    gi = _graph_index(sf_dir)
    entities = _customer_entities(sf_dir)
    spec = WalkerSpec(strategy="ngram", max_depth=2, max_walks=None, grams=3)
    walks = extract_walks(gi, entities, spec, batch_size=256)

    def explode(batch: pa.Table) -> pa.Table:
        cols = {"e0": [], "p1": [], "e1": [], "p2": [], "g4": []}
        for ws in batch["walks"].to_pylist():
            for w in ws:
                for name, tok in zip(("e0", "p1", "e1", "p2", "g4"), w):
                    cols[name].append(tok)
        return pa.table({k: pa.array(v, pa.string()) for k, v in cols.items()})

    return walks.map_batches(explode, batch_format="pyarrow")


def q_walks_wide_sampled(sf_dir: str):
    """WideSampler-weighted DFS (A6, samplers/wide.py:50-96) from 200
    orders, whose first hop branches (see ``q_walks_dfs_sampled``)."""
    from pyrdf2vec_ray.samplers import SamplerSpec
    from pyrdf2vec_ray.walkers import WalkerSpec

    return _walker_query(
        sf_dir,
        WalkerSpec(strategy="random", max_depth=3, max_walks=6,
                   random_state=21, sampler=SamplerSpec(kind="wide")),
        n=200, roots=_order_entities,
    )


def q_walks_wide_exhausted(sf_dir: str):
    """WideSampler value-checked (A6, samplers/wide.py:50-96): depth-1
    DFS from customers has exactly ONE candidate hop, so wide-sampled
    selection is RNG-independent — walk 1 takes the hop and marks it
    visited, walk 2 exhausts and emits the bare root (same construction
    as walks_dfs_exhausted).  The query still runs the full WideSampler
    fit (neighbor/degree counts joined into hop weights) and the weight
    normalization path, all of which must produce a valid singleton
    distribution for the output to match."""
    from pyrdf2vec_ray.samplers import SamplerSpec
    from pyrdf2vec_ray.walkers import WalkerSpec

    gi = _graph_index(sf_dir)
    entities = _customer_entities(sf_dir)[:100]
    spec = WalkerSpec(strategy="random", max_depth=1, max_walks=2,
                      md5_bytes=None, random_state=5,
                      sampler=SamplerSpec(kind="wide"))
    return _joined_walks(gi, entities, spec)


def q_fasttext_buckets(sf_dir: str):
    """FastText subword machinery value-checked (A12, reference
    fasttext.py:177-214): emits (token, ngram, bucket) with bucket =
    FNV-1a(ngram) % B through the library's ft_ngram_hashes path, over
    short tokens derived from the nation table.  FNV-1a is deliberately
    UNMASKED (like the reference), so the hash of an L-byte token needs
    32+24·L bits — 3-byte tokens keep it inside DuckDB's HUGEINT, which
    reproduces it bit-for-bit via list_reduce.  Also asserts the OOV
    identity in-query (fasttext.py:130-156): a fitted model's OOV
    vector equals the mean of the bucket vectors its ngrams hit, as
    the model's own bucket lookup returns them."""
    from pyrdf2vec_ray.embedders import FastText, compute_ngrams_bytes

    import ray.data

    B = 99991
    nat = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    tokens = sorted(
        {str(n).lower()[:3] for n in nat["n_name"]}
        | {f"n{k}" for k in nat["n_nationkey"]}
    )
    ft = FastText(vector_size=8, epochs=1, seed=3, bucket=B)
    rows = []
    for t in tokens:
        ngrams = [n.decode() for n in compute_ngrams_bytes(t)]
        for ng, h in zip(ngrams, ft.ft_ngram_hashes(t)):
            rows.append((t, ng, h))

    # in-query OOV assertion: fit on the tokens, probe an IRI whose '#'
    # fragment is in-vocab — its vector must equal the mean of the
    # bucket vectors its ngrams hash to
    ft.fit([[list(tokens)]])
    probe = f"http://example.org#{tokens[0]}"
    vec = ft.get_vector(probe)
    hashes = ft.ft_ngram_hashes(probe)
    found = ft._lookup_buckets(set(hashes))
    hits = [found[h] for h in hashes if h in found]
    expect = np.mean(hits, axis=0)
    assert hits and np.allclose(vec, expect), "OOV != mean of bucket vecs"

    t, ng, b = zip(*rows)
    return pa.table(
        {"token": pa.array(t, pa.string()),
         "ngram": pa.array(ng, pa.string()),
         "bucket": pa.array(b, pa.int64())}
    )


def q_fasttext_embeddings(sf_dir: str):
    """FastText variant (A12, embedders/fasttext.py): SGNS + '#'-fragment
    ngram buckets; includes one OOV entity resolved via bucket vectors."""
    import pyarrow as _pa

    from pyrdf2vec_ray.embedders import FastText
    from pyrdf2vec_ray.pipelines.rdf2vec import RDF2VecTransformer
    from pyrdf2vec_ray.walkers import WalkerSpec

    gi = _graph_index(sf_dir)
    entities = _customer_entities(sf_dir)[:100]
    t = RDF2VecTransformer(
        embedder=FastText(vector_size=24, epochs=2, seed=9, bucket=100_000),
        walkers=[WalkerSpec(strategy="random", max_depth=2, max_walks=6,
                            random_state=9)],
    )
    t.fit(gi, entities)
    # transform the fitted entities plus an out-of-vocabulary IRI (the
    # FastText-specific path: mean of its ngram-bucket vectors)
    probe = entities + ["http://example.org#customer_oov"]
    vecs = t.embedder.transform(probe)
    return _pa.table(
        {"entity": _pa.array(probe, _pa.string()),
         "vector": _pa.array([v.tolist() for v in vecs],
                             _pa.list_(_pa.float32()))}
    )


def q_lpa_sweep1(sf_dir: str):
    """Label-propagation (A10's distributed-scale community substitute,
    stages/community.py _lpa_labels) value-checked for one synchronous
    sweep: initial labels are the distinct node ids (sorted-name ranks),
    so every neighbor label count is 1 and the mode-tie rule picks the
    SMALLEST label — i.e. the lexicographically smallest neighbor name,
    closed-form in SQL.  (This KG has no bidirectional (a,b)/(b,a) edge
    pairs, so no neighbor label is double-counted; deeper sweeps only
    repeat the same grouped-mode step, pinned by the vectorized-vs-loop
    pytest.)"""
    from pyrdf2vec_ray.stages.community import _lpa_labels

    ents, u, v, n = _edge_ids(sf_dir)
    labels = _lpa_labels(u, v, n, np.arange(n), max_sweeps=1)
    return pa.table(
        {"name": pa.array([str(e) for e in ents], pa.string()),
         "label": pa.array([str(ents[i]) for i in labels], pa.string())}
    )


def _edge_ids(sf_dir: str):
    """Shared edge-encoding for the centrality/community queries:
    distinct (subj, obj) pairs from the sharded triples, sorted
    factorize to dense ids.  Returns (ents, s_id, d_id, n) — the one
    definition lpa/pagerank/ppr/hits must agree on."""
    import numpy as np
    import pandas as pd

    from pyrdf2vec_ray.shuffle import distinct
    from pyrdf2vec_ray.util import to_table

    triples = _graph_index(sf_dir).triples_dataset()
    pairs = to_table(distinct(triples, ["subj", "obj"]))
    src = np.asarray(pairs["subj"].to_numpy(zero_copy_only=False))
    dst = np.asarray(pairs["obj"].to_numpy(zero_copy_only=False))
    codes, uniq = pd.factorize(np.concatenate([src, dst]), sort=True)
    ents = np.asarray(uniq).astype(np.str_)
    n = len(ents)
    s_id = codes[: len(src)].astype(np.int64)
    d_id = codes[len(src):].astype(np.int64)
    return ents, s_id, d_id, n


def q_pagerank_iter1(sf_dir: str):
    """PageRank power-iteration step value-checked (A5, reference
    samplers/pagerank.py:52-90 nx semantics): one iteration from the
    uniform start over the distinct entity→entity edge list — the exact
    building blocks the sampler fit runs (distinct-pair shuffle, sorted
    factorize id mapping, dangling-mass redistribution) with the
    iterative tail cut so the scores are closed-form in SQL.  Deeper
    iterations only repeat this step (pinned by pytest bounds/parity
    tests)."""
    from pyrdf2vec_ray.samplers import _pagerank_from_pairs

    ents, s_id, d_id, n = _edge_ids(sf_dir)
    pair_key = np.unique(s_id * n + d_id)
    pr = _pagerank_from_pairs(
        (pair_key // n).astype(np.int64), (pair_key % n).astype(np.int64),
        np.ones(n, dtype=bool), n, alpha=0.85, max_iter=1,
    )
    return pa.table(
        {"name": pa.array([str(e) for e in ents], pa.string()),
         "pagerank": pa.array(pr, pa.float64())}
    )


def q_w2v_vocab(sf_dir: str):
    """Word2Vec vocabulary fit value-checked (A11, reference
    word2vec.py:29-58 build_vocab): deterministic depth-1 BFS walks
    from 200 customers feed `DistributedWord2Vec.fit_dataset` with two
    trainers; the model's vocabulary is the count its epochs train from
    (one `embedders.count_walks` task per trainer factorizes that
    split's blocks, the driver merges the partials).  The resulting
    (token, n) table is a plain SQL grouped count over the walk
    definition."""
    import pyarrow.compute as pc

    from pyrdf2vec_ray.embedders_dist import DistributedWord2Vec
    from pyrdf2vec_ray.walkers import WalkerSpec, extract_walks

    gi = _graph_index(sf_dir)
    entities = _customer_entities(sf_dir)[:200]
    spec = WalkerSpec(strategy="random", max_depth=1, max_walks=None,
                      md5_bytes=None)
    raw = extract_walks(gi, entities, spec, batch_size=64)

    def explode_lists(batch: pa.Table) -> pa.Table:
        w = batch["walks"].combine_chunks()
        return pa.table(
            {"entity": batch["entity"].combine_chunks().take(
                pc.list_parent_indices(w)),
             "walk": pc.list_flatten(w)}
        )

    model = DistributedWord2Vec(num_workers=2, num_ps=1, vector_size=4,
                                epochs=1).fit_dataset(
        raw.map_batches(explode_lists, batch_format="pyarrow"))
    return pa.table(
        {"token": pa.array([str(t) for t in model.vocab], pa.string()),
         "n": pa.array(model.counts.astype(np.int64), pa.int64())}
    )


_MENTION_WORDS = ["customer", "part", "order", "supplier", "query", "table"]


def _mention_batches(words: list[str]):
    """Vectorized word-boundary mention extraction over `text`: one
    padded str.contains pass per candidate word (docs are space-
    separated tokens, so this is exact word matching)."""
    import pandas as pd

    def mentions(batch: pd.DataFrame) -> pd.DataFrame:
        text = " " + batch["text"].astype(str) + " "
        ids = batch["doc_id"].astype(str)
        outs = []
        for w in words:
            m = text.str.contains(f" {w} ", regex=False)
            if m.any():
                outs.append(pd.DataFrame({
                    "doc_id": ids[m],
                    "span_idx": np.int32(0),
                    "surface_subj": "doc_" + ids[m],
                    "surface_pred": "mentions",
                    "surface_obj": w,
                }))
        if not outs:
            return pd.DataFrame({
                "doc_id": pd.array([], dtype="str"),
                "span_idx": pd.array([], dtype="int32"),
                "surface_subj": pd.array([], dtype="str"),
                "surface_pred": pd.array([], dtype="str"),
                "surface_obj": pd.array([], dtype="str"),
            })
        return pd.concat(outs, ignore_index=True)

    return mentions


def _kg_edges(sf_dir: str):
    """(a, b) directed edge projection of the KG triples — the shared
    input of the graph-analytics queries."""
    import pandas as pd

    def as_edges(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"a": batch["subj"], "b": batch["obj"]})

    return _triples(sf_dir).map_batches(as_edges, batch_format="pandas")


def q_construct_doc_mentions(sf_dir: str):
    """Construction stage value-checked END-TO-END on the real documents
    table (G7 linking + dedup; pipelines/construct.py): vectorized
    word-boundary mention extraction over `text`, the real
    broadcast-sharded EntityLinker (normalized-surface candidate lookup,
    0.9 linked score; unlinkable doc subjects take the documented
    IRI_PREFIX fallback at 0.1), and the real bucket-shuffle triple
    dedup.  Every step is reproducible in SQL (padded `contains` +
    constant candidate table), so extract→link→canonicalize→dedup gets
    a DuckDB oracle — the construction path is no longer pinned only by
    rows-only checks."""
    from pyrdf2vec_ray.pipelines.construct import dedup_triples, link_mentions
    from pyrdf2vec_ray.stages.link import CandidateIndex

    index = CandidateIndex.build({w: f"kind:{w}" for w in _MENTION_WORDS})
    ds = _docs(sf_dir).map_batches(
        _mention_batches(_MENTION_WORDS), batch_format="pandas",
        batch_size=4096,
    )
    return dedup_triples(link_mentions(ds, index))


def q_construct_mentions_checkpointed(sf_dir: str):
    """Checkpoint/resume (K1) value-checked end-to-end: the word-
    boundary mention construction runs PARTITIONED over doc_id ranges
    through checkpoint.run_partitioned (atomic per-partition parquet +
    manifest); a second run over the same root must skip every
    partition (asserted in-query — zero recompute on resume), and the
    read-back union matches the same SQL oracle as
    construct_doc_mentions.  Per-partition dedup IS global dedup here:
    every triple's subject is doc-range-local."""
    import hashlib
    import os
    import shutil
    import tempfile
    import zlib

    import pyarrow.parquet as pq

    import ray.data

    from pyrdf2vec_ray.checkpoint import read_run, run_partitioned
    from pyrdf2vec_ray.pipelines.construct import dedup_triples, link_mentions
    from pyrdf2vec_ray.stages.link import CandidateIndex

    words = _MENTION_WORDS
    index = CandidateIndex.build({w: f"kind:{w}" for w in words})
    n = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    n_parts = 4
    step = (n + n_parts - 1) // n_parts
    parts = []
    for i in range(n_parts):
        lo, hi = i * step, min(n, (i + 1) * step)
        fp = hashlib.md5(
            f"{sf_dir}|{lo}|{hi}|{','.join(words)}|v1".encode()
        ).hexdigest()
        parts.append((f"docs_{lo:08d}_{hi:08d}", fp))

    def build(partition: str):
        lo, hi = (int(x) for x in partition.split("_")[1:])
        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        ).filter(expr=f"doc_id >= {lo} and doc_id < {hi}")
        ds = docs.map_batches(_mention_batches(words),
                              batch_format="pandas", batch_size=4096)
        return dedup_triples(link_mentions(ds, index))

    root = os.path.join(
        tempfile.gettempdir(),
        f"graft_ckpt_mentions_{zlib.crc32(sf_dir.encode()):08x}",
    )
    shutil.rmtree(root, ignore_errors=True)
    r1 = run_partitioned(root, parts, build)
    assert not any(r.skipped for r in r1)
    r2 = run_partitioned(root, parts, build)
    assert all(r.skipped for r in r2), "resume recomputed a completed partition"
    assert [r.rows for r in r1] == [r.rows for r in r2]
    return read_run(root).select_columns(["subj", "pred", "obj"])


def q_doc_exact_dedup(sf_dir: str):
    from pyrdf2vec_ray.ops.dedup import exact_dedup

    return exact_dedup(_docs(sf_dir))


def q_doc_text_stats(sf_dir: str):
    from pyrdf2vec_ray.ops.text import text_stats

    return text_stats(_docs(sf_dir))


def q_doc_tokens_bpe(sf_dir: str):
    from pyrdf2vec_ray.ops.text import token_count_bpe

    return token_count_bpe(_docs(sf_dir))


def q_tokens_by_lang(sf_dir: str):
    from pyrdf2vec_ray.ops.text import token_count_by_lang

    return token_count_by_lang(_docs(sf_dir, ("doc_id", "text", "lang")))


def q_doc_tfidf(sf_dir: str):
    """Corpus TF-IDF with per-doc top-5 terms (ops/text.tfidf_topk):
    token-bucket shuffle computes df in place (no vocab broadcast),
    doc-bucket shuffle picks the top k.  idf = ln(N/df); tie-break is
    (tfidf rounded 6dp desc, token asc) in both engine and oracle."""
    from pyrdf2vec_ray.ops.text import tfidf_topk

    return tfidf_topk(_docs(sf_dir), k=5)


def q_doc_splits(sf_dir: str):
    """Deterministic train/val/test split assignment (ops/curate):
    splitmix64(doc_id ^ seed) % 10000 against 80/10/10 edges — a pure
    per-row hash, no shuffle, so any worker can recompute any row's
    split; the oracle reproduces splitmix64 bit-for-bit in DuckDB via
    xor/shift/HUGEINT-mod-multiply (curate.splitmix64_sql)."""
    from pyrdf2vec_ray.ops.curate import assign_splits

    return assign_splits(_docs(sf_dir, ("doc_id",)), seed=7)


def _decontam_benchmark(docs):
    """Every 20th doc is the 'evaluation benchmark' side."""

    def pick(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 20 == 0))

    return docs.map_batches(pick, batch_format="pyarrow")


def q_doc_decontaminate(sf_dir: str):
    """Exact benchmark decontamination (ops/curate.decontaminate) with
    planted leaks: every 20th doc is copied into the corpus under
    doc_id+1M, and those same docs form the benchmark — the broadcast
    md5 anti-join must drop both the benchmark originals AND every
    planted copy, value-checked against a SQL NOT IN."""
    import pyarrow.compute as pc

    from pyrdf2vec_ray.ops.curate import decontaminate

    docs = _docs(sf_dir)

    def dup(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        t = batch.filter(pa.array(ids % 20 == 0))
        return pa.table({
            "doc_id": pc.add(t["doc_id"], 1_000_000),
            "text": t["text"],
        })

    corpus = docs.union(docs.map_batches(dup, batch_format="pyarrow"))
    return decontaminate(corpus, _decontam_benchmark(_docs(sf_dir)))


def q_doc_decontam_ngram(sf_dir: str):
    """N-gram (window=8) decontamination with planted PARTIAL leaks:
    for every 20th doc a new doc (doc_id+2M) is planted whose text is
    the benchmark doc's first 12 tokens plus a unique tail — not an
    exact copy, so only shingle-level matching catches it.  Survivors
    must exclude the benchmark docs, the planted partial leaks, and any
    organic doc sharing an 8-gram with the benchmark; the oracle
    recomputes the shingle sets with DuckDB list kernels."""
    import pandas as pd

    from pyrdf2vec_ray.ops.curate import decontaminate_ngram

    docs = _docs(sf_dir)

    def plant(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["doc_id"] % 20 == 0]
        head = b["text"].astype(str).str.split().str[:12].str.join(" ")
        return pd.DataFrame({
            "doc_id": b["doc_id"] + 2_000_000,
            "text": head + " planted-tail-" + b["doc_id"].astype(str),
        })

    corpus = docs.union(
        docs.map_batches(plant, batch_format="pandas")
        .map_batches(lambda t: t, batch_format="pyarrow")
    )
    return decontaminate_ngram(
        corpus, _decontam_benchmark(_docs(sf_dir)), window=8
    )


_SAMPLE_RATES = {"en": 0.9, "de": 0.5, "fr": 0.25, "es": 0.1}


def q_doc_sample_stratified(sf_dir: str):
    """Deterministic stratified sampling / mixture weighting
    (ops/curate.sample_by_hash): per-language keep rates applied via
    splitmix64(doc_id ^ seed) — shuffle-free, stable under
    re-partitioning; the oracle reproduces the hash bit-for-bit."""
    from pyrdf2vec_ray.ops.curate import sample_by_hash

    return sample_by_hash(
        _docs(sf_dir, ("doc_id", "lang")),
        rates_by="lang",
        rates=_SAMPLE_RATES,
        default_rate=1.0,
        seed=11,
    )


def q_hll_registers(sf_dir: str):
    """HyperLogLog distinct-token sketch per language (ops/sketch):
    p=10 registers built from the 64-bit md5 prefix — bucket = top 10
    bits, rho = leading-zero rank of the rest, grouped max.  The whole
    register table is bit-exact in SQL (length(bin(w))); the float
    estimator is pytest-bounded against exact counts."""
    from pyrdf2vec_ray.ops.sketch import hll_registers

    return hll_registers(_docs(sf_dir, ("doc_id", "text", "lang")))


def q_events_hll_daily(sf_dir: str):
    """Grouped HLL over the EVENT stream (ops/sketch
    .hll_registers_values): approximate distinct users per day as
    per-day register tables — the exchange is groups x 2**p rows,
    independent of event volume.  Register table bit-exact in SQL."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.sketch import hll_registers_values

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def day(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"day": batch["ts"].dt.strftime("%Y-%m-%d"),
             "u": batch["user_id"].astype("int64").astype(str)}
        )

    ds = events.map_batches(day, batch_format="pandas")
    return hll_registers_values(ds, "day", "u")


def q_cms_counters(sf_dir: str):
    """Count-Min frequency sketch over token occurrences (ops/sketch):
    4 x 1024 mergeable counters, per-batch partial sums before one tiny
    shuffle; the full counter table is bit-exact in SQL (per-depth
    splitmix64 chains over md5-64 hashes)."""
    from pyrdf2vec_ray.ops.sketch import cms_counters

    return cms_counters(_docs(sf_dir))


def q_bloom_words(sf_dir: str):
    """Bloom membership filter over the corpus tokens (ops/sketch
    .bloom_words): m=4096 bits as 128 32-bit words, k=3 splitmix64
    hashes over md5-64 token hashes, per-batch OR partials before one
    tiny word shuffle.  The full word table is bit-exact in SQL
    (bit_or over the same hash chains); zero-false-negative membership
    is pytest-pinned (bloom_contains)."""
    from pyrdf2vec_ray.ops.sketch import bloom_words

    return bloom_words(_docs(sf_dir))


def q_doc_topk_by_lang(sf_dir: str):
    """Grouped top-k (ops/agg.topk_by_group): the 3 longest docs per
    language by n_chars, ties broken by doc_id — per-batch partial
    top-k combiner (top-k of a union == top-k of per-part top-ks), then
    one bucket shuffle of <= k x groups x batches candidate rows, never
    the corpus.  Oracle: ROW_NUMBER window."""
    import ray.data

    from pyrdf2vec_ray.ops.agg import topk_by_group

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"],
    )
    return topk_by_group(docs, "lang", "n_chars", k=3, id_col="doc_id")


def q_doc_length_quantiles(sf_dir: str):
    """Exact distributed quantiles per group (ops/agg
    .grouped_quantiles): p25/p50/p90 of n_chars per source via a
    (group, value)->count histogram shuffle — the exchange is bounded
    by the value domain, not the row count.  Matches DuckDB
    quantile_disc (sorted element at 1-based rank ceil(n*q))
    bit-for-bit."""
    import ray.data

    from pyrdf2vec_ray.ops.agg import grouped_quantiles

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
    )
    return grouped_quantiles(docs, "source", "n_chars", (0.25, 0.5, 0.9))


def q_inverted_index(sf_dir: str):
    """Distributed inverted index (ops/text.posting_lists): DISTINCT
    (token, doc) combiner per batch, one token-bucket shuffle, sorted
    posting lists serialized as comma-joined ids; min_df=3 prunes the
    singleton tail.  Oracle: array_to_string(array_agg(DISTINCT ...))."""
    from pyrdf2vec_ray.ops.text import posting_lists

    return posting_lists(_docs(sf_dir), min_df=3)


def q_doc_quantiles_sampled(sf_dir: str):
    """Approximate quantiles from a deterministic bottom-k-by-hash
    sample (ops/agg.approx_quantiles_by_sample = sample_exact_per_group
    ∘ hash_semi_join ∘ grouped_quantiles): the unbounded-domain
    quantile path, still fully SQL-reproducible because the sample is
    hash-selected, not random.  Oracle: splitmix64 bottom-k CTE +
    quantile_disc over the sampled subset."""
    import ray.data

    from pyrdf2vec_ray.ops.agg import approx_quantiles_by_sample

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"],
    )
    return approx_quantiles_by_sample(
        docs, "lang", "n_chars", id_col="doc_id", qs=(0.5, 0.9),
        k=64, seed=33,
    )


_MIX_WEIGHTS = {f"src{i}": 1 + (i % 3) for i in range(20)}


def q_doc_interleave(sf_dir: str):
    """Deterministic weighted data-mixture order (ops/curate
    .interleave_sources): WFQ virtual-time schedule over the 20
    sources at weights 1/2/3, per-source order = splitmix64 shuffle,
    global rank computed in CLOSED FORM (no global sort) — the oracle
    recomputes the order definitionally with two ROW_NUMBER windows,
    value-checking the closed form."""
    import ray.data

    from pyrdf2vec_ray.ops.curate import interleave_sources

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    return interleave_sources(docs, _MIX_WEIGHTS, seed=29)


def q_doc_ecdf(sf_dir: str):
    """Per-group percentile rank (ops/agg.ecdf_by_group): each doc's
    n_chars ECDF position within its language — one bounded histogram
    shuffle + broadcast cumulative table + stateless map; corpus rows
    never shuffle.  Oracle: PERCENT_RANK() window (integer count
    division, bit-exact)."""
    import ray.data

    from pyrdf2vec_ray.ops.agg import ecdf_by_group

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"],
    )
    return ecdf_by_group(docs, "lang", "n_chars", id_col="doc_id")


def q_events_funnel(sf_dir: str):
    """Ordered funnel analysis (ops/events.funnel): the deepest
    view -> click -> purchase prefix each user completed under
    strict-ordering semantics (step i+1 strictly after step i's
    earliest completion).  One user-bucket shuffle of the pruned
    funnel-type rows; chained min-after scan vectorized per bucket.
    Oracle: chained min-ts CTE joins.  Users with none of the funnel
    event types are absent on both sides."""
    import ray.data

    from pyrdf2vec_ray.ops.events import funnel

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts"],
    )
    return funnel(ev, ["view", "click", "purchase"])


def q_events_retention(sf_dir: str):
    """Retention triangle (ops/events.retention_cohorts): users by
    first-activity week (epoch-seconds // 604800, exact integer math)
    counted in each later active week — DISTINCT (user, period)
    combiner, one user-bucket shuffle, then a tiny cohort x k count
    shuffle.  Oracle: min-period CTE + distinct-pair join."""
    import ray.data

    from pyrdf2vec_ray.ops.events import retention_cohorts

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return retention_cohorts(ev)


def q_doc_normalize(sf_dir: str):
    """Canonical text normalization (ops/text.normalize_text): strip
    control chars, collapse whitespace, trim, lowercase — the standard
    pre-dedup stage, stateless and shuffle-free.  Oracle: the same
    transform in SQL (trim + regexp_replace + lower)."""
    from pyrdf2vec_ray.ops.text import normalize_text

    return normalize_text(_docs(sf_dir))


def q_doc_above_median(sf_dir: str):
    """Per-group quantile gate (ops/agg.filter_by_group_quantile):
    docs at or above their language's median length — broadcast
    quantile table + stateless filter, no corpus shuffle.  Oracle:
    join against the quantile_disc CTE."""
    import ray.data

    from pyrdf2vec_ray.ops.agg import filter_by_group_quantile

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"],
    )
    return filter_by_group_quantile(docs, "lang", "n_chars", 0.5)


def q_lineitem_pricing(sf_dir: str):
    """TPC-H-Q1-style pricing summary composed from the engine's
    aggregation primitives — per (returnflag, linestatus): quantity /
    price / discounted-price sums and means.  All money math runs in
    integer cents (prices/discounts are 2-decimal by construction), so
    the aggregates are EXACT integer sums on both engines and the
    final float divisions match bit-for-bit — no float sum-order
    hazard at any row count."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.shuffle import bucket_agg

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        qty = np.round(batch["l_quantity"].to_numpy()).astype(np.int64)
        cents = np.round(
            batch["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc = np.round(
            batch["l_discount"].to_numpy() * 100).astype(np.int64)
        g = pd.DataFrame(
            {"l_returnflag": batch["l_returnflag"].to_numpy(),
             "l_linestatus": batch["l_linestatus"].to_numpy(),
             "sq": qty, "sc": cents, "sd": disc,
             "sdp": cents * (100 - disc), "n": 1}
        )
        return g.groupby(["l_returnflag", "l_linestatus"],
                         as_index=False).sum()

    agg = bucket_agg(
        li.map_batches(partial, batch_format="pandas"),
        ["l_returnflag", "l_linestatus"],
        {"sq": ("sq", "sum"), "sc": ("sc", "sum"), "sd": ("sd", "sum"),
         "sdp": ("sdp", "sum"), "n": ("n", "sum")},
        pre=False, num_buckets=4,
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        n = batch["n"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {"l_returnflag": batch["l_returnflag"].to_numpy(),
             "l_linestatus": batch["l_linestatus"].to_numpy(),
             "sum_qty": batch["sq"].to_numpy(dtype=np.int64),
             "sum_base_price": batch["sc"].to_numpy(np.int64) / 100.0,
             "sum_disc_price": batch["sdp"].to_numpy(np.int64) / 10000.0,
             "avg_qty": batch["sq"].to_numpy(np.int64) / n,
             "avg_price": batch["sc"].to_numpy(np.int64) / 100.0 / n,
             "avg_disc": batch["sd"].to_numpy(np.int64) / 100.0 / n,
             "count_order": n}
        )

    return agg.map_batches(finish, batch_format="pandas")


def q_events_daily_users(sf_dir: str):
    """Distinct active users per day — DISTINCT (day, user) per-batch
    combiner then one pre-aggregated count shuffle (the exact-count
    companion to the HLL sketch).  Integer epoch-day math both engines
    reproduce exactly."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.shuffle import bucket_agg

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        unit = np.datetime_data(batch["ts"].dtype)[0]
        div = {"s": 1, "ms": 10**3, "us": 10**6, "ns": 10**9}[unit]
        day = (batch["ts"].astype("int64") // div // 86400).astype("int64")
        return pd.DataFrame(
            {"day": day, "user_id": batch["user_id"].to_numpy()}
        ).drop_duplicates()

    from pyrdf2vec_ray.shuffle import distinct

    uniq = distinct(
        ev.map_batches(pairs, batch_format="pandas"), ["day", "user_id"]
    )
    return bucket_agg(uniq, ["day"], {"users": ("user_id", "size")},
                      num_buckets=4)


def q_orders_by_month(sf_dir: str):
    """Monthly order volume and revenue — calendar grouping via exact
    integer (year, month) parts and integer-cents revenue (no float
    sum-order hazard), pre-aggregated per batch before one tiny
    shuffle."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.shuffle import bucket_agg

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderdate", "o_totalprice"],
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["o_orderdate"]
        cents = np.round(
            batch["o_totalprice"].to_numpy() * 100).astype(np.int64)
        g = pd.DataFrame(
            {"year": d.dt.year.astype("int64"),
             "month": d.dt.month.astype("int64"),
             "cents": cents, "n": 1}
        )
        return g.groupby(["year", "month"], as_index=False).sum()

    agg = bucket_agg(
        orders.map_batches(partial, batch_format="pandas"),
        ["year", "month"],
        {"cents": ("cents", "sum"), "n": ("n", "sum")},
        pre=False, num_buckets=4,
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"year": batch["year"].to_numpy(np.int64),
             "month": batch["month"].to_numpy(np.int64),
             "orders": batch["n"].to_numpy(np.int64),
             "revenue": batch["cents"].to_numpy(np.int64) / 100.0}
        )

    return agg.map_batches(finish, batch_format="pandas")


def q_tokens_distinct_by_lang(sf_dir: str):
    """Exact distinct-token counts per language — the exact companion
    the HLL sketch (hll_registers) estimates, and the accuracy anchor
    its pytest bound is measured against.  Per-batch DISTINCT (lang,
    token) combiner, distributed distinct, pre-aggregated count."""
    import pandas as pd

    from pyrdf2vec_ray.shuffle import bucket_agg, distinct

    docs = _docs(sf_dir, ("doc_id", "text", "lang"))

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].astype(str).str.split().explode().dropna()
        if not len(toks):
            return pd.DataFrame({"lang": pd.Series(dtype="object"),
                                 "token": pd.Series(dtype="object")})
        return pd.DataFrame(
            {"lang": batch["lang"].reset_index(drop=True)
             .iloc[toks.index].to_numpy(),
             "token": toks.to_numpy()}
        ).drop_duplicates()

    uniq = distinct(docs.map_batches(pairs, batch_format="pandas"),
                    ["lang", "token"], num_buckets=8)
    return bucket_agg(uniq, ["lang"], {"distinct_tokens": ("token", "size")},
                      num_buckets=4)


def q_corpus_report(sf_dir: str):
    """Per-source corpus inventory — the one-table summary a curation
    run ships with: document count, total characters, total whitespace
    tokens, and distinct languages per source.  All integer sums
    (bit-exact on both engines) from one pre-aggregated shuffle plus a
    distinct-pair count for the language cardinality."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.shuffle import bucket_agg, distinct

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "source", "n_chars"],
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch["text"].astype(str).str.count(r"\S+").astype("int64")
        g = pd.DataFrame(
            {"source": batch["source"].to_numpy(),
             "n_docs": 1,
             "total_chars": batch["n_chars"].to_numpy(np.int64),
             "total_tokens": toks.to_numpy()}
        )
        return g.groupby("source", as_index=False).sum()

    sums = bucket_agg(
        docs.map_batches(partial, batch_format="pandas"),
        ["source"],
        {"n_docs": ("n_docs", "sum"),
         "total_chars": ("total_chars", "sum"),
         "total_tokens": ("total_tokens", "sum")},
        pre=False, num_buckets=4,
    )
    langs = bucket_agg(
        distinct(docs.select_columns(["source", "lang"]),
                 ["source", "lang"], num_buckets=4),
        ["source"], {"n_langs": ("lang", "size")}, num_buckets=4,
    )
    from pyrdf2vec_ray.ops.join import hash_join

    return hash_join(sums, langs, on=["source"], num_buckets=4)


def q_doc_budget_sample(sf_dir: str):
    """Budget-capped mixture sampling (ops/curate.budget_sample): take
    docs per source, in deterministic splitmix64 order, while each
    source's cumulative n_chars stays within a 20k budget — the "N
    tokens per domain" primitive.  Per-(group, hash-part) weight sums
    give exact base offsets, so no group ever needs to fit one task;
    the inclusive prefix sums in the output are value-checked against
    a windowed SUM oracle."""
    import ray.data

    from pyrdf2vec_ray.ops.curate import budget_sample

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "n_chars"],
    )
    return budget_sample(docs, 20_000, group_col="source",
                         weight_col="n_chars", seed=41)


def q_top_spenders_by_nation(sf_dir: str):
    """Three-operator relational chain — orders ⋈ customers
    (hash_join), per-customer revenue in exact integer cents
    (bucket_agg), top-2 spenders per nation (topk_by_group) — the
    full pipeline value-checked by one windowed SQL oracle.  Ties
    break by custkey ascending on both engines."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.agg import topk_by_group
    from pyrdf2vec_ray.ops.join import hash_join
    from pyrdf2vec_ray.shuffle import bucket_agg

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {"custkey": b["o_custkey"].to_numpy(),
             "cents": np.round(
                 b["o_totalprice"].to_numpy() * 100).astype(np.int64)}
        ),
        batch_format="pandas",
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: b.rename(columns={"c_custkey": "custkey"}),
        batch_format="pandas",
    )
    spend = bucket_agg(orders, ["custkey"], {"cents": ("cents", "sum")},
                       num_buckets=8)
    joined = hash_join(spend, cust, on=["custkey"], num_buckets=8)

    def as_revenue(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"c_nationkey": batch["c_nationkey"].to_numpy(np.int64),
             "custkey": batch["custkey"].to_numpy(np.int64),
             "revenue": batch["cents"].to_numpy(np.int64) / 100.0}
        )

    ranked = topk_by_group(
        joined.map_batches(as_revenue, batch_format="pandas"),
        "c_nationkey", "revenue", k=2, id_col="custkey", num_buckets=8,
    )
    return ranked


def q_doc_sample_exact(sf_dir: str):
    """Exactly-n-per-group deterministic sampling (ops/curate
    .sample_exact_per_group): the 5 smallest splitmix64 key hashes per
    language — the rate-free eval-carve-out counterpart to
    sample_by_hash, mergeable via the grouped top-k combiner.  Oracle:
    shared splitmix64 chain + ROW_NUMBER."""
    import ray.data

    from pyrdf2vec_ray.ops.curate import sample_exact_per_group

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return sample_exact_per_group(docs, 5, "lang", seed=21)


def q_doc_boilerplate(sf_dir: str):
    """Corpus-level boilerplate line removal (ops/text
    .remove_boilerplate): lines occurring in >= 5 distinct docs are
    chrome (CCNet/C4 signal) and get stripped.  Boilerplate is PLANTED
    deterministically in-query on BOTH engines (newsletter/copyright/
    footer lines keyed off doc_id), so the removal does real work; the
    per-doc unique footer proves rare lines survive.  Fit = distinct
    (line, doc) pairs -> one line-bucket count; scrub = broadcast
    sorted array + searchsorted, streaming, shuffle-free."""
    import numpy as np
    import pandas as pd

    from pyrdf2vec_ray.ops.text import remove_boilerplate

    docs = _docs(sf_dir)

    def plant(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].astype("int64")
        s = ids.astype(str)
        promo = np.where(ids % 2 == 0,
                         "\nSubscribe to our newsletter today!", "")
        legal = np.where(
            ids % 3 == 0,
            "\nCopyright 2026 Example Corp. All rights reserved.", "")
        text = (batch["text"].astype(str) + promo + legal
                + "\nVisit example.com for more."
                + "\nDocument footer " + s)
        return pd.DataFrame({"doc_id": ids, "text": text})

    return remove_boilerplate(
        docs.map_batches(plant, batch_format="pandas"), min_docs=5
    )


def q_events_window_topk(sf_dir: str):
    """Windowed leaderboard (ops/events.windowed_topk): the 3 busiest
    users per tumbling hour — partial (window, user) counts, one
    bucket shuffle, then the grouped top-k combiner.  All-integer;
    ties break by user_id asc on both engines."""
    import ray.data

    from pyrdf2vec_ray.ops.events import windowed_topk

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["user_id", "ts"])
    return windowed_topk(ev, k=3, freq="h")


def q_events_running_totals(sf_dir: str):
    """Per-user running totals (ops/events.running_totals): sequence
    number + cumulative value per event, ordered (ts, event_id) within
    user.  ONE user-bucket shuffle, vectorized cumsum per bucket.
    Oracle: row_number / SUM OVER the same window."""
    import ray.data

    from pyrdf2vec_ray.ops.events import running_totals

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"])
    return running_totals(ev)


def q_embedding_clusters(sf_dir: str):
    """Nearest-centroid routing (ops/similarity.cluster_assign): every
    corpus vector assigned to its closest of 8 anchor centroids (the
    first 8 embeddings — same data on both engines) by cosine — the
    IVF/SemDeDup partitioning step.  Broadcast centroids, one matmul
    per batch, no shuffle.  Oracle: cross join + row_number, ids only
    (the knn_bruteforce float discipline)."""
    import numpy as np

    import ray.data

    from pyrdf2vec_ray.ops.similarity import cluster_assign

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    cdf = emb.filter(expr="vec_id < 8").to_pandas().sort_values("vec_id")
    return cluster_assign(emb, np.stack(cdf["embedding"].to_numpy()))


def q_embedding_quantize(sf_dir: str):
    """8-bit scalar quantization (ops/similarity.quantize_fit +
    scalar_quantize): per-dim min-max fit via per-block combiner, then
    a pure-map transform; exploded long-form so the oracle value-checks
    every code.  One expression shape in float64 on both engines →
    bit-identical codes."""
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.similarity import quantize_fit, scalar_quantize

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    lo, hi = quantize_fit(emb)
    q = scalar_quantize(emb, lo, hi, bits=8)

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        Q = np.stack(batch["q"].to_numpy())
        n, d = Q.shape
        return pd.DataFrame(
            {"vec_id": np.repeat(batch["vec_id"].to_numpy(), d),
             "dim": np.tile(np.arange(d, dtype=np.int64), n),
             "code": Q.reshape(-1)})

    return q.map_batches(explode, batch_format="pandas")


def q_part_er_pairs(sf_dir: str):
    """Entity-resolution candidate pairs (ops/er.er_match_pairs):
    parts whose names are within 2 Levenshtein edits, blocked on the
    head noun (last token) so the quadratic step stays within blocks.
    Batched numpy DP, one block-bucket shuffle.  Oracle: DuckDB
    levenshtein over the same blocked self-join."""
    import ray.data

    from pyrdf2vec_ray.ops.er import er_match_pairs

    parts = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"])
    return er_match_pairs(parts, "p_partkey", "p_name", max_dist=2)


def q_part_er_resolve(sf_dir: str):
    """Full entity resolution (ops/er.er_resolve): every part mapped to
    the smallest partkey transitively reachable through <=2-edit name
    matches — blocked pair generation, connected components over the
    match graph, identity union for singletons.  Oracle: recursive-CTE
    transitive closure over the same levenshtein self-join."""
    import ray.data

    from pyrdf2vec_ray.ops.er import er_resolve

    parts = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"])
    return er_resolve(parts, "p_partkey", "p_name", max_dist=2)


def q_doc_line_dedup(sf_dir: str):
    """Global line-level dedup (ops/text.dedup_lines): a line survives
    only at its first corpus-wide occurrence by (doc_id, position) —
    the C4/RefinedWeb hygiene pass.  Duplicate lines are PLANTED
    deterministically on BOTH engines (a corpus-wide tagline, a
    mod-3 promo, a mod-5 within-doc repeat of the doc's unique
    footer), so the keep-first rule does real work across docs AND
    inside one doc."""
    import numpy as np
    import pandas as pd

    from pyrdf2vec_ray.ops.text import dedup_lines

    docs = _docs(sf_dir)

    def plant(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].astype("int64")
        s = ids.astype(str)
        promo = np.where(ids % 3 == 0, "\nLimited time offer inside", "")
        footer = "\nUnique footer " + s
        again = np.where(ids % 5 == 0, "\nUnique footer " + s, "")
        text = (batch["text"].astype(str)
                + "\nShared tagline for everyone" + promo + footer + again)
        return pd.DataFrame({"doc_id": ids, "text": text})

    return dedup_lines(docs.map_batches(plant, batch_format="pandas"))


def q_doc_collocations(sf_dir: str):
    """PMI collocations (ops/text.collocations_pmi): adjacent-token
    pairs with count >= 5 scored log2(P(w1,w2)/(P(w1)P(w2))) — partial
    counts, token-bucket joins for the unigram frequencies, one shared
    float64 expression shape on both engines."""
    from pyrdf2vec_ray.ops.text import collocations_pmi

    return collocations_pmi(_docs(sf_dir), min_count=5)


def q_events_interarrival(sf_dir: str):
    """Per-user inter-arrival gaps (ops/events.interarrival): for each
    event, microseconds since the user's previous event (ordered by
    ts, event_id); first event = -1.  One user-bucket shuffle,
    vectorized per-user diff; all-integer so the LAG oracle is
    bit-exact."""
    import ray.data

    from pyrdf2vec_ray.ops.events import interarrival

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts"])
    return interarrival(ev)


def q_kg_link_predict(sf_dir: str):
    """Adamic–Adar + neighborhood-Jaccard link prediction
    (ops/graph.link_scores) over the TPC-H KG's undirected edge set:
    non-adjacent vertex pairs sharing >= 2 neighbors, scored through
    centers of degree <= 50 only (the documented hub guard — nation
    and supplier hubs are pruned BEFORE the O(d^2) wedge fan-out,
    while Jaccard/AA denominators keep full degrees).  Round 5: the
    operator was restructured from seven key-bucket exchanges to FOUR
    (neighbor degrees annotated in one v-keyed pass; pair aggregation,
    anti-join and Jaccard fused into one tagged pair-bucket pass) —
    sf0.1 41-53s → ~15s, so the query stays EXACT; the
    max_center_fanout top-k knob exists for harder skew, with its
    measured recall cost in BASELINE.md.  Oracle: the same adjacency
    self-join + anti-join in SQL."""
    from pyrdf2vec_ray.ops.graph import link_scores

    return link_scores(_kg_edges(sf_dir), max_center_degree=50,
                       min_common=2)


def q_embedding_neighbor_mean(sf_dir: str):
    """GNN-style one-hop mean aggregation
    (ops/graph.neighbor_mean_features): per-vertex per-dimension mean
    of out-neighbor embeddings over a deterministic 4-out ring+skip
    graph planted on vec_id (dst = v+1, v+2, 3v, 7v mod N, self-loops
    dropped) — identical on both engines, so the feature join and the
    (v, dim)-bucket reduce are what's actually tested.  Long-form
    output (v, dim, nbr_mean)."""
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.graph import neighbor_mean_features

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    n = emb.count()  # parquet metadata fast path, not a data scan

    def edges_batch(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch["vec_id"].to_numpy()
        import numpy as np

        parts = [pd.DataFrame({"src": v, "dst": (v * m + a) % n})
                 for m, a in ((1, 1), (1, 2), (3, 0), (7, 0))]
        e = pd.concat(parts, ignore_index=True)
        e = e[e["src"] != e["dst"]]
        return e.drop_duplicates().reset_index(drop=True)

    edges = emb.select_columns(["vec_id"]).map_batches(
        edges_batch, batch_format="pandas")
    return neighbor_mean_features(edges, emb)


def q_events_transitions(sf_dir: str):
    """First-order Markov transitions between consecutive event types
    per user (ops/events.event_transitions): counts are bit-exact vs
    the LAG oracle; p is one shared c/tot float64 division."""
    import ray.data

    from pyrdf2vec_ray.ops.events import event_transitions

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"])
    return event_transitions(ev)


def q_doc_winsorize(sf_dir: str):
    """Per-language winsorization (ops/agg.winsorize_by_group): n_chars
    clipped into each lang's exact discrete [p5, p95] — histogram-fit
    quantiles, broadcast cut table, stateless clamp; integer domain so
    the quantile_disc + least/greatest oracle is bit-exact."""
    from pyrdf2vec_ray.ops.agg import winsorize_by_group

    docs = _docs(sf_dir, columns=("doc_id", "lang", "n_chars"))
    return winsorize_by_group(docs, "lang", "n_chars", "doc_id",
                              q_lo=0.05, q_hi=0.95)


def q_doc_dedup_best(sf_dir: str):
    """Keep-BEST exact dedup (ops/dedup.dedup_keep_best): per identical
    text, the duplicate with the largest n_chars survives (ties by
    smallest doc_id) — canonical-representative selection, not
    keep-first.  Duplicates are PLANTED (every doc_id % 4 == 0 shares a
    template keyed by doc_id % 50 while keeping its ORIGINAL n_chars as
    the score) identically on both engines, so the argmax does real
    work."""
    import pandas as pd

    from pyrdf2vec_ray.ops.dedup import dedup_keep_best

    docs = _docs(sf_dir, columns=("doc_id", "text", "n_chars"))

    def plant(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].astype("int64")
        tmpl = "Shared template " + (ids % 50).astype(str)
        text = batch["text"].astype(str).where(ids % 4 != 0, tmpl)
        return pd.DataFrame({"doc_id": ids, "text": text,
                             "n_chars": batch["n_chars"].astype("int64")})

    return dedup_keep_best(docs.map_batches(plant, batch_format="pandas"),
                           score_col="n_chars")


def q_events_rolling(sf_dir: str):
    """Daily totals + trailing 7-day rolling sum (ops/events.
    rolling_daily): integer-cents daily reduce, k-fold replication of
    the tiny daily table, second day reduce, inner join back — the SQL
    RANGE-window oracle is bit-exact because only the final output
    divides cents back to float."""
    import ray.data

    from pyrdf2vec_ray.ops.events import rolling_daily

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "value"])
    return rolling_daily(ev, window_days=7)


def q_doc_temperature_sample(sf_dir: str):
    """sqrt-temperature multilingual resampling (ops/curate.
    temperature_sample): expected kept count per lang proportional to
    sqrt(n_lang), capped at rate 1 — all-integer thresholds (Python
    bigints vs HUGEINT) over the shared splitmix64 hash, bit-exact."""
    from pyrdf2vec_ray.ops.curate import temperature_sample

    docs = _docs(sf_dir, columns=("doc_id", "lang"))
    return temperature_sample(docs, "lang", target=300, seed=5)


def q_events_hot_users(sf_dir: str):
    """Skew diagnostic (ops/agg.hot_keys): the 10 heaviest user_ids in
    the event stream with counts and corpus share — what a 100-TB job
    runs before choosing between plain bucket shuffles, salting and
    broadcast."""
    import ray.data

    from pyrdf2vec_ray.ops.agg import hot_keys

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"])
    return hot_keys(ev, "user_id", k=10)


def q_basket_lift(sf_dir: str):
    """Market-basket association mining (ops/mining.basket_lift): part
    pairs co-purchased in >= 3 orders, with lift and confidence —
    distinct (order, part), order-bucket pair generation, min-support
    prune BEFORE the item-frequency joins.  Oracle: the same self-join
    + frequency joins with one shared float expression per score."""
    import ray.data

    from pyrdf2vec_ray.ops.mining import basket_lift

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"])
    return basket_lift(li, "l_orderkey", "l_partkey", min_support=3)


def q_kg_vertex_ids(sf_dir: str):
    """Deterministic dictionary encoding (shuffle.dense_ids): every KG
    vertex gets a dense int64 id = its rank under (md5(name), name) —
    partition-count- and cluster-independent, resume-stable.  Oracle:
    ROW_NUMBER over the same ordering."""
    import pandas as pd

    from pyrdf2vec_ray.shuffle import dense_ids

    triples = _triples(sf_dir)

    def verts(batch: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        return pd.DataFrame({"v": np.concatenate(
            [batch["subj"].to_numpy(), batch["obj"].to_numpy()])})

    return dense_ids(triples.map_batches(verts, batch_format="pandas"), "v")


def q_kg_closure(sf_dir: str):
    """Transitive closure (ops/graph.transitive_closure) of the KG's
    hierarchy-shaped relations — placed_by / in_nation / in_region
    chains (order -> customer -> nation -> region), a DAG of depth 3,
    closed exactly in 2 doubling rounds.  Oracle: recursive-CTE
    reachability over the same edge subset."""
    import pandas as pd

    from pyrdf2vec_ray.ops.graph import transitive_closure

    triples = _triples(sf_dir)

    def hierarchy(batch: pd.DataFrame) -> pd.DataFrame:
        keep = batch["pred"].isin(["placed_by", "in_nation", "in_region"])
        b = batch[keep]
        return pd.DataFrame({"a": b["subj"].to_numpy(),
                             "b": b["obj"].to_numpy()})

    edges = triples.map_batches(hierarchy, batch_format="pandas")
    return transitive_closure(edges, rounds=2)


def q_kg_negative_edges(sf_dir: str):
    """Deterministic negative-edge sampling (ops/graph.negative_edges):
    2 hash-derived corruption targets per KG vertex in the dense-id
    space, self-loops skipped, true edges anti-joined away — the
    KG-embedding training companion to the positive triple stream.
    Oracle: the same splitmix64/dense-id arithmetic in SQL."""
    import pandas as pd

    from pyrdf2vec_ray.ops.graph import negative_edges

    return negative_edges(_kg_edges(sf_dir), k=2, seed=9)


def q_customer_nation_broadcast(sf_dir: str):
    """Broadcast equi-join (ops/join.broadcast_join): customers against
    the 25-row nation dimension — ZERO shuffles, the strategy
    complement to hash_join for dimension-table sides.  Oracle: plain
    SQL join."""
    import ray.data

    from pyrdf2vec_ray.ops.join import broadcast_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"])
    nat = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])

    def key(batch):
        import pandas as pd

        return pd.DataFrame({"c_custkey": batch["c_custkey"],
                             "c_name": batch["c_name"],
                             "nationkey": batch["c_nationkey"]})

    def nkey(batch):
        import pandas as pd

        return pd.DataFrame({"nationkey": batch["n_nationkey"],
                             "n_name": batch["n_name"]})

    return broadcast_join(cust.map_batches(key, batch_format="pandas"),
                          nat.map_batches(nkey, batch_format="pandas"),
                          on=["nationkey"])


def q_lang_confusion(sf_dir: str):
    """Language-ID confusion matrix: predicted vs labeled language
    counts — the evaluation-style composition (ops/text.lang_id ∘
    hash_join ∘ bucket_count) a curation pipeline runs to validate its
    classifier against a labeled slice.  Oracle: the shared lang-ID SQL
    joined back to the labels."""
    import numpy as np

    from pyrdf2vec_ray.ops.join import hash_join
    from pyrdf2vec_ray.ops.text import lang_id
    from pyrdf2vec_ray.shuffle import bucket_count

    # two consumers of one read: pin it once; the lang_id branch gets
    # only the columns it uses
    docs = _docs(sf_dir, columns=("doc_id", "text", "lang")).materialize()
    pred = lang_id(docs.select_columns(["doc_id", "text"]))
    o, i8 = np.dtype("O"), np.dtype("int64")
    joined = hash_join(
        docs.select_columns(["doc_id", "lang"]), pred, on=["doc_id"],
        rschema={"doc_id": i8, "lang_pred": o})
    return bucket_count(joined, ["lang", "lang_pred"], "n")


def q_kg_training_pairs(sf_dir: str):
    """Link-prediction training-set assembly: every distinct directed
    KG edge as a positive (label 1) unioned with the deterministic
    negative samples (label 0, k=2, seed=9) — the labeled-pair table a
    KG-embedding trainer consumes.  Pure composition of kg_triples'
    distinct edges and ops/graph.negative_edges; the oracle unions the
    same two definitions."""
    import pandas as pd

    from pyrdf2vec_ray.ops.graph import negative_edges
    from pyrdf2vec_ray.shuffle import distinct

    # dedup ONCE and feed both branches: negative_edges' internal
    # distinct is idempotent on an already-distinct edge set, so the
    # edge-scale shuffle runs once, not twice
    edges = distinct(_kg_edges(sf_dir), ["a", "b"]).materialize()

    def pos(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"src": batch["a"], "dst": batch["b"]})
        out["label"] = 1
        return out

    def neg(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"src": batch["src"], "dst": batch["dst"]})
        out["label"] = 0
        return out

    positives = edges.map_batches(pos, batch_format="pandas")
    negatives = negative_edges(edges, k=2, seed=9).map_batches(
        neg, batch_format="pandas")
    return positives.union(negatives)


def q_media_wav_real(sf_dir: str):
    """REAL audio decode (ops/multimodal.WavDecoder): each doc gets a
    genuine RIFF/WAV payload — stdlib `wave` ENCODES a square wave
    whose amplitude/length derive from doc_id — and the actor pool
    DECODES it back (stdlib wave + numpy PCM view).  The oracle knows
    only the planting formulas, so a decoder that misparses the
    container (header, sample rate, frame count, PCM byte order)
    mismatches: n = 800 + (id%5)*160 samples at 8 kHz, amplitude
    A = 1000 + (id%7)*500, period-16 square wave → rms = A exactly,
    zero_crossings = n//8 - 1."""
    import io
    import wave

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from pyrdf2vec_ray.ops.multimodal import wav_features

    docs = _docs(sf_dir, columns=("doc_id",))

    def synth(batch: pd.DataFrame) -> pa.Table:
        ids, payloads = [], []
        for did in batch["doc_id"].astype("int64"):
            n = 800 + (int(did) % 5) * 160
            amp = 1000 + (int(did) % 7) * 500
            sig = np.repeat(np.tile(np.array([amp, -amp], np.int16),
                                    n // 16), 8)
            buf = io.BytesIO()
            with wave.open(buf, "wb") as w:
                w.setnchannels(1)
                w.setsampwidth(2)
                w.setframerate(8000)
                w.writeframes(sig.tobytes())
            ids.append(int(did))
            payloads.append(buf.getvalue())
        return pa.Table.from_pydict(
            {"doc_id": pa.array(ids, pa.int64()),
             "payload": pa.array(payloads, pa.binary())})

    payloads = docs.map_batches(synth, batch_format="pandas")
    return wav_features(payloads)


def q_media_pgm_real(sf_dir: str):
    """REAL image decode + resize (ops/multimodal.PgmResizer): each doc
    gets a genuine binary PGM (P5) payload with formula pixels
    ((x*7 + y*13 + id) % 256, dims from id), the actor pool parses the
    PNM header + raw grid with numpy and nearest-resizes to 8x8; the
    oracle recomputes the resized checksum from the formulas alone."""
    import pandas as pd
    import pyarrow as pa

    import numpy as np

    from pyrdf2vec_ray.ops.multimodal import pgm_resized

    docs = _docs(sf_dir, columns=("doc_id",))

    def synth(batch: pd.DataFrame) -> pa.Table:
        ids, payloads = [], []
        for did in batch["doc_id"].astype("int64"):
            did = int(did)
            w = 20 + (did % 4) * 10
            h = 16 + (did % 3) * 8
            y, x = np.mgrid[0:h, 0:w]
            img = ((x * 7 + y * 13 + did) % 256).astype(np.uint8)
            payloads.append(b"P5\n%d %d\n255\n" % (w, h) + img.tobytes())
            ids.append(did)
        return pa.Table.from_pydict(
            {"doc_id": pa.array(ids, pa.int64()),
             "payload": pa.array(payloads, pa.binary())})

    payloads = docs.map_batches(synth, batch_format="pandas")
    return pgm_resized(payloads, width=8, height=8)


def q_media_any_image(sf_dir: str):
    """Import-gated image codec (ops/multimodal.AnyImageResizer, round
    5): the SAME planted binary-PGM payloads as media_pgm_real run
    through the gated decoder — Pillow when installed (Pillow reads
    PGM too), the stdlib P5 parser otherwise — and must reproduce the
    identical resized checksums, so the fallback seam is content-
    checked against the same SQL oracle on either branch."""
    import pandas as pd
    import pyarrow as pa

    import numpy as np

    from pyrdf2vec_ray.ops.multimodal import any_images_resized

    docs = _docs(sf_dir, columns=("doc_id",))

    def synth(batch: pd.DataFrame) -> pa.Table:
        ids, payloads = [], []
        for did in batch["doc_id"].astype("int64"):
            did = int(did)
            w = 20 + (did % 4) * 10
            h = 16 + (did % 3) * 8
            y, x = np.mgrid[0:h, 0:w]
            img = ((x * 7 + y * 13 + did) % 256).astype(np.uint8)
            payloads.append(b"P5\n%d %d\n255\n" % (w, h) + img.tobytes())
            ids.append(did)
        return pa.Table.from_pydict(
            {"doc_id": pa.array(ids, pa.int64()),
             "payload": pa.array(payloads, pa.binary())})

    payloads = docs.map_batches(synth, batch_format="pandas")
    return any_images_resized(payloads, width=8, height=8)


def q_customer_rfm(sf_dir: str):
    """RFM segmentation (recency / frequency / monetary) per customer —
    the classic CRM feature triple, all-integer so the oracle is
    bit-exact: recency_days = days from the customer's last order date
    to the corpus max date, frequency = order count, monetary_cents =
    total spend in integer cents.  One partial-aggregate shuffle
    (per-batch combiner over max-date/count/cents), one broadcast
    scalar (global max date)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.shuffle import bucket_agg

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_totalprice"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        day = (batch["o_orderdate"].astype("datetime64[s]")
               .astype("int64") // 86400)
        cents = np.floor(
            batch["o_totalprice"].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        g = pd.DataFrame({"custkey": batch["o_custkey"].astype("int64"),
                          "last_day": day.to_numpy(), "n": 1, "c": cents})
        return g.groupby("custkey", as_index=False).agg(
            last_day=("last_day", "max"), n=("n", "sum"), c=("c", "sum"))

    parts = orders.map_batches(partial, batch_format="pandas")
    agg = bucket_agg(parts, ["custkey"],
                     {"last_day": ("last_day", "max"), "n": ("n", "sum"),
                      "c": ("c", "sum")}, pre=False).materialize()
    max_day = int(agg.max("last_day"))

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"custkey": batch["custkey"].to_numpy().astype(np.int64),
             "recency_days": max_day
             - batch["last_day"].to_numpy().astype(np.int64),
             "frequency": batch["n"].to_numpy().astype(np.int64),
             "monetary_cents": batch["c"].to_numpy().astype(np.int64)})

    return agg.map_batches(finish, batch_format="pandas")


def q_cohort_ltv(sf_dir: str):
    """Cohort lifetime value: customers grouped by FIRST-order month,
    revenue summed per (cohort_month, order_month) — the acquisition-
    cohort revenue matrix.  Exact integer cents; one customer-bucket
    first-order reduce, one broadcast-free join back, one pair reduce.
    Oracle: window MIN over the same month truncations."""
    import numpy as np
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.join import hash_join
    from pyrdf2vec_ray.shuffle import bucket_agg

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_totalprice"])

    def base(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["o_orderdate"]
        month = (d.dt.year * 100 + d.dt.month).astype("int64")
        cents = np.floor(
            batch["o_totalprice"].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        return pd.DataFrame({"custkey": batch["o_custkey"].astype("int64"),
                             "month": month.to_numpy(), "c": cents})

    rows = orders.map_batches(base, batch_format="pandas").materialize()
    first = bucket_agg(rows, ["custkey"], {"cohort": ("month", "min")})
    i8 = np.dtype("int64")
    joined = hash_join(rows, first, on=["custkey"],
                       lschema={"custkey": i8, "month": i8, "c": i8},
                       rschema={"custkey": i8, "cohort": i8})
    out = bucket_agg(joined, ["cohort", "month"],
                     {"revenue_cents": ("c", "sum")})

    def typed(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"cohort": batch["cohort"].to_numpy().astype(np.int64),
             "month": batch["month"].to_numpy().astype(np.int64),
             "revenue_cents": batch["revenue_cents"].to_numpy()
             .astype(np.int64)})

    return out.map_batches(typed, batch_format="pandas")


def q_revenue_concentration(sf_dir: str):
    """Revenue concentration: the share of total revenue held by
    customers at or above the spend p90 (quantile_disc cut) — the
    Pareto diagnostic behind "top decile of customers" claims.  Spend
    reduces to integer cents per customer (combiner + one reduce); the
    cut comes from the exact histogram-quantile machinery over the
    customer-scale aggregate; the shares are one float64 division per
    side.  Single-row output (n_customers, cut_cents, top_cents,
    total_cents, top_share)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.agg import grouped_quantiles
    from pyrdf2vec_ray.shuffle import bucket_agg
    from pyrdf2vec_ray.util import to_table

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(
            batch["o_totalprice"].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        g = pd.DataFrame({"custkey": batch["o_custkey"].astype("int64"),
                          "c": cents})
        return g.groupby("custkey", as_index=False).agg(c=("c", "sum"))

    spend = bucket_agg(orders.map_batches(partial, batch_format="pandas"),
                       ["custkey"], {"c": ("c", "sum")},
                       pre=False).materialize()

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        out["one"] = "all"
        return out

    qt = to_table(grouped_quantiles(
        spend.map_batches(tag, batch_format="pandas"), "one", "c",
        (0.9,))).to_pandas()
    cut = int(qt["c"].iloc[0])

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        c = batch["c"].to_numpy(np.int64)
        top = c >= cut
        return pd.DataFrame({"n": [len(c)], "total": [int(c.sum())],
                             "top": [int(c[top].sum())]})

    sums = to_table(spend.map_batches(
        partials, batch_format="pandas")).to_pandas().sum()
    import pyarrow as pa

    return pa.table(
        {"n_customers": pa.array([int(sums["n"])], pa.int64()),
         "cut_cents": pa.array([cut], pa.int64()),
         "top_cents": pa.array([int(sums["top"])], pa.int64()),
         "total_cents": pa.array([int(sums["total"])], pa.int64()),
         "top_share": pa.array(
             [float(sums["top"]) / float(sums["total"])], pa.float64())})


def q_doc_robust_stats(sf_dir: str):
    """Median/MAD per language (ops/agg.robust_stats): the outlier-
    resistant location/scale pair, two exact histogram-quantile passes
    with a group-sized broadcast between them.  Oracle: quantile_disc
    + quantile_disc(abs(x - med), 0.5)."""
    import ray.data

    from pyrdf2vec_ray.ops.agg import robust_stats

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])
    return robust_stats(docs, "lang", "n_chars")


def q_doc_prefix_dups(sf_dir: str):
    """Prefix-duplicate detection (ops/dedup.prefix_duplicates) over
    documents ∪ planted half-length truncations (doc_id % 17 == 0 →
    doc_id + 10^6, first floor(len/2) characters) — finds exactly the
    planted truncated re-crawls via the first-k-chars bucket + adjacent
    sorted scan, no global sort.  Oracle: the quadratic starts_with
    self-join over the same corpus."""
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.dedup import prefix_duplicates

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def with_planted(batch: pd.DataFrame) -> pd.DataFrame:
        planted = batch[batch["doc_id"] % 17 == 0]
        planted = pd.DataFrame(
            {"doc_id": planted["doc_id"].to_numpy() + 1_000_000,
             "text": [t[: len(t) // 2] for t in planted["text"]]})
        return pd.concat([batch[["doc_id", "text"]], planted],
                         ignore_index=True)

    corpus = docs.map_batches(with_planted, batch_format="pandas")
    return prefix_duplicates(corpus, k=4)


def q_doc_dup_spans(sf_dir: str):
    """Exact duplicate-substring audit (ops/dedup.duplicate_spans):
    per document, how many of its overlapping 5-token spans also occur
    in another document (the detection half of Lee-et-al-style exact
    substring dedup, window-fixed so the DuckDB oracle can unroll it
    with list slicing).  The synthetic corpus's small vocabulary makes
    cross-document repeats genuinely common, so the span shuffle and
    the >=2-distinct-docs rule both do real work — no planting
    needed."""
    from pyrdf2vec_ray.ops.dedup import duplicate_spans

    return duplicate_spans(_docs(sf_dir), span_tokens=5)


def q_kg_bfs_distances(sf_dir: str):
    """Multi-source shortest-path BFS (ops/graph.bfs_distances): exact
    min-hop distances from three seeds (the smallest order, customer:1,
    nation:3) to everything within 4 directed hops of the KG — frontier
    hash-joins against the edge set, (seed,vertex) distinct, anti-join
    vs visited per level.  Oracle: recursive CTE with min(dist)."""
    import ray.data

    from pyrdf2vec_ray.ops.graph import bfs_distances

    omin = int(ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey"])
        .min("o_orderkey"))
    seeds = [f"order:{omin}", "customer:1", "nation:3"]
    return bfs_distances(_kg_edges(sf_dir), seeds, max_depth=4)


def q_kg_hits_rounds(sf_dir: str):
    """Distributed un-normalized HITS, two full rounds
    (ops/graph.hits_rounds, round 5) — ALL-INTEGER, so unlike the
    float PageRank oracle this one is BIT-exact: per round
    authority(v) = Σ hub over in-edges then hub(u) = Σ authority over
    out-edges, two attach+reduce passes over the once-pinned distinct
    edge relation.  The classic unit-norm scores differ only by a
    positive scalar per round (rankings identical)."""
    from pyrdf2vec_ray.ops.graph import hits_rounds

    return hits_rounds(_kg_edges(sf_dir), rounds=2)


def q_kg_pagerank_rounds(sf_dir: str):
    """Fully distributed PageRank (ops/graph.pagerank_rounds, round 5)
    — the SURVEY A5 scale path (scores⋈edges + dst reduce per round)
    whose driver-twin `_pagerank_from_pairs` backs the sampler fit.
    Two power-iteration rounds over the distinct KG edge relation; the
    oracle unrolls the same two rounds in SQL (dangling mass, uniform
    teleport).  Cross-pinned: pytest matches both the broadcast and
    hash_join paths to the driver form at 1e-12."""
    from pyrdf2vec_ray.ops.graph import pagerank_rounds

    return pagerank_rounds(_kg_edges(sf_dir), rounds=2)


def q_kg_harmonic(sf_dir: str):
    """Bounded-hop harmonic centrality (ops/graph.harmonic_centrality,
    round 5) of the five region vertices over the REVERSED KG edges
    (region ← nation ← member ← order reaches everything in ≤ 3 hops).
    The score is an exact int64 rational over lcm(1..3)=6 — float
    summation order never enters, so the oracle matches bit-for-bit —
    plus the single-division float."""
    import pandas as pd

    from pyrdf2vec_ray.ops.graph import harmonic_centrality

    def rev(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"a": batch["b"], "b": batch["a"]})

    redges = _kg_edges(sf_dir).map_batches(rev, batch_format="pandas")
    seeds = [f"region:{i}" for i in range(5)]
    return harmonic_centrality(redges, seeds, max_depth=3)


def q_nation_members_outer(sf_dir: str):
    """FULL OUTER hash_join (ops/join.py, round 5): per-nation customer
    counts ⟗ per-nation supplier counts — at small scale factors many
    nations have customers but no suppliers (and possibly vice versa),
    so both unmatched sides are exercised; counts COALESCE to 0 on
    both engines so no NULL crosses the compare boundary.  The same
    co-partitioning bucket shuffle as inner/left — every key's rows
    from both sides land in one bucket, including the unmatched."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.join import hash_join
    from pyrdf2vec_ray.shuffle import bucket_count

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_nationkey"])
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_nationkey"])

    def key(col):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"nationkey": batch[col]})

        return fn

    cc = bucket_count(cust.map_batches(key("c_nationkey"),
                                       batch_format="pandas"),
                      ["nationkey"], count_col="n_cust")
    sc = bucket_count(supp.map_batches(key("s_nationkey"),
                                       batch_format="pandas"),
                      ["nationkey"], count_col="n_supp")
    out = hash_join(cc, sc, on=["nationkey"], how="outer")

    def fill(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        for c in ("n_cust", "n_supp"):
            batch[c] = batch[c].fillna(0).astype("int64")
        return batch

    return out.map_batches(fill, batch_format="pandas")


def q_orders_diff(sf_dir: str):
    """Snapshot diff (ops/join.diff_tables): base order snapshot vs a
    derived next-day snapshot (keys %5 dropped, %7 re-priced, %11
    mirrored to new key+10^9 rows) — emits only the changed/added/
    removed keys, the validation step after a CDC compaction."""
    import numpy as np
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.join import diff_tables

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"])

    def base(batch: pd.DataFrame) -> pd.DataFrame:
        keys = batch["o_orderkey"].to_numpy().astype(np.int64)
        cents = np.floor(
            batch["o_totalprice"].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        return pd.DataFrame({"o_orderkey": keys, "cents": cents})

    def nextday(batch: pd.DataFrame) -> pd.DataFrame:
        b = base(batch)
        keys = b["o_orderkey"].to_numpy()
        cents = b["cents"].to_numpy()
        keep = keys % 5 != 0
        out = pd.DataFrame(
            {"o_orderkey": keys[keep],
             "cents": np.where(keys[keep] % 7 == 0,
                               cents[keep] + 100000, cents[keep])})
        newk = keys % 11 == 0
        added = pd.DataFrame({"o_orderkey": keys[newk] + 1_000_000_000,
                              "cents": cents[newk]})
        return pd.concat([out, added], ignore_index=True)

    return diff_tables(
        orders.map_batches(base, batch_format="pandas"),
        orders.map_batches(nextday, batch_format="pandas"),
        key_cols=["o_orderkey"], compare_cols=["cents"])


def q_doc_rank_in_lang(sf_dir: str):
    """Window-rank features (ops/agg.rank_in_group): every document's
    RANK() and PERCENT_RANK() of n_chars within its language — one
    group-bucket shuffle, vectorized per-bucket rank kernel."""
    import ray.data

    from pyrdf2vec_ray.ops.agg import rank_in_group

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"])
    return rank_in_group(docs, "lang", "n_chars", "doc_id")


def q_events_pivot(sf_dir: str):
    """Long → wide pivot (ops/agg.pivot_counts): per-user event-type
    count matrix over the five known event types — one combiner pass,
    one user-bucket shuffle, vectorized per-bucket pivot_table."""
    import ray.data

    from pyrdf2vec_ray.ops.agg import pivot_counts

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])
    return pivot_counts(
        events, "user_id", "event_type",
        ["click", "error", "purchase", "signup", "view"])


def q_table_profile(sf_dir: str):
    """Column census (ops/agg.profile_columns) over documents: per
    column (n_rows, n_null, n_distinct) — exact distinct via one
    (column,value)-bucket dedup of per-batch distinct partials."""
    import ray.data

    from pyrdf2vec_ray.ops.agg import profile_columns

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "source", "n_chars"])
    return profile_columns(docs, ["doc_id", "lang", "source", "n_chars"])


def q_orders_upsert(sf_dir: str):
    """CDC compaction (ops/dedup.upsert_latest): base snapshot = every
    order at version 0 in integer cents; change stream = orders with
    o_orderkey % 7 == 0 re-priced (+100000 cents) at version 1; merged
    snapshot keeps the highest version per key.  One key-bucket shuffle
    of the unioned rows."""
    import numpy as np
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.dedup import upsert_latest

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"])

    def snap(version: int, delta: int, keep_mod7: bool):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            keys = batch["o_orderkey"].to_numpy().astype(np.int64)
            cents = np.floor(
                batch["o_totalprice"].to_numpy(np.float64) * 100 + 0.5
            ).astype(np.int64)
            out = pd.DataFrame(
                {"o_orderkey": keys, "cents": cents + delta,
                 "version": np.int64(version)})
            if keep_mod7:
                out = out[keys % 7 == 0]
            return out
        return f

    base = orders.map_batches(snap(0, 0, False), batch_format="pandas")
    updates = orders.map_batches(snap(1, 100000, True),
                                 batch_format="pandas")
    return upsert_latest(base, updates, ["o_orderkey"], "version")


def q_lineitem_mode(sf_dir: str):
    """Per-returnflag modal quantity (ops/agg.grouped_mode): corpus →
    (group, value) count combiner + one bucket reduce → argmax with
    the deterministic (count desc, value asc) tie-break the oracle's
    ROW_NUMBER replays (SQL mode() leaves ties unspecified)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.agg import grouped_mode

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity"])

    def ints(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"l_returnflag": batch["l_returnflag"],
             "qty": batch["l_quantity"].to_numpy(np.int64)})

    return grouped_mode(li.map_batches(ints, batch_format="pandas"),
                        "l_returnflag", "qty")


def q_events_debounce(sf_dir: str):
    """Retry-storm suppression (ops/events.debounce): drop an event
    when the previous same-(user,type) event is < 30 min older — lag
    semantics, one key-bucket shuffle + vectorized sort/shift pass,
    replayed exactly by the oracle's lag() window."""
    import ray.data

    from pyrdf2vec_ray.ops.events import debounce

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "event_id", "ts"])
    return debounce(ev, min_gap_s=1800)


def q_events_concurrency(sf_dir: str):
    """Capacity-planning sweep (ops/events.peak_concurrency over
    sessionize): per day, sessions overlapping the day and the maximum
    simultaneously-active count — boundary-pair replication per covered
    day, ONE day-bucket shuffle, vectorized sort+cumsum sweep; ties are
    start-before-end so the oracle's window replays exactly."""
    import ray.data

    from pyrdf2vec_ray.ops.events import peak_concurrency, sessionize

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return peak_concurrency(sessionize(ev, gap_minutes=30))


def q_events_autocorr(sf_dir: str):
    """Lag-1 autocorrelation of per-type daily counts: the day-reduce
    feeds a vectorized lag-pair builder, and ops/agg.grouped_corr
    closes the loop on exact int64 sufficient sums — persistence
    diagnostic for event volumes (observation-indexed lag; run
    fill_daily_gaps first for calendar lags)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.agg import grouped_corr
    from pyrdf2vec_ray.shuffle import bucket_agg, bucket_apply

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"event_type": batch["event_type"],
                          "day": batch["ts"].dt.floor("D"), "n": 1})
        return g.groupby(["event_type", "day"], as_index=False).sum()

    daily = bucket_agg(ev.map_batches(partial, batch_format="pandas"),
                       ["event_type", "day"], {"n": ("n", "sum")},
                       pre=False)

    def lag_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["event_type", "day"], kind="mergesort")
        prev = g.groupby("event_type")["n"].shift(1)
        keep = prev.notna()
        return pd.DataFrame(
            {"event_type": g["event_type"].to_numpy()[keep],
             "x": prev[keep].to_numpy(np.int64),
             "y": g["n"].to_numpy(np.int64)[keep.to_numpy()]})

    pairs = bucket_apply(daily, ["event_type"], lag_pairs,
                         batch_format="pandas")
    return grouped_corr(pairs, "event_type", "x", "y")


def q_events_recency(sf_dir: str):
    """Recency-weighted user activity (ops/events.recency_scores):
    Σ 2^(−age/7d) per user from the corpus max-ts anchor — tiny max
    reduce + per-user combiner; float-assoc class (per-term doubles
    identical, sum order differs within rounding)."""
    import ray.data

    from pyrdf2vec_ray.ops.events import recency_scores

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return recency_scores(ev, half_life_days=7.0)


def q_events_cusum(sf_dir: str):
    """Page's CUSUM drift monitor (ops/events.cusum_scores) over
    per-type daily counts: the max(0, S+(x−k)) recursion computed via
    its exact prefix-sum − running-min closed form — all-integer, so
    the nested-window oracle replays bit-exactly."""
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.events import cusum_scores
    from pyrdf2vec_ray.shuffle import bucket_agg

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"event_type": batch["event_type"],
                          "day": batch["ts"].dt.floor("D"), "n": 1})
        return g.groupby(["event_type", "day"], as_index=False).sum()

    daily = bucket_agg(ev.map_batches(partial, batch_format="pandas"),
                       ["event_type", "day"], {"n": ("n", "sum")},
                       pre=False)
    return cusum_scores(daily, slack_k=70, threshold_h=50)


def q_events_daily_dense(sf_dir: str):
    """Calendar-densified per-type daily counts (ops/events.
    fill_daily_gaps over the wma day-reduce): absent days synthesized
    with n=0 and flagged — output bounded by keys × date range."""
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.events import fill_daily_gaps
    from pyrdf2vec_ray.shuffle import bucket_agg

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"event_type": batch["event_type"],
                          "day": batch["ts"].dt.floor("D"), "n": 1})
        return g.groupby(["event_type", "day"], as_index=False).sum()

    daily = bucket_agg(ev.map_batches(partial, batch_format="pandas"),
                       ["event_type", "day"], {"n": ("n", "sum")},
                       pre=False)
    return fill_daily_gaps(daily)


def q_events_wma(sf_dir: str):
    """Dyadic-weight trend line over per-type daily counts
    (ops/events.wma_daily): integer-exact EWMA stand-in (8/4/2/1 over
    the last 4 observed days), combiner day-reduce + one key-bucket
    smoothing pass; oracle is the lag() window form."""
    import ray.data

    from pyrdf2vec_ray.ops.events import wma_daily

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"])
    return wma_daily(ev)


def q_bpe_train_merges(sf_dir: str):
    """BPE tokenizer training (ops/bpe.bpe_train; Sennrich 2016): 50
    merge rules learned from the corpus word-frequency table — the
    vocabulary-sized sufficient statistic is the only distributed
    reduce; the merge loop is driver-side over that bounded table
    (the Word2Vec-vocab residue class).  Iterative and data-dependent
    — not SQL-expressible; rows-only + hand-computed-merge pytests."""
    from pyrdf2vec_ray.ops.bpe import bpe_train

    return bpe_train(_docs(sf_dir), n_merges=50)


def q_doc_tokens_bpe_trained(sf_dir: str):
    """Token budgets under the LEARNED tokenizer (ops/bpe.bpe_encode):
    train 50 merges, broadcast the table, encode every document with a
    per-worker distinct-word cache.  Rows-only (inherits bpe_train's
    non-SQL class); the encode loop is pytest-pinned."""
    from pyrdf2vec_ray.ops.bpe import bpe_encode, bpe_train

    docs = _docs(sf_dir)
    merges = bpe_train(docs, n_merges=50).to_pandas()
    return bpe_encode(docs, merges)


def q_doc_compression(sf_dir: str):
    """zlib compression-ratio quality signal (ops/text.
    compression_ratio) — deterministic but not SQL-expressible
    (rows-only; pytest pins repetitive-vs-random ordering and the
    empty-doc floor)."""
    from pyrdf2vec_ray.ops.text import compression_ratio

    return compression_ratio(_docs(sf_dir))


def q_doc_rrf_fusion(sf_dir: str):
    """Reciprocal-rank fusion (ops/agg.rrf_fuse; Cormack 2009): two
    per-language top-20 rankings (shortest-docs and lowest-id — stand
    ins for the BM25/vector lists whose fusion this operator serves)
    combined as Σ 1/(60+rank) with a deterministic fused rank."""
    import ray.data

    from pyrdf2vec_ray.ops.agg import rrf_fuse, topk_by_group

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"])
    import pandas as pd

    def with_idscore(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["idscore"] = batch["doc_id"]
        return batch

    a = topk_by_group(docs, "lang", "n_chars", 20, "doc_id",
                      ascending=True)
    b = topk_by_group(docs.map_batches(with_idscore,
                                       batch_format="pandas"),
                      "lang", "idscore", 20, "doc_id", ascending=True)
    return rrf_fuse([a, b], "lang", "doc_id")


def q_doc_ttr(sf_dir: str):
    """Type-token ratio lexical diversity (ops/text.type_token_ratio)
    over the shared lowercase token contract — distinct-over-total per
    doc; list_distinct oracle."""
    from pyrdf2vec_ray.ops.text import type_token_ratio

    return type_token_ratio(_docs(sf_dir))


def q_source_token_kl(sf_dir: str):
    """Per-source token-distribution drift (ops/curate.source_kl):
    KL(source ‖ corpus) over 256 md5 unigram bins with add-one
    smoothing — the (group × n_bins)-bounded sibling of the DSIR fit."""
    from pyrdf2vec_ray.ops.curate import source_kl

    return source_kl(_docs(sf_dir, columns=("source", "text")),
                     n_bins=256)


def q_source_lang_entropy(sf_dir: str):
    """Language-mixing entropy per source (ops/agg.grouped_entropy):
    Shannon entropy of each source's language distribution from exact
    counts — the mixing diagnostic next to orders_mi."""
    import ray.data

    from pyrdf2vec_ray.ops.agg import grouped_entropy

    docs = _docs(sf_dir, columns=("source", "lang"))
    return grouped_entropy(docs, "source", "lang")


def q_source_vocab_overlap(sf_dir: str):
    """Pairwise source-vocabulary Jaccard: distinct (source, token)
    census (vocabulary-sized, one combiner reduce) → token-bucket
    self-join counts intersections → tiny pair finisher with exact
    integer sizes; |A∪B| = |A|+|B|−|A∩B|.  The corpus-mixing
    diagnostic ("how much does source X's vocabulary overlap Y's")."""
    import numpy as np
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.shuffle import bucket_agg, bucket_apply

    docs = _docs(sf_dir, columns=("text", "source"))
    import re as _re

    word = _re.compile(r"[a-z']+")

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        toks: list[str] = []
        src: list = []
        for s, t in zip(batch["source"].tolist(),
                        batch["text"].astype(str).tolist()):
            tt = word.findall(t.lower())
            toks.extend(tt)
            src.extend([s] * len(tt))
        return pd.DataFrame({"source": src, "token": toks}) \
            .drop_duplicates()

    st = bucket_agg(docs.map_batches(pairs, batch_format="pandas"),
                    ["source", "token"], {"n": ("token", "size")})

    def inter(g: pd.DataFrame) -> pd.DataFrame:
        j = g.merge(g, on="token")
        j = j[j["source_x"] < j["source_y"]]
        out = j.groupby(["source_x", "source_y"], as_index=False) \
               .agg(n_common=("token", "size"))
        sz = g.groupby("source", as_index=False) \
              .agg(n_vocab=("token", "size"))
        out["kind"] = "pair"
        sz["kind"] = "size"
        return pd.concat([
            out.rename(columns={"source_x": "a", "source_y": "b"}),
            sz.rename(columns={"source": "a"})], ignore_index=True)

    parts = bucket_apply(st, ["token"], inter,
                         batch_format="pandas").to_pandas()
    sizes = (parts[parts["kind"] == "size"]
             .groupby("a")["n_vocab"].sum().astype(np.int64))
    pair = (parts[parts["kind"] == "pair"]
            .groupby(["a", "b"], as_index=False)["n_common"].sum())
    na = pair["a"].map(sizes).to_numpy(np.int64)
    nb = pair["b"].map(sizes).to_numpy(np.int64)
    common = pair["n_common"].to_numpy(np.int64)
    union = na + nb - common
    return pd.DataFrame(
        {"a": pair["a"], "b": pair["b"],
         "n_a": na, "n_b": nb,
         "n_common": common,
         "jaccard": common.astype(np.float64)
                    / union.astype(np.float64)}).sort_values(
        ["a", "b"]).reset_index(drop=True)


def q_doc_readability(sf_dir: str):
    """Flesch reading-ease (ops/text.readability_scores): three regex
    censuses (words, sentence runs, vowel groups) and the classic
    formula — stateless vectorized map, no shuffle; bit-portable to
    the oracle's regexp_extract_all lengths."""
    from pyrdf2vec_ray.ops.text import readability_scores

    return readability_scores(_docs(sf_dir))


def q_doc_ctfidf(sf_dir: str):
    """Class-based TF-IDF topic labels per language cluster
    (ops/text.ctfidf_terms; BERTopic's labeling step): tf_ct·ln(K/df)
    over the lowercase [a-z']+ contract, top-5 per cluster with the
    (score desc, term asc) deterministic tie-break."""
    from pyrdf2vec_ray.ops.text import ctfidf_terms

    docs = _docs(sf_dir, columns=("doc_id", "text", "lang"))
    return ctfidf_terms(docs, cluster_col="lang", k=5)


def q_doc_dsir_weights(sf_dir: str):
    """DSIR importance weights (ops/curate.importance_weights; Xie et
    al. 2023): target corpus = lang='de' documents, raw = all; hashed
    unigram LMs over 256 md5 bins, logw = Σ ln p̂_t/p̂_r per token.
    Two bounded histogram passes + one streaming scoring pass; the
    driver holds 2×256 counters, never rows."""
    import ray.data

    from pyrdf2vec_ray.ops.curate import importance_weights

    docs = _docs(sf_dir, columns=("doc_id", "text", "lang"))
    target = docs.filter(expr="lang == 'de'")
    return importance_weights(
        docs.select_columns(["doc_id", "text"]),
        target.select_columns(["doc_id", "text"]), n_bins=256)


def q_lineitem_regression(sf_dir: str):
    """Per-returnflag OLS of line revenue (integer cents) on quantity
    (ops/agg.grouped_linreg): corpus → per-group exact int64 sufficient
    sums via a combiner + ONE tiny shuffle; the float64 closed form on
    exact sums is bit-identical to the oracle's DOUBLE expression."""
    import numpy as np
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.agg import grouped_linreg

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"])

    def ints(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"l_returnflag": batch["l_returnflag"],
             "qty": batch["l_quantity"].to_numpy(np.int64),
             "cents": np.round(batch["l_extendedprice"].to_numpy()
                               * 100).astype(np.int64)})

    return grouped_linreg(
        li.map_batches(ints, batch_format="pandas"),
        "l_returnflag", "qty", "cents")


def q_orders_mi(sf_dir: str):
    """Mutual information between order status and priority
    (ops/agg.categorical_mi): one combiner-bounded (a,b) pair-count
    reduce (category-cardinality-sized), marginals + MI folded in a
    single-task finisher over the tiny joint table."""
    import ray.data

    from pyrdf2vec_ray.ops.agg import categorical_mi

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority"])
    return categorical_mi(orders, "o_orderstatus", "o_orderpriority")


def q_orders_rollup(sf_dir: str):
    """ROLLUP(status, priority) in one pass (ops/agg.grouping_sets_agg):
    all three grouping levels share a single combiner pass + ONE bucket
    shuffle, vs the UNION-of-GROUP-BYs plan that rescans per level.
    grouping_id is the SQL GROUPING() bitmask; aggregated-away columns
    carry 'ALL'; revenue summed in exact integer cents."""
    import numpy as np
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.agg import grouping_sets_agg

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority", "o_totalprice"])

    def to_cents(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"o_orderstatus": batch["o_orderstatus"],
             "o_orderpriority": batch["o_orderpriority"],
             "cents": np.round(batch["o_totalprice"].to_numpy()
                               * 100).astype(np.int64)})

    return grouping_sets_agg(
        orders.map_batches(to_cents, batch_format="pandas"),
        sets=[["o_orderstatus", "o_orderpriority"],
              ["o_orderstatus"], []],
        value_col="cents")


def q_kg_bgp_match(sf_dir: str):
    """SPARQL basic-graph-pattern evaluation (ops/bgp.bgp_match) inside
    the engine — the query surface the reference only reaches through a
    remote endpoint.  Six-pattern star+chain+cycle query: orders placed
    by customers of region:0 nations, the parts they contain, and the
    suppliers of those parts that sit in the SAME nation as the
    customer (the cycle join binds two variables at once).  The greedy
    planner seeds at the 2-constant region pattern so the chain narrows
    before it widens; every hop is one bucket-hash-join shuffle."""
    from pyrdf2vec_ray.ops.bgp import bgp_match

    return bgp_match(_triples(sf_dir), [
        ("?o", "placed_by", "?c"),
        ("?c", "in_nation", "?n"),
        ("?n", "in_region", "region:0"),
        ("?o", "contains", "?p"),
        ("?p", "supplied_by", "?s"),
        ("?s", "in_nation", "?n"),
    ])


def q_kg_bgp_optional(sf_dir: str):
    """SPARQL OPTIONAL + FILTER through the BGP engine: in_nation
    subjects (customers AND suppliers — variables are untyped, per
    SPARQL) of region:1 nations minus customer:1, LEFT-extended by
    their orders — rows with no order (every supplier, plus TPC-H's
    planted order-less customers) fill the order slot with '' (the
    documented closed-schema stand-in for SPARQL's unbound)."""
    from pyrdf2vec_ray.ops.bgp import bgp_match

    return bgp_match(
        _triples(sf_dir),
        [("?c", "in_nation", "?n"), ("?n", "in_region", "region:1")],
        filters=[("c", "!=", "customer:1")],
        optional=[[("?o", "placed_by", "?c")]])


def q_kg_bgp_minus(sf_dir: str):
    """SPARQL MINUS through the BGP engine: in_nation subjects of
    region:2 nations with NO placed_by order — a key-bucket anti-join
    against the minus group's solution keys; surfaces every supplier
    plus TPC-H's planted order-less customers."""
    from pyrdf2vec_ray.ops.bgp import bgp_match

    return bgp_match(
        _triples(sf_dir),
        [("?c", "in_nation", "?n"), ("?n", "in_region", "region:2")],
        minus=[[("?o", "placed_by", "?c")]])


def q_lineitem_corr(sf_dir: str):
    """Per-returnflag Pearson r of (quantity, revenue cents)
    (ops/agg.grouped_corr): exact int64 sufficient sums + float64
    closed form, bit-identical to the oracle's DOUBLE expression."""
    import numpy as np
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.agg import grouped_corr

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"])

    def ints(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"l_returnflag": batch["l_returnflag"],
             "qty": batch["l_quantity"].to_numpy(np.int64),
             "cents": np.round(batch["l_extendedprice"].to_numpy()
                               * 100).astype(np.int64)})

    return grouped_corr(li.map_batches(ints, batch_format="pandas"),
                        "l_returnflag", "qty", "cents")


def q_kg_bgp_construct(sf_dir: str):
    """SPARQL CONSTRUCT (ops/bgp.bgp_construct): derive NEW
    customer→supplier 'buys_from' edges from the order-part-supplier
    cycle (same-nation constraint) — the BGP engine feeding KG
    construction; solution projection + one distinct shuffle."""
    from pyrdf2vec_ray.ops.bgp import bgp_construct

    return bgp_construct(
        _triples(sf_dir),
        [("?o", "placed_by", "?c"),
         ("?c", "in_nation", "?n"),
         ("?o", "contains", "?p"),
         ("?p", "supplied_by", "?s"),
         ("?s", "in_nation", "?n")],
        template=("?c", "buys_from", "?s"))


def q_kg_bgp_relational(sf_dir: str):
    """KG↔relational bridge: BGP solutions (customers of region:3
    nations) hash-join back to the customer parquet for an exact
    integer-cents account-balance aggregate per nation — pattern
    matching and tabular reduce in ONE streaming plan."""
    import numpy as np
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.bgp import bgp_match
    from pyrdf2vec_ray.ops.join import hash_join
    from pyrdf2vec_ray.shuffle import bucket_agg

    sols = bgp_match(_triples(sf_dir),
                     [("?c", "in_nation", "?n"),
                      ("?n", "in_region", "region:3")],
                     filters=[("c", "<", "supplier:")])
    # '?c < "supplier:"' keeps the customer:* matches ('customer:' <
    # 'supplier:' lexicographically) — VALUES-free typed restriction

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_acctbal"])

    def keyed(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"c": "customer:" + batch["c_custkey"].astype(str),
             "bal_cents": np.round(batch["c_acctbal"].to_numpy()
                                   * 100).astype(np.int64)})

    import numpy as _np

    joined = hash_join(
        sols, cust.map_batches(keyed, batch_format="pandas"),
        on=["c"],
        lschema={"c": _np.dtype("O"), "n": _np.dtype("O")},
        rschema={"c": _np.dtype("O"), "bal_cents": _np.dtype("int64")})
    agg = bucket_agg(joined, ["n"],
                     {"n_customers": ("bal_cents", "size"),
                      "cents": ("bal_cents", "sum")})

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"n": batch["n"],
             "n_customers": batch["n_customers"].to_numpy(np.int64),
             "avg_acctbal": batch["cents"].to_numpy(np.float64)
                            / batch["n_customers"].to_numpy(np.float64)
                            / 100.0})

    return agg.map_batches(finish, batch_format="pandas")


def q_kg_sparql_text(sf_dir: str):
    """The six-pattern region query expressed as an actual SPARQL
    STRING (ops/sparql.sparql_query — the surface a reference user
    writes against a remote endpoint, evaluated in-engine): parses to
    the same bgp_match plan as kg_bgp_match and shares its oracle."""
    from pyrdf2vec_ray.ops.sparql import sparql_query

    return sparql_query(_triples(sf_dir), """
        SELECT * WHERE {
          ?o placed_by ?c .
          ?c in_nation ?n .
          ?n in_region "region:0" .
          ?o contains ?p .
          ?p supplied_by ?s .
          ?s in_nation ?n .
        }
    """)


def q_kg_bgp_union(sf_dir: str):
    """SPARQL UNION (ops/sparql.py, round 5): entities of region:0
    nations ∪ entities of nation:7 — each branch runs its own bgp_match
    plan (branch FILTERs stay branch-local), is projected to the SELECT
    vars, then ONE bucket shuffle dedups the concat (SELECT-DISTINCT
    set semantics = the SQL UNION oracle)."""
    from pyrdf2vec_ray.ops.sparql import sparql_query

    return sparql_query(_triples(sf_dir), """
        SELECT ?x ?n WHERE {
          { ?x in_nation ?n . ?n in_region "region:0" . }
          UNION
          { ?x in_nation ?n . FILTER(?n = "nation:7") }
        }
    """)


def q_kg_bgp_filter_str(sf_dir: str):
    """SPARQL string-function FILTERs (ops/sparql.py, round 5):
    regex / STRSTARTS / CONTAINS over a two-hop BGP — each compiles to
    a vectorized pandas str kernel applied right after the mandatory
    joins (regex is an unanchored search, the DuckDB regexp_matches
    semantics)."""
    from pyrdf2vec_ray.ops.sparql import sparql_query

    return sparql_query(_triples(sf_dir), """
        SELECT ?o ?c ?n WHERE {
          ?o placed_by ?c .
          ?c in_nation ?n .
          FILTER(regex(?c, "^customer:1[0-9]?$"))
          FILTER(STRSTARTS(?n, "nation:1"))
          FILTER(CONTAINS(?o, "7"))
        }
    """)


def q_kg_bgp_groupsum(sf_dir: str):
    """SPARQL numeric aggregates (ops/sparql.py, round 5): per-customer
    SUM/AVG/MIN/MAX/COUNT over order-amount triples, all compiled to
    ONE bucket_agg shuffle (mergeable partials; AVG = sum/size after
    the shuffle; MIN/MAX compare the VARCHAR form like the SQL oracle).
    The KG is augmented with (order:o, total_cents, <int-cents>)
    numeric-literal triples — integer cents via half-away rounding
    (matches SQL round()); per-customer cent sums ≪ 2^53 so float64
    summation is exact in any order on both engines."""
    import ray.data

    from pyrdf2vec_ray.ops.sparql import sparql_query

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )

    def cents(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy()
        c = np.floor(
            batch["o_totalprice"].to_numpy() * 100.0 + 0.5
        ).astype(np.int64)
        return pa.table({
            "subj": pa.array([f"order:{x}" for x in k], pa.string()),
            "pred": pa.array(["total_cents"] * len(k), pa.string()),
            "obj": pa.array([str(x) for x in c], pa.string()),
        })

    triples = _triples(sf_dir).union(
        orders.map_batches(cents, batch_format="pyarrow")
    )
    return sparql_query(triples, """
        SELECT ?c (SUM(?t) AS ?sum_cents) (AVG(?t) AS ?avg_cents)
               (MIN(?t) AS ?min_lex) (MAX(?t) AS ?max_lex)
               (COUNT(?t) AS ?n_orders)
        WHERE { ?o placed_by ?c . ?o total_cents ?t . } GROUP BY ?c
    """)


def q_kg_bgp_countdistinct(sf_dir: str):
    """SPARQL COUNT(DISTINCT ?v) + HAVING (ops/sparql.py, round 5):
    per-region member count (customers + suppliers via in_nation →
    in_region) alongside an exact distinct-nation count.  The distinct
    count rides its OWN (group, value)-distinct bucket shuffle (the
    per-batch distinct combiner moves distinct pairs, not solution
    rows) and hash_joins back onto the plain COUNT at group scale;
    HAVING is a post-aggregate vectorized mask, no exchange."""
    from pyrdf2vec_ray.ops.sparql import sparql_query

    return sparql_query(_triples(sf_dir), """
        SELECT ?r (COUNT(?x) AS ?n_members) (COUNT(DISTINCT ?n) AS ?n_nations)
        WHERE { ?x in_nation ?n . ?n in_region ?r . }
        GROUP BY ?r HAVING(?n_members >= 5)
    """)


def q_kg_sparql_slice(sf_dir: str):
    """SPARQL ORDER BY + LIMIT + OFFSET (ops/sparql.py, round 5): the
    slice is an ordered block-boundary `split_at_indices` over the
    RESULT-sized sorted set — rows never land on the driver.  ?c is
    unique per solution (one nation per customer), so the lexicographic
    total order is deterministic and the slice is engine-independent."""
    from pyrdf2vec_ray.ops.sparql import sparql_query

    return sparql_query(_triples(sf_dir), """
        SELECT ?c ?n WHERE {
          ?c in_nation ?n .
          ?n in_region "region:2" .
          FILTER(STRSTARTS(?c, "customer:"))
        } ORDER BY ?c LIMIT 40 OFFSET 25
    """)


def q_kg_sparql_seqpath(sf_dir: str):
    """SPARQL sequence property path (ops/sparql.py, round 5):
    ``?c in_nation/in_region ?r`` expands AT PARSE TIME into chained
    patterns through a fresh join variable, so the evaluator runs the
    ordinary multiplexed-scan + greedy-join bgp_match plan — sequence
    paths add zero execution machinery."""
    from pyrdf2vec_ray.ops.sparql import sparql_query

    return sparql_query(_triples(sf_dir), """
        SELECT ?c ?r WHERE {
          ?c in_nation/in_region ?r .
          FILTER(STRSTARTS(?c, "customer:"))
        }
    """)


def q_kg_sparql_invpath(sf_dir: str):
    """SPARQL inverse step inside a sequence path (ops/sparql.py,
    round 5): ``?r ^in_region/^in_nation ?s`` — each ^-step swaps its
    pattern's endpoints at parse time (region ← nation ← member),
    then the plain bgp_match plan runs unchanged."""
    from pyrdf2vec_ray.ops.sparql import sparql_query

    return sparql_query(_triples(sf_dir), """
        SELECT ?r ?s WHERE {
          ?r ^in_region/^in_nation ?s .
          FILTER(STRSTARTS(?s, "supplier:"))
        }
    """)


def q_kg_sparql_bind(sf_dir: str):
    """SPARQL BIND + nested plain group (ops/sparql.py, round 5): the
    nested group splices into the parent conjunction at parse time
    (FILTER placement over a pure join is semantics-preserving);
    BIND adds a stateless per-batch column copy and a constant fill
    after the pattern join — the projection pulls the underlying
    source vars so distinct-projection semantics are unchanged."""
    from pyrdf2vec_ray.ops.sparql import sparql_query

    return sparql_query(_triples(sf_dir), """
        SELECT ?c ?n ?grp ?src WHERE {
          ?c in_nation ?n .
          { ?n in_region "region:3" . FILTER(STRSTARTS(?c, "customer:")) }
          BIND(?n AS ?grp)
          BIND("tpch" AS ?src)
        }
    """)


def q_walks_sparql_roots(sf_dir: str):
    """The reference's HEADLINE workflow fully in-engine: SPARQL
    selects the entity set (customers of region:4 nations — the role a
    remote endpoint plays in the reference README), walks extract from
    exactly those roots on the sharded graph.  Oracle: the two-join
    path query restricted by the same region predicate."""
    from pyrdf2vec_ray.ops.sparql import sparql_query
    from pyrdf2vec_ray.walkers import WalkerSpec, extract_walks

    sols = sparql_query(_triples(sf_dir), """
        SELECT ?c WHERE {
          ?c in_nation ?n .
          ?n in_region "region:4" .
          FILTER(?c < "supplier:")
        } ORDER BY ?c
    """).to_pandas()
    entities = sols["c"].tolist()

    gi = _graph_index(sf_dir)
    spec = WalkerSpec(strategy="random", max_depth=2, max_walks=None,
                      md5_bytes=None)
    walks = extract_walks(gi, entities, spec, batch_size=256)

    def explode(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        flat = pc.list_flatten(batch["walks"].combine_chunks())
        return pa.table(
            {name: pc.list_element(flat, i)
             for i, name in enumerate(("e0", "p1", "e1", "p2", "e2"))})

    return walks.map_batches(explode, batch_format="pyarrow")


def q_kg_describe(sf_dir: str):
    """SPARQL DESCRIBE via the text front-end: the subgraph around
    region-0 nations — the binding set stays distributed (two
    semi-joins + a triple distinct; ops/bgp.bgp_describe), so
    describing a million resources is the same plan as five."""
    from pyrdf2vec_ray.ops.sparql import sparql_query

    return sparql_query(
        _triples(sf_dir),
        'DESCRIBE ?n WHERE { ?n in_region "region:0" . }')


def q_kg_bgp_path(sf_dir: str):
    """SPARQL 1.1 property path: ``(in_nation|in_region)+`` — the
    transitive closure of the geographic-containment alternation via
    path doubling (ops/bgp._path_relation over graph.transitive_
    closure); every subject paired with everything it geographically
    rolls up to (customer→nation, customer→…→region, nation→region)."""
    from pyrdf2vec_ray.ops.bgp import bgp_match

    return bgp_match(_triples(sf_dir),
                     [("?c", "(in_nation|in_region)+", "?x")],
                     closure_rounds=2)


def q_kg_bgp_groupcount(sf_dir: str):
    """SPARQL GROUP BY composition: the BGP engine's solution set feeds
    the bucket-count reduce directly (bgp_match → shuffle.bucket_count)
    — aggregate-over-pattern queries stay one streaming plan, no
    driver hop.  Counts in_nation subjects per (region, nation)."""
    from pyrdf2vec_ray.ops.bgp import bgp_match
    from pyrdf2vec_ray.shuffle import bucket_count

    sols = bgp_match(_triples(sf_dir),
                     [("?c", "in_nation", "?n"),
                      ("?n", "in_region", "?r")])
    return bucket_count(sols.select_columns(["r", "n"]), ["r", "n"],
                        count_col="n_subjects")


def q_kg_mis(sf_dir: str):
    """Two bounded Luby MIS rounds (ops/graph.mis_bounded) over the
    undirected KG: md5-priority local minima join the set in parallel,
    neighbors drop out, edge set shrinks.  The oracle unrolls the same
    rounds (LEFT-JOIN min-neighbor + EXCEPT), the kcore/LPA bounded-
    iteration contract."""
    from pyrdf2vec_ray.ops.graph import mis_bounded

    return mis_bounded(_kg_edges(sf_dir), rounds=2)


def _mis_sql(rounds: int) -> str:
    """Unrolled Luby-round oracle matching ops/graph.mis_bounded."""
    def p(col: str) -> str:
        return f"CAST(concat('0x', substr(md5({col}), 1, 15)) AS BIGINT)"

    parts = [_TRIPLES_CTE, """,
        e0 AS (
          SELECT DISTINCT least(subj, obj) AS a,
                 greatest(subj, obj) AS b
          FROM triples WHERE subj <> obj
        ),
        u0 AS (SELECT DISTINCT v FROM
               (SELECT a AS v FROM e0 UNION ALL SELECT b FROM e0))"""]
    for r in range(rounds):
        parts.append(f""",
        m{r} AS (
          SELECT v, min(np) AS mn FROM (
            SELECT a AS v, {p('b')} AS np FROM e{r}
            UNION ALL SELECT b, {p('a')} FROM e{r}
          ) GROUP BY v
        ),
        i{r} AS (
          SELECT u.v FROM u{r} u LEFT JOIN m{r} m ON m.v = u.v
          WHERE m.v IS NULL OR {p('u.v')} < m.mn
        ),
        o{r} AS (
          SELECT DISTINCT n.w AS v FROM (
            SELECT a AS v, b AS w FROM e{r}
            UNION ALL SELECT b, a FROM e{r}
          ) n JOIN i{r} i ON i.v = n.v
        ),
        u{r + 1} AS (
          SELECT v FROM u{r}
          EXCEPT SELECT v FROM i{r}
          EXCEPT SELECT v FROM o{r}
        ),
        e{r + 1} AS (
          SELECT e.a, e.b FROM e{r} e
          JOIN u{r + 1} ua ON ua.v = e.a
          JOIN u{r + 1} ub ON ub.v = e.b
        )""")
    sel = "\n            UNION ALL ".join(
        [f"SELECT v, 'in' AS state FROM i{r}" for r in range(rounds)]
        + [f"SELECT v, 'out' AS state FROM o{r}" for r in range(rounds)]
        + [f"SELECT v, 'undecided' AS state FROM u{rounds}"])
    parts.append("\n            " + sel)
    return "".join(parts)


def q_kg_kcore(sf_dir: str):
    """Bounded k-core peeling (ops/graph.kcore_bounded) over the TPC-H
    KG: 3 peel rounds at k=3; output = surviving vertices with residual
    degree.  The SQL oracle unrolls the identical rounds, so the
    iterative anti-join loop is value-checked end-to-end (Ray may stop
    early at the fixpoint — extra unrolled rounds are the identity)."""
    from pyrdf2vec_ray.ops.graph import kcore_bounded

    return kcore_bounded(_kg_edges(sf_dir), k=3, rounds=3)


def _kcore_sql(k: int, rounds: int) -> str:
    """Unrolled bounded-peel oracle matching ops/graph.kcore_bounded."""
    parts = [
        _TRIPLES_CTE,
        """,
            e0 AS (
              SELECT DISTINCT least(subj, obj) AS a,
                     greatest(subj, obj) AS b
              FROM triples WHERE subj <> obj
            )""",
    ]
    for r in range(rounds):
        parts.append(f""",
            d{r} AS (
              SELECT v, count(*) AS d
              FROM (SELECT a AS v FROM e{r}
                    UNION ALL SELECT b FROM e{r}) GROUP BY v
            ),
            r{r} AS (SELECT v FROM d{r} WHERE d < {k}),
            e{r + 1} AS (
              SELECT e{r}.a, e{r}.b FROM e{r}
              LEFT JOIN r{r} ra ON e{r}.a = ra.v
              LEFT JOIN r{r} rb ON e{r}.b = rb.v
              WHERE ra.v IS NULL AND rb.v IS NULL
            )""")
    parts.append(f"""
            SELECT v, CAST(count(*) AS BIGINT) AS d
            FROM (SELECT a AS v FROM e{rounds}
                  UNION ALL SELECT b FROM e{rounds}) GROUP BY v""")
    return "".join(parts)


_TRI_CACHE: dict[str, Any] = {}


def _order_triangles(sf_dir: str):
    """Materialized per-vertex triangle counts over the order
    co-purchase graph (an undirected edge per pair of orders sharing a
    customer), shared by q_order_triangles and q_order_clustering —
    the clustering coefficient is a pure per-row finisher over the
    same counts, so the O(m^1.5) wedge-closing plan runs once per
    sweep (same fitted-state discipline as _TRIPLES_CACHE)."""
    if sf_dir not in _TRI_CACHE:
        import ray.data

        from pyrdf2vec_ray.ops.graph import triangle_counts
        from pyrdf2vec_ray.shuffle import bucket_apply

        orders = ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey"])

        def pairs(g):
            j = g.merge(g, on="o_custkey", suffixes=("_a", "_b"))
            j = j[j["o_orderkey_a"] < j["o_orderkey_b"]]
            return j.rename(columns={"o_orderkey_a": "a",
                                     "o_orderkey_b": "b"})[["a", "b"]]

        edges = bucket_apply(orders, ["o_custkey"], pairs,
                             batch_format="pandas")
        _TRI_CACHE[sf_dir] = triangle_counts(edges).materialize()
    return _TRI_CACHE[sf_dir]


def q_order_triangles(sf_dir: str):
    """Per-vertex triangle counts (ops/graph.triangle_counts) over the
    order co-purchase graph: an undirected edge per pair of orders
    sharing a customer.  Degree-oriented wedge closing (Schank–Wagner)
    — O(m^1.5), hub-safe — all bucket-keyed exchanges.  Oracle: the
    same orientation + wedge-close expressed as row-value-comparison
    self-joins."""
    return _order_triangles(sf_dir)


def q_order_clustering(sf_dir: str):
    """Local clustering coefficients (ops/graph.clustering_coefficients)
    over the order co-purchase graph — the triangle pipeline's finisher:
    cc = 2·n_tri/(d·(d−1)), 0 below degree 2; float64 on exact counts,
    bit-identical in SQL.  Reuses the sweep-shared materialized
    triangle counts (_order_triangles) and adds NO exchange."""
    import numpy as np
    import pandas as pd

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["degree"].to_numpy(np.float64)
        t = batch["n_tri"].to_numpy(np.float64)
        den = d * (d - 1.0)
        cc = np.where(den > 0, (2.0 * t) / np.where(den > 0, den, 1.0),
                      0.0)
        out = batch[["v", "degree", "n_tri"]].copy()
        out["cc"] = cc
        return out

    return _order_triangles(sf_dir).map_batches(
        finish, batch_format="pandas")


def q_embedding_pq(sf_dir: str):
    """Product-quantization codes (ops/similarity.pq_encode): 64-dim
    corpus → 4 sub-vector codes against the 8 anchor codewords
    (vec_id < 8), nearest by L2 with the (dist asc, id asc) tie rule.
    Broadcast codebook, streaming matmul+argmin map, no shuffle.
    Oracle: list-slice + list_distance row_number routing."""
    import numpy as np
    import ray.data

    from pyrdf2vec_ray.ops.similarity import pq_encode

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    cdf = emb.filter(expr="vec_id < 8").to_pandas().sort_values("vec_id")
    return pq_encode(emb, np.stack(cdf["embedding"].to_numpy()),
                     n_subspaces=4)


def q_kmeans_step(sf_dir: str):
    """Distributed k-means M-step (ops/similarity.centroid_update):
    route every corpus vector to the nearest of 8 anchor centroids by
    cosine, emit per-cluster per-dim means long-form.  Per-batch
    combiner (k·d floats per block), one tiny cluster reduce.  Oracle:
    row_number routing + zipped-unnest per-dim AVG."""
    import ray.data

    from pyrdf2vec_ray.ops.similarity import centroid_update

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    cdf = emb.filter(expr="vec_id < 8").to_pandas().sort_values("vec_id")
    return centroid_update(emb, np.stack(cdf["embedding"].to_numpy()))


def q_embedding_pca(sf_dir: str):
    """Distributed PCA (ops/similarity.pca_fit/pca_transform): fit a
    16-component basis from one sufficient-statistics pass (d+d² floats
    per block), project the corpus with a broadcast matmul.  Rows-only
    (float eigendecomposition isn't SQL-portable; pytest pins fit and
    transform against a numpy reference)."""
    import ray.data

    from pyrdf2vec_ray.ops.similarity import pca_fit, pca_transform

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    mean, comps, _ = pca_fit(emb, n_components=16)
    return pca_transform(emb, mean, comps)


def q_kg_predicate_profile(sf_dir: str):
    """KG schema census: per (predicate, subject-type, object-type)
    triple counts, where type is the IRI's 'prefix:' namespace — the
    domain/range profile an ontology-inference or KG-QA pass derives
    before trusting a constructed graph.  Composition: vectorized
    namespace split → one bucket_agg."""
    import pandas as pd

    from pyrdf2vec_ray.shuffle import bucket_agg

    triples = _triples(sf_dir)

    def typed(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"pred": batch["pred"],
             "subj_type": batch["subj"].str.split(":").str[0],
             "obj_type": batch["obj"].str.split(":").str[0]})

    rows = triples.map_batches(typed, batch_format="pandas")
    out = bucket_agg(rows, ["pred", "subj_type", "obj_type"],
                     {"n": ("pred", "size")})

    def as_i64(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["n"] = batch["n"].astype("int64")
        return batch

    return out.map_batches(as_i64, batch_format="pandas")


def q_kg_functional_preds(sf_dir: str):
    """Functional-predicate detection: for each predicate, the max
    out-fan per subject and whether it is 1 (a functional property —
    the cardinality-constraint inference that decides which predicates
    can key an entity).  Two pre-aggregated bucket reduces: (pred,
    subj) distinct-object counts, then a per-pred max."""
    import numpy as np
    import pandas as pd

    from pyrdf2vec_ray.shuffle import bucket_agg, distinct

    triples = _triples(sf_dir)
    pairs = distinct(triples, ["pred", "subj", "obj"])
    fan = bucket_agg(pairs, ["pred", "subj"],
                     {"fan": ("obj", "size")})
    out = bucket_agg(fan, ["pred"], {"max_fan": ("fan", "max")},
                     pre=False)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        mf = batch["max_fan"].to_numpy().astype(np.int64)
        return pd.DataFrame({"pred": batch["pred"], "max_fan": mf,
                             "functional": mf == 1})

    return out.map_batches(finish, batch_format="pandas")


def q_kmeans_fit3(sf_dir: str):
    """Full distributed k-means (ops/similarity.kmeans_fit): 3 Lloyd
    rounds from the same 8 anchors as kmeans_step — each round is one
    combiner-bounded M-step pass, driver holds only the k·d centroid
    table.  Rows-only (iterated float means aren't SQL-portable; the
    single M-step IS bit-checked by kmeans_step's oracle, and pytest
    pins this loop against a numpy Lloyd reference)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from pyrdf2vec_ray.ops.similarity import kmeans_fit

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    cdf = emb.filter(expr="vec_id < 8").to_pandas().sort_values("vec_id")
    C = kmeans_fit(emb, iters=3,
                   init=np.stack(cdf["embedding"].to_numpy()))
    k, d = C.shape
    return pa.table(
        {"cluster": pa.array(np.repeat(np.arange(k), d), pa.int64()),
         "dim": pa.array(np.tile(np.arange(d), k), pa.int64()),
         "val": pa.array(C.ravel(), pa.float64())})


def q_kg_comentions(sf_dir: str):
    """Entity co-mention graph (pipelines/construct.comention_edges):
    the corpus-derived relatedness layer on top of the asserted KG —
    an undirected weighted edge per entity pair mentioned in the same
    document.  Doc-bucket co-location, vectorized self-merge pair
    generation, pair-bucket count.  Oracle: distinct-mention self-join
    with the a < b half."""
    import pandas as pd

    from pyrdf2vec_ray.pipelines.construct import comention_edges

    docs = _docs(sf_dir)

    def mentions(batch: pd.DataFrame) -> pd.DataFrame:
        text = " " + batch["text"].astype(str) + " "
        ids = batch["doc_id"].astype("int64")
        outs = []
        for w in _MENTION_WORDS:
            m = text.str.contains(f" {w} ", regex=False)
            if m.any():
                outs.append(pd.DataFrame(
                    {"doc_id": ids[m].to_numpy(), "ent": w}))
        if not outs:
            return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                                 "ent": pd.Series(dtype="object")})
        return pd.concat(outs, ignore_index=True)

    return comention_edges(
        docs.map_batches(mentions, batch_format="pandas"))


_BM25_TERMS = ["hash", "dup", "vector", "sort"]


def q_doc_bm25(sf_dir: str):
    """BM25 retrieval (ops/text.bm25_topk): top-20 docs for a
    4-term bag-of-words query (incl. the rare token 'dup' for idf
    contrast).  One tokenize pass emits a tagged union of hit rows +
    per-batch stats partials, materialized once; scoring broadcasts
    the handful of idf floats; the merge is global_topn's bounded
    tree.  Float contract: exact-int tf/dl/df/N, identical
    left-associative double expression on both engines."""
    from pyrdf2vec_ray.ops.text import bm25_topk

    return bm25_topk(_docs(sf_dir), _BM25_TERMS, k=20)


def q_doc_url_domains(sf_dir: str):
    """URL extraction + per-domain census (ops/text.url_domain_stats):
    the provenance report before domain-level filtering (blocklists,
    per-domain caps a la C4/RefinedWeb).  URLs are PLANTED
    deterministically from doc_id on BOTH engines; the RE2-safe domain
    regex replays identically in DuckDB regexp_extract_all.  One
    compiled-regex findall per batch, one domain-bucket shuffle."""
    import pandas as pd

    from pyrdf2vec_ray.ops.text import url_domain_stats

    docs = _docs(sf_dir)

    def plant(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].astype("int64")
        text = (batch["text"].astype(str)
                + " See https://site" + (ids % 37).astype(str)
                + ".example.org/p/" + ids.astype(str)
                + " and http://cdn.example.net/a" + (ids % 5).astype(str))
        return pd.DataFrame({"doc_id": ids, "text": text})

    return url_domain_stats(docs.map_batches(plant, batch_format="pandas"))


def q_doc_priority_sample(sf_dir: str):
    """Weight-proportional sampling (ops/curate.priority_sample):
    priority sampling (Duffield-Lund-Thorup JACM'07) — priority =
    weight / u with u a deterministic splitmix64 uniform, keep the n
    largest.  Every float op is a single IEEE rounding on exact
    inputs, so the oracle match is bit-exact.  Combiner top-n →
    salted merge → one bounded final task."""
    import ray.data

    from pyrdf2vec_ray.ops.curate import priority_sample

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return priority_sample(docs, 40, "n_chars", seed=7)


def q_orders_anti_join(sf_dir: str):
    """Distributed anti-join (ops/join.hash_semi_join, anti=True):
    orders whose customer is NOT in the auto-mobile market segment —
    the shuffle-based decontamination shape for when the filter side is
    too big to broadcast.  Right side reduces to distinct keys per
    batch before its shuffle.  Oracle: NOT EXISTS."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.join import hash_semi_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey"],
    ).map_batches(
        lambda b: b.rename(columns={"o_custkey": "custkey"}),
        batch_format="pandas",
    )
    seg = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"],
    ).map_batches(
        lambda b: (b[b["c_mktsegment"] == "AUTOMOBILE"]
                   .rename(columns={"c_custkey": "custkey"})
                   [["custkey"]]),
        batch_format="pandas",
    )
    return hash_semi_join(orders, seg, on=["custkey"], anti=True)


def q_join_orders_customer(sf_dir: str):
    """General distributed equi-join (ops/join.hash_join): orders ⋈
    customer on custkey — typed-filler tag-and-union, one co-partition
    bucket shuffle, vectorized per-bucket merge.  The first-class
    relational primitive Ray Data lacks; value-checked against the SQL
    inner join."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.join import hash_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    ).map_batches(
        lambda b: b.rename(columns={"o_custkey": "custkey"}),
        batch_format="pandas",
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"],
    ).map_batches(
        lambda b: b.rename(columns={"c_custkey": "custkey"}),
        batch_format="pandas",
    )
    return hash_join(orders, cust, on=["custkey"])


def q_doc_zscore(sf_dir: str):
    """Per-group z-score normalization (ops/agg.zscore_by_group) of
    n_chars within each language: one integer sufficient-statistics
    shuffle (n, sum, sum-of-squares — exact, so the float mean/std
    derive identically in SQL), broadcast group stats, stateless map.
    The oracle reuses the same closed-form derivation instead of
    stddev_samp, whose float accumulation order differs."""
    import ray.data

    from pyrdf2vec_ray.ops.agg import zscore_by_group

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"],
    )
    return zscore_by_group(docs, "lang", "n_chars", id_col="doc_id")


def q_doc_bigram_lm(sf_dir: str):
    """Bigram-LM quality scoring (ops/text.bigram_lm_scores): fit
    add-one-smoothed bigram counts on the EVEN doc_ids (a genuine
    held-out split, so odd docs exercise real OOV bigrams), score every
    doc — FULLY DISTRIBUTED: the fitted pair/context count Datasets
    join against the corpus bigrams in tagged-union bucket shuffles, no
    driver-resident model.  n_bigrams/oov_bigrams are bit-exact ints in
    SQL; the mean log2 prob agrees under the driver's 6-decimal
    rounding."""
    import pandas as pd

    from pyrdf2vec_ray.ops.text import bigram_lm_scores

    docs = _docs(sf_dir)

    def even(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch["doc_id"] % 2 == 0]

    lm = docs.map_batches(even, batch_format="pandas")
    return bigram_lm_scores(docs, lm_docs=lm)


def q_doc_chunks(sf_dir: str):
    """Overlapping training-chunk split (ops/curate.chunk_documents):
    chunk c covers tokens [c*96, c*96+128) — the standard LLM
    pre-tokenization shape, shuffle-free; the SQL oracle is the
    definitional 1-based list slice per generated chunk index."""
    from pyrdf2vec_ray.ops.curate import chunk_documents

    return chunk_documents(_docs(sf_dir), chunk_tokens=128, stride=96)


def q_doc_redact_pii(sf_dir: str):
    """PII scrub (ops/text.redact_pii): emails + international phone
    numbers replaced with typed placeholders.  PII is PLANTED
    deterministically in-query (every doc_id % 3 == 0 gains a contact
    line built from the id on BOTH engines), so the redaction does real
    work and the RE2-compatible patterns replay identically in DuckDB
    regexp_replace."""
    import pandas as pd

    from pyrdf2vec_ray.ops.text import redact_pii

    docs = _docs(sf_dir)

    def plant(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].astype("int64")
        s = ids.astype(str)
        contact = (" Contact user" + s + "@mail.example.com or +1555010"
                   + (ids % 100).astype(str) + " now.")
        text = batch["text"].astype(str) + contact.where(ids % 3 == 0, "")
        return pd.DataFrame({"doc_id": ids, "text": text})

    return redact_pii(docs.map_batches(plant, batch_format="pandas"))


def q_doc_repetition(sf_dir: str):
    """Gopher-style repetition signals (ops/text.repetition_stats):
    top-token ratio + duplicate-2-gram ratio per doc, both reproduced
    in SQL (grouped max + list_distinct over the shingle list)."""
    from pyrdf2vec_ray.ops.text import repetition_stats

    return repetition_stats(_docs(sf_dir))


def q_doc_shuffle_order(sf_dir: str):
    """Deterministic global shuffle order (ops/curate.shuffle_order):
    rank by (splitmix64(doc_id^seed), doc_id) assigned distributedly via
    hash-range partitioning + per-part base offsets; oracle is
    ROW_NUMBER over the same hash."""
    from pyrdf2vec_ray.ops.curate import shuffle_order

    return shuffle_order(_docs(sf_dir, ("doc_id",)), seed=13)


def q_doc_pack_sequences(sf_dir: str):
    """Sequence packing for LLM training (ops/curate.pack_sequences):
    concat-then-chunk token stream positions via a distributed two-level
    prefix sum (per-partition sums -> driver cumsum of 64 rows -> one
    bucket shuffle); the oracle is a SQL window cumsum."""
    from pyrdf2vec_ray.ops.curate import pack_sequences

    return pack_sequences(_docs(sf_dir), budget=2048)


def q_events_interval_join(sf_dir: str):
    """Range join (ops/events.interval_join): every event labeled with
    its 30-min session's bounds — points⋈intervals containment via one
    co-partitioning shuffle + a vectorized record-key searchsorted stab;
    the oracle recomputes sessions with window functions and joins on
    BETWEEN.  Every event must appear exactly once (sessions partition
    the per-user timeline)."""
    import ray.data

    from pyrdf2vec_ray.ops.events import interval_join, sessionize

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    sessions = sessionize(ev, gap_minutes=30)
    return interval_join(ev, sessions, point_cols=("event_id",))


def q_events_sliding(sf_dir: str):
    """Sliding event-time windows (ops/events.sliding_window): 1h window
    advancing every 15min — each event covered by exactly 4 windows;
    replication happens on per-batch pre-aggregated slot rows, not raw
    events.  Integer epoch-second window keys end to end."""
    import ray.data

    from pyrdf2vec_ray.ops.events import sliding_window

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    return sliding_window(ev, window_s=3600, slide_s=900)


def q_events_asof(sf_dir: str):
    """As-of attribution join (ops/events.asof_join): every click event
    matched to the same user's most recent view at-or-before it (inner).
    One co-partitioning bucket shuffle + a vectorized merge_asof per
    bucket; the oracle is DuckDB's native ASOF JOIN over the identical
    deduped right side."""
    import ray.data

    from pyrdf2vec_ray.ops.events import asof_join

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )

    def pick(kind):
        def fn(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return batch.filter(
                pc.equal(batch["event_type"], kind)
            ).drop_columns(["event_type"])

        return fn

    clicks = ev.map_batches(pick("click"), batch_format="pyarrow")
    views = ev.map_batches(pick("view"), batch_format="pyarrow")
    return asof_join(
        clicks, views,
        by="user_id", on="ts",
        left_cols=("event_id", "value"),
        right_cols=("event_id", "value"),
        right_prefix="view_",
    )


def q_events_attribution(sf_dir: str):
    """Last-touch marketing attribution (ops/events.attribution,
    round 5): every purchase credited to the same user's most recent
    click/view within a 6-hour lookback.  Composition: two pruned
    masks over one event pass → asof_join with a tolerance window
    (ONE user-bucket co-partitioning shuffle, vectorized merge_asof
    per bucket; heterogeneous payload dtypes ride the typed-filler
    tag-and-union).  Ties at one timestamp break to the largest touch
    id — the LATERAL ORDER BY ts DESC, id DESC LIMIT 1 oracle."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.events import attribution

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )
    return attribution(ev, conversion_type="purchase",
                       touch_types=("click", "view"),
                       lookback=pd.Timedelta(hours=6))


def q_events_window_join(sf_dir: str):
    """Symmetric stream-stream window join (ops/events.window_join,
    round 5): every (click, error) pair by the same user within ±15
    minutes — error-correlation analysis, the third time-join next to
    as-of (nearest ≤) and interval (point-stabs-range).  One
    co-partitioning user-bucket shuffle; per bucket a vectorized
    searchsorted range sweep (two binary searches per key segment +
    one repeat/arange expansion)."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.events import window_join

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    def pick(kind):
        def fn(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return batch.filter(
                pc.equal(batch["event_type"], kind)
            ).drop_columns(["event_type"])

        return fn

    clicks = ev.map_batches(pick("click"), batch_format="pyarrow")
    errors = ev.map_batches(pick("error"), batch_format="pyarrow")
    return window_join(clicks, errors,
                       window=pd.Timedelta(minutes=15))


def q_events_session_paths(sf_dir: str):
    """Session path mining (ops/events.session_paths, round 5):
    per-session ordered event-type sequences counted corpus-wide,
    pruned to n ≥ 3.  Reuses sessionize's user-bucket shuffle; bucket
    kernels emit PRE-COUNTED (path, n) partials and one path-keyed
    bucket_agg sums them.  The (ts, event_id) sort tie-break makes
    equal-timestamp order engine-independent — the oracle's
    string_agg uses the same ORDER BY."""
    import ray.data

    from pyrdf2vec_ray.ops.events import session_paths

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    )
    return session_paths(ev, gap_minutes=30, min_count=3)


def q_events_props_extract(sf_dir: str):
    """Vectorized flat-key JSON extraction (ops/events.
    json_extract_flat, round 5) over the events ``props`` column —
    one RE2-compatible str.extract per key, never a per-row
    json.loads — composed with a per-value count.  Oracle: DuckDB's
    real JSON parser (json_extract_string), so the regex subset is
    value-checked against a full parser on 10k machine-written
    objects."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.events import json_extract_flat
    from pyrdf2vec_ray.shuffle import bucket_count

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "props"])
    flat = json_extract_flat(ev, col="props", keys=(("k", "int64"),),
                             keep=("props",))

    def to_plain(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": batch["k"].astype("int64")})

    return bucket_count(flat.map_batches(to_plain, batch_format="pandas"),
                        ["k"], count_col="n")


def q_events_hourly(sf_dir: str):
    import ray.data

    from pyrdf2vec_ray.ops.events import tumbling_window

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    out = tumbling_window(events, freq="h")
    return out.select_columns(["user_id", "window_start", "n_events"])


def q_knn_bruteforce(sf_dir: str):
    import ray.data

    from pyrdf2vec_ray.ops.similarity import knn_bruteforce

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    qdf = emb.filter(expr="vec_id < 5").to_pandas().sort_values("vec_id")
    out = knn_bruteforce(
        emb,
        np.stack(qdf["embedding"].to_numpy()),
        qdf["vec_id"].to_numpy(),
        k=5,
    )
    return out.select(["query_id", "neighbor_id"])


# ---- rows-only queries (non-SQL-expressible; pinned by pytest) -------------

def q_construct_triples(sf_dir: str):
    """Flagship: interleaved spans docs → extraction → linking → dedup."""
    from pyrdf2vec_ray import synth
    from pyrdf2vec_ray.pipelines.construct import construct_kg

    docs, n = _synth_docs(sf_dir)
    n_entities = max(20, n // 50)
    cands = {
        synth.entity_name(i).casefold(): synth.entity_iri(i)
        for i in range(n_entities)
    }
    return construct_kg(docs, cands)


def q_construct_checkpointed(sf_dir: str):
    """Resumable construction (north_rule): doc-range partitions each
    write atomically with a manifest entry; the second invocation below
    proves resume (all partitions skipped, zero recompute) and the
    result is the partitioned parquet read back as one Dataset."""
    import tempfile

    from pyrdf2vec_ray import synth
    from pyrdf2vec_ray.checkpoint import construct_kg_checkpointed, read_run

    _, n = _synth_docs(sf_dir)
    n_entities = max(20, n // 50)
    cands = {
        synth.entity_name(i).casefold(): synth.entity_iri(i)
        for i in range(n_entities)
    }
    root = tempfile.mkdtemp(prefix="graft_ckpt_")
    r1 = construct_kg_checkpointed(root, n, cands, n_partitions=4,
                                   n_entities=n_entities)
    assert not any(p.skipped for p in r1)
    r2 = construct_kg_checkpointed(root, n, cands, n_partitions=4,
                                   n_entities=n_entities)
    assert all(p.skipped for p in r2), "resume must skip completed partitions"
    return read_run(root)


def q_doc_lang_id(sf_dir: str):
    from pyrdf2vec_ray.ops.text import lang_id

    return lang_id(_docs(sf_dir))


def q_doc_quality(sf_dir: str):
    from pyrdf2vec_ray.ops.text import quality_scores

    return quality_scores(_docs(sf_dir))


def q_doc_simhash(sf_dir: str):
    from pyrdf2vec_ray.ops.dedup import simhash

    return simhash(_docs(sf_dir))


def q_doc_fingerprint(sf_dir: str):
    from pyrdf2vec_ray.ops.text import fingerprint

    return fingerprint(_docs(sf_dir))


def q_minhash_neardup(sf_dir: str):
    from pyrdf2vec_ray.ops.dedup import minhash_dedup_pairs

    return minhash_dedup_pairs(_docs(sf_dir), threshold=0.8)


def q_minhash_exact_planted(sf_dir: str):
    """MinHash+LSH with planted exact duplicates (every 20th doc copied
    under doc_id+1M) at threshold 1.0: identical texts give identical
    signatures, so LSH recall is certain and the verified output must be
    EXACTLY the planted pair set — value-checked by SQL; a recall or
    verification regression drops rows.  The stochastic 0.8-threshold
    pipeline stays rows-only (approximate by design)."""
    import pyarrow.compute as pc

    from pyrdf2vec_ray.ops.dedup import minhash_dedup_pairs

    docs = _docs(sf_dir)

    def dup(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        t = batch.filter(pa.array(ids % 20 == 0))
        return pa.table({
            "doc_id": pc.add(t["doc_id"], 1_000_000),
            "text": t["text"],
        })

    planted = docs.union(docs.map_batches(dup, batch_format="pyarrow"))
    return minhash_dedup_pairs(planted, threshold=1.0)


def q_ngram_jaccard(sf_dir: str):
    """Standalone n-gram Jaccard verification value-checked with GRADED
    similarities (ops/dedup.verify_jaccard — the distributed pair⋈shingle
    join + pair-keyed regroup): each doc i < 25 is paired with a copy
    truncated by its last 10 tokens (id+100,000), giving jaccard values
    strictly between 0 and 1 that the oracle reproduces with DuckDB list
    kernels (string shingles vs our crc32-hashed shingles — identical
    ratios absent intra-pair crc collisions, which the fixed data
    doesn't have)."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.dedup import verify_jaccard

    docs = _docs(sf_dir)

    def truncate(batch: pd.DataFrame) -> pa.Table:
        toks = batch["text"].astype(str).str.split()
        # emit ARROW so the union with the parquet-backed side keeps one
        # block type (mixed pandas/arrow blocks break the builder)
        return pa.table(
            {"doc_id": pa.array((batch["doc_id"] + 100_000).to_numpy(),
                                pa.int64()),
             "text": pa.array(
                 [" ".join(t[: max(1, len(t) - 10)]) for t in toks],
                 pa.string())}
        )

    trunc = docs.map_batches(truncate, batch_format="pandas")
    pairs = ray.data.from_arrow(pa.table(
        {"doc_a": pa.array(range(25), pa.int64()),
         "doc_b": pa.array([i + 100_000 for i in range(25)], pa.int64())}
    ))
    return verify_jaccard(docs.union(trunc), pairs, k=5, threshold=0.0)


def q_doc_containment(sf_dir: str):
    """Asymmetric containment verification (ops/dedup.verify_jaccard,
    metric="containment"): |A∩B|/|A| — the quote/subset detector that
    catches a benchmark answer embedded in a long page where symmetric
    Jaccard stays low.  Same fixture as ngram_jaccard, BOTH
    orientations: truncated⊂full scores exactly 1.0 (every shingle of
    the truncation is in the original), full→truncated grades strictly
    inside (0,1).  Same fully-distributed pair⋈shingle co-partition —
    the orientation rides the packed pair key (order-preserving
    packing), nothing collects to the driver."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.dedup import verify_jaccard

    docs = _docs(sf_dir)

    def truncate(batch: pd.DataFrame) -> pa.Table:
        toks = batch["text"].astype(str).str.split()
        return pa.table(
            {"doc_id": pa.array((batch["doc_id"] + 100_000).to_numpy(),
                                pa.int64()),
             "text": pa.array(
                 [" ".join(t[: max(1, len(t) - 10)]) for t in toks],
                 pa.string())})

    trunc = docs.map_batches(truncate, batch_format="pandas")
    fwd = [(i, i + 100_000) for i in range(25)]
    rev = [(i + 100_000, i) for i in range(25)]
    pairs = ray.data.from_arrow(pa.table(
        {"doc_a": pa.array([a for a, _ in fwd + rev], pa.int64()),
         "doc_b": pa.array([b for _, b in fwd + rev], pa.int64())}))
    return verify_jaccard(docs.union(trunc), pairs, k=5, threshold=0.0,
                          metric="containment")


def q_dedup_components(sf_dir: str):
    """Near-dup clustering tail (ops/components.connected_components —
    iterated neighbor-min + pointer-jump label propagation, 3 bucket
    shuffles per round) VALUE-checked on planted truncation CHAINS:
    each doc i < 25 gets copies truncated by 8/16/24 trailing tokens at
    ids i+100k/i+200k/i+300k, paired consecutively — so every component
    is a 4-node path whose min label (= i) must propagate across 3 hops,
    exercising the multi-round convergence, not just a single sweep.
    The pair set first runs through the distributed n-gram Jaccard
    grader at threshold 0.0 (all pairs survive regardless of doc
    length), making the CC input the engine's verified-pair schema.
    The oracle is the closed-form component table."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.components import connected_components
    from pyrdf2vec_ray.ops.dedup import verify_jaccard

    docs = _docs(sf_dir)

    def truncated(offset: int, cut: int):
        def fn(batch: pd.DataFrame) -> pa.Table:
            toks = batch["text"].astype(str).str.split()
            return pa.table(
                {"doc_id": pa.array(
                    (batch["doc_id"] + offset).to_numpy(), pa.int64()),
                 "text": pa.array(
                     [" ".join(t[: max(1, len(t) - cut)]) for t in toks],
                     pa.string())}
            )
        return fn

    levels = [(100_000, 8), (200_000, 16), (300_000, 24)]
    alldocs = docs
    for off, cut in levels:
        alldocs = alldocs.union(
            docs.map_batches(truncated(off, cut), batch_format="pandas")
        )

    chain = [0] + [off for off, _ in levels]
    pairs = ray.data.from_arrow(pa.table({
        "doc_a": pa.array([i + lo for i in range(25)
                           for lo in chain[:-1]], pa.int64()),
        "doc_b": pa.array([i + hi for i in range(25)
                           for hi in chain[1:]], pa.int64()),
    }))
    graded = verify_jaccard(alldocs, pairs, k=5, threshold=0.0)
    return connected_components(graded)


def q_embedding_exact_planted(sf_dir: str):
    """Embedding-cosine near-dup VALUE-checked via planted exact
    duplicates: every vec_id < 25 is copied verbatim at id+1,000,000 and
    the real multi-table hyperplane-LSH + within-bucket cosine pipeline
    (ops/dedup.embedding_neardup_pairs) runs at threshold 0.999999.
    Identical vectors share every LSH bucket (same signs in every
    table), so recall on the planted set must be exactly 1 — and random
    embeddings produce no natural pairs at this threshold — making the
    output the closed-form planted set, reproducible in SQL."""
    import ray.data

    from pyrdf2vec_ray.ops.dedup import embedding_neardup_pairs

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")

    def clone(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.less(batch["vec_id"], 25)
        kept = batch.filter(keep)
        return pa.table(
            {"vec_id": pc.add(kept["vec_id"], 1_000_000),
             "embedding": kept["embedding"]}
        )

    planted = emb.map_batches(clone, batch_format="pyarrow")
    pairs = embedding_neardup_pairs(emb.union(planted), threshold=0.999999)

    def round_cos(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.set_column(
            batch.schema.get_field_index("cos"), "cos",
            pc.round(batch["cos"], 6),
        )

    return pairs.map_batches(round_cos, batch_format="pyarrow")


def q_embedding_neardup(sf_dir: str):
    """Embedding-cosine near-dup over the embeddings table UNION a
    deterministically perturbed copy of every 10th vector (ids offset by
    10M): the planted pairs make the query falsifiable — a recall
    regression in the LSH tables shows up as a row-count drop (the raw
    table alone has no pairs above 0.95 at this sf)."""
    import ray.data

    from pyrdf2vec_ray.ops.dedup import embedding_neardup_pairs

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")

    def perturb(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        keep = ids % 10 == 0
        vecs = np.stack(
            [np.asarray(v, dtype=np.float32) for v in
             batch["embedding"].to_pylist()]
        )[keep]
        # deterministic tiny rotation-free noise: cos stays > 0.999
        noise = np.sin(np.arange(vecs.shape[1]) + ids[keep][:, None]) * 1e-3
        out = vecs + noise.astype(np.float32)
        return pa.table(
            {"vec_id": pa.array(ids[keep] + 10_000_000, pa.int64()),
             "embedding": pa.array([list(map(float, r)) for r in out],
                                   pa.list_(pa.float32()))}
        )

    planted = emb.map_batches(perturb, batch_format="pyarrow")
    return embedding_neardup_pairs(emb.union(planted), threshold=0.95)


def q_semdedup_planted(sf_dir: str):
    """SemDeDup (ops/dedup.semdedup): cluster-then-dedup with planted
    exact duplicates — every vec_id < 25 cloned verbatim at id+1M.  An
    identical vector routes to the same centroid and sits at cosine 1.0
    to its lower-id original, so at threshold 0.8 (max natural
    within-cluster cosine at this sf is 0.49) kept=0 exactly for the 25
    clones.  Output is the full per-row decision table (vec_id,
    cluster, kept) so a routing or keep-order regression flips hashed
    values, not just counts.  Oracle: row_number routing + a
    NOT EXISTS lower-id-within-threshold self-join."""
    import ray.data

    from pyrdf2vec_ray.ops.dedup import semdedup

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    cdf = emb.filter(expr="vec_id < 8").to_pandas().sort_values("vec_id")

    def clone(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        kept = batch.filter(pc.less(batch["vec_id"], 25))
        return pa.table(
            {"vec_id": pc.add(kept["vec_id"], 1_000_000),
             "embedding": kept["embedding"]}
        )

    planted = emb.map_batches(clone, batch_format="pyarrow")
    return semdedup(emb.union(planted),
                    np.stack(cdf["embedding"].to_numpy()), threshold=0.8)


def q_knn_ivf(sf_dir: str):
    import ray.data

    from pyrdf2vec_ray.ops.similarity import knn_ivf

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    qdf = emb.filter(expr="vec_id < 5").to_pandas().sort_values("vec_id")
    return knn_ivf(
        emb,
        np.stack(qdf["embedding"].to_numpy()),
        qdf["vec_id"].to_numpy(),
        k=5,
    )


def q_knn_ivf_exhaustive(sf_dir: str):
    """IVF with nprobe = n_centroids: every bucket is searched, so the
    approximate index must reproduce the exact brute-force top-k — the
    same SQL oracle as knn_bruteforce value-checks the whole IVF
    pipeline (centroid fit, bucket routing, per-bucket search, merge)."""
    import ray.data

    from pyrdf2vec_ray.ops.similarity import knn_ivf

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    qdf = emb.filter(expr="vec_id < 5").to_pandas().sort_values("vec_id")
    out = knn_ivf(
        emb, np.stack(qdf["embedding"].to_numpy()), qdf["vec_id"].to_numpy(),
        k=5, n_centroids=8, nprobe=8,
    )
    return out.select(["query_id", "neighbor_id"])


def q_media_features(sf_dir: str):
    from pyrdf2vec_ray.ops.multimodal import media_features

    docs, _ = _synth_docs(sf_dir)
    return media_features(docs)


def q_media_features_milli(sf_dir: str):
    """Multimodal decode/feature stage VALUE-checked: planted docs with
    closed-form media spans (image at i%2==0, audio at i%3==0, video at
    i%5==0) run the real span-flatten + MediaDecoder actor-pool path
    (ops/multimodal.media_features); the fake codec's feature k is
    uint32-LE of sha256(media_ref) bytes [4k..4k+4) (digest repeated
    past 32 bytes) mod 1000, over 1000 — emitted here as exact integer
    milli-units so DuckDB's sha256 + hex arithmetic reproduces every
    value bit-for-bit (floats would drift through float32)."""
    import numpy as np

    import ray.data

    from pyrdf2vec_ray.ops.multimodal import media_features

    n, dim = 40, 16
    span_t = pa.struct([("kind", pa.string()), ("text", pa.string()),
                        ("media_ref", pa.string()), ("offset", pa.int64())])
    doc_ids, spans = [], []
    for i in range(n):
        s = [{"kind": "text", "text": "t", "media_ref": "", "offset": 0}]
        for kind, mod in (("image", 2), ("audio", 3), ("video", 5)):
            if i % mod == 0:
                s.append({"kind": kind, "text": "",
                          "media_ref": f"media://{kind}/{i}", "offset": 1})
        doc_ids.append(f"doc_{i}")
        spans.append(s)
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(doc_ids, pa.string()),
        "spans": pa.array(spans, pa.list_(span_t)),
    }))

    feats = media_features(docs, dim=dim)

    def explode(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        f = batch["feature"].combine_chunks()
        flat = pc.list_flatten(f)
        parent = pc.list_parent_indices(f)
        milli = pc.cast(
            pc.round(pc.multiply(pc.cast(flat, pa.float64()), 1000.0)),
            pa.int64(),
        )
        k = pa.array(np.arange(len(flat), dtype=np.int64) % dim)
        return pa.table({
            "doc_id": pc.take(batch["doc_id"], parent),
            "media_ref": pc.take(batch["media_ref"], parent),
            "kind": pc.take(batch["kind"], parent),
            "k": k,
            "milli": milli,
        })

    return feats.map_batches(explode, batch_format="pyarrow")


def q_media_frames_milli(sf_dir: str):
    """Video frame-sampling VALUE-checked end to end: planted video
    spans run the real flatten + FrameSampler actor-pool path
    (ops/multimodal.sample_frames).  The stub demuxer's frame count is
    30 + sha256(ref)[3] % 200 and every stride-th frame's feature is
    the same sha256 milli scheme over "ref#idx" — both reproduced in
    DuckDB (sha256 + hex arithmetic), so the fan-out shape AND the
    per-frame values are oracle-checked."""
    import numpy as np

    import ray.data

    from pyrdf2vec_ray.ops.multimodal import sample_frames

    n, dim, stride = 40, 16, 20
    span_t = pa.struct([("kind", pa.string()), ("text", pa.string()),
                        ("media_ref", pa.string()), ("offset", pa.int64())])
    doc_ids, spans = [], []
    for i in range(0, n, 5):
        doc_ids.append(f"doc_{i}")
        spans.append([
            {"kind": "text", "text": "t", "media_ref": "", "offset": 0},
            {"kind": "video", "text": "",
             "media_ref": f"media://video/{i}", "offset": 1},
        ])
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(doc_ids, pa.string()),
        "spans": pa.array(spans, pa.list_(span_t)),
    }))

    frames = sample_frames(docs, stride=stride, dim=dim)

    def explode(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        f = batch["feature"].combine_chunks()
        flat = pc.list_flatten(f)
        parent = pc.list_parent_indices(f)
        milli = pc.cast(
            pc.round(pc.multiply(pc.cast(flat, pa.float64()), 1000.0)),
            pa.int64(),
        )
        k = pa.array(np.arange(len(flat), dtype=np.int64) % dim)
        return pa.table({
            "doc_id": pc.take(batch["doc_id"], parent),
            "media_ref": pc.take(batch["media_ref"], parent),
            "frame_idx": pc.take(
                pc.cast(batch["frame_idx"], pa.int64()), parent),
            "k": k,
            "milli": milli,
        })

    return frames.map_batches(explode, batch_format="pyarrow")


def q_media_resized(sf_dir: str):
    from pyrdf2vec_ray.ops.multimodal import resize_images

    docs, _ = _synth_docs(sf_dir)
    out = resize_images(docs, width=16, height=16)
    # drop the binary pixel column for the driver's hash (bytes payload);
    # shape metadata is the checkable surface
    return out.select_columns(["doc_id", "media_ref", "width", "height"])


def q_media_resized_dims(sf_dir: str):
    """Image resize stage VALUE-checked on its deterministic surface:
    planted image spans run the real flatten + ImageResizer actor-pool
    path (ops/multimodal.resize_images); the stub codec's source dims
    are 40 + sha256(ref)[0] % 60 by 40 + sha256(ref)[1] % 60, which the
    oracle reproduces in SQL alongside the fixed target dims.  (Pixel
    CONTENT comes from a numpy RandomState — pinned by pytest, not
    SQL-expressible.)"""
    import ray.data

    from pyrdf2vec_ray.ops.multimodal import resize_images

    span_t = pa.struct([("kind", pa.string()), ("text", pa.string()),
                        ("media_ref", pa.string()), ("offset", pa.int64())])
    doc_ids, spans = [], []
    for i in range(0, 40, 2):
        doc_ids.append(f"doc_{i}")
        spans.append([
            {"kind": "text", "text": "t", "media_ref": "", "offset": 0},
            {"kind": "image", "text": "",
             "media_ref": f"media://image/{i}", "offset": 1},
        ])
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(doc_ids, pa.string()),
        "spans": pa.array(spans, pa.list_(span_t)),
    }))
    out = resize_images(docs, width=16, height=16)

    def dims(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "doc_id": batch["doc_id"],
            "media_ref": batch["media_ref"],
            "width": pc.cast(batch["width"], pa.int64()),
            "height": pc.cast(batch["height"], pa.int64()),
            "src_width": pc.cast(batch["src_width"], pa.int64()),
            "src_height": pc.cast(batch["src_height"], pa.int64()),
        })

    return out.map_batches(dims, batch_format="pyarrow")


def q_media_frames(sf_dir: str):
    from pyrdf2vec_ray.ops.multimodal import sample_frames

    docs, _ = _synth_docs(sf_dir)
    return sample_frames(docs, stride=20).select_columns(
        ["doc_id", "media_ref", "frame_idx"]
    )


def q_events_sessions(sf_dir: str):
    import ray.data

    from pyrdf2vec_ray.ops.events import sessionize

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return sessionize(events)


def q_walks_wl_sample(sf_dir: str):
    """WLWalker (A9/W5, weisfeiler_lehman.py:155-193) with one iteration
    and md5 disabled: label_1 of an entity is its name + '-' + the
    sorted distinct incoming predicate labels, which on the relational
    path is 'nation:x-in_nation' / 'region:y-in_region' — exactly
    constructible in SQL, so the WL relabeling chain is value-checked
    (deeper iterations only differ by the md5 wrapper, pinned by
    pytest parity tests)."""
    from pyrdf2vec_ray.walkers import WalkerSpec, extract_walks

    gi = _graph_index(sf_dir)
    entities = _customer_entities(sf_dir)[:100]
    spec = WalkerSpec(strategy="wl", max_depth=2, max_walks=None,
                      wl_iterations=1, md5_bytes=None)
    walks = extract_walks(gi, entities, spec, batch_size=64)

    def explode(batch: pa.Table) -> pa.Table:
        ents, ws = [], []
        for e, walks_ in zip(batch["entity"].to_pylist(),
                             batch["walks"].to_pylist()):
            for w in walks_:
                ents.append(e)
                ws.append(" ".join(w))
        return pa.table({"entity": pa.array(ents, pa.string()),
                         "walk": pa.array(ws, pa.string())})

    return walks.map_batches(explode, batch_format="pyarrow")


def _walker_query(sf_dir: str, spec, n: int = 100,
                  roots=_customer_entities):
    """``spec``'s walks from the first ``n`` of ``roots(sf_dir)``."""
    from pyrdf2vec_ray.walkers import explode_walks, extract_walks

    entities = roots(sf_dir)[:n]
    return explode_walks(extract_walks(_graph_index(sf_dir), entities, spec,
                                       batch_size=64))


def q_walks_community(sf_dir: str):
    from pyrdf2vec_ray.walkers import WalkerSpec

    return _walker_query(
        sf_dir,
        WalkerSpec(strategy="community", max_depth=2, max_walks=5,
                   random_state=11),
    )


def q_walks_anonymous(sf_dir: str):
    """AnonymousWalker (W2, anonymous.py:38-60): every customer's single
    depth-2 walk relabels non-root vertices to their first-occurrence
    index — SQL-expressible because the relational path is all-distinct.
    Walk emitted as a space-joined string for the oracle compare."""
    from pyrdf2vec_ray.walkers import WalkerSpec, extract_walks

    gi = _graph_index(sf_dir)
    entities = _customer_entities(sf_dir)[:100]
    spec = WalkerSpec(strategy="anonymous", max_depth=2)
    walks = extract_walks(gi, entities, spec, batch_size=64)

    def explode(batch: pa.Table) -> pa.Table:
        ents, ws = [], []
        for e, walks_ in zip(batch["entity"].to_pylist(),
                             batch["walks"].to_pylist()):
            for w in walks_:
                ents.append(e)
                ws.append(" ".join(w))
        return pa.table({"entity": pa.array(ents, pa.string()),
                         "walk": pa.array(ws, pa.string())})

    return walks.map_batches(explode, batch_format="pyarrow")


def q_walks_split(sf_dir: str):
    """SplitWalker (W7/M5, split.py:53-125) on the depth-2 customer walk:
    predicates keep their snake_case token, objects split into
    (word, key) with numeric keys as-is; the order-preserving dedup
    drops a trailing region key equal to the nation key — all
    reproducible as SQL string construction."""
    from pyrdf2vec_ray.walkers import WalkerSpec, extract_walks

    gi = _graph_index(sf_dir)
    entities = _customer_entities(sf_dir)[:100]
    spec = WalkerSpec(strategy="split", max_depth=2)
    walks = extract_walks(gi, entities, spec, batch_size=64)

    def explode(batch: pa.Table) -> pa.Table:
        ents, ws = [], []
        for e, walks_ in zip(batch["entity"].to_pylist(),
                             batch["walks"].to_pylist()):
            for w in walks_:
                ents.append(e)
                ws.append(" ".join(w))
        return pa.table({"entity": pa.array(ents, pa.string()),
                         "walk": pa.array(ws, pa.string())})

    return walks.map_batches(explode, batch_format="pyarrow")


def q_walks_halk(sf_dir: str):
    """HALK frequency filter (A8/W6, halk.py:118-176) with two
    thresholds over the depth-2 customer corpus: at 0.01 both predicates
    are frequent (every walk keeps them); at 1.5 everything is rare, so
    each walk collapses to the bare root — which makes the rare-set
    filter itself falsifiable by the SQL oracle (md5 disabled so tokens
    stay raw IRIs)."""
    from pyrdf2vec_ray.walkers import WalkerSpec, explode_walks, extract_walks

    gi = _graph_index(sf_dir)
    entities = _customer_entities(sf_dir)[:100]
    spec = WalkerSpec(strategy="halk", max_depth=2, md5_bytes=None,
                      freq_thresholds=(0.01, 1.5))
    walks = extract_walks(gi, entities, spec, batch_size=64)

    import pyarrow as _pa

    def explode(batch: _pa.Table) -> _pa.Table:
        ents, ths, ws = [], [], []
        for e, th, walks_ in zip(
            batch["entity"].to_pylist(),
            batch["threshold"].to_pylist(),
            batch["walks"].to_pylist(),
        ):
            for w in walks_:
                ents.append(e)
                ths.append(th)
                ws.append(" ".join(w))
        return _pa.table(
            {"entity": _pa.array(ents, _pa.string()),
             "threshold": _pa.array(ths, _pa.float64()),
             "walk": _pa.array(ws, _pa.string())}
        )

    return walks.map_batches(explode, batch_format="pyarrow")


def q_rdf2vec_embeddings(sf_dir: str):
    """End-to-end flagship: KG → walks → Word2Vec → per-entity vectors."""
    import pyarrow as _pa

    from pyrdf2vec_ray.embedders import Word2Vec
    from pyrdf2vec_ray.pipelines.rdf2vec import RDF2VecTransformer
    from pyrdf2vec_ray.walkers import WalkerSpec

    gi = _graph_index(sf_dir)
    entities = _customer_entities(sf_dir)[:100]
    t = RDF2VecTransformer(
        embedder=Word2Vec(vector_size=32, epochs=2, seed=7),
        walkers=[WalkerSpec(strategy="random", max_depth=2, max_walks=8,
                            random_state=7)],
    )
    emb, _ = t.fit_transform(gi, entities)
    return _pa.table(
        {"entity": _pa.array(entities, _pa.string()),
         "vector": _pa.array([v.tolist() for v in emb],
                             _pa.list_(_pa.float32()))}
    )


def q_rdf2vec_scale_path(sf_dir: str):
    """The complete 100-TB-shaped pipeline, end to end with NO driver
    materialization of graph or corpus: hash-sharded parquet-backed
    graph (state/sharded_graph.py) → walk extraction Dataset →
    vocab-sharded parameter-server Word2Vec (fit_dataset: corpus via
    Dataset.split, sparse row pulls/pushes) → per-entity vectors pulled
    from the parameter shards.  Rows-only (distributed SGD is not
    SQL-expressible); determinism pinned by pytest."""
    import pyarrow as _pa

    from pyrdf2vec_ray.embedders_dist import DistributedWord2Vec
    from pyrdf2vec_ray.walkers import WalkerSpec, explode_walks, extract_walks

    gi = _graph_index(sf_dir)
    entities = _customer_entities(sf_dir)[:200]
    spec = WalkerSpec(strategy="random", max_depth=2, max_walks=6,
                      random_state=13)
    walks = explode_walks(extract_walks(gi, entities, spec, batch_size=64))
    m = DistributedWord2Vec(num_workers=2, num_ps=2, vector_size=16,
                            epochs=2, seed=13).fit_dataset(walks)
    vecs = m.transform(entities)
    return _pa.table(
        {"entity": _pa.array(entities, _pa.string()),
         "vector": _pa.array([v.tolist() for v in vecs],
                             _pa.list_(_pa.float32()))}
    )


def q_fasttext_dist(sf_dir: str):
    """FastText on the parameter-server path (VERDICT r4 item 4):
    sharded graph → walks Dataset → DistributedFastText fit_dataset
    (PS-trained word vectors; ngram-bucket matrix reduced by ONE bucket
    shuffle over the shard-streamed (token, vector) Dataset — never a
    driver-held 2M×dim matrix) → vectors for fitted entities plus one
    OOV probe resolved as the mean of its bucket vectors.  Rows-only
    (distributed SGD is not SQL-expressible); the bucket algebra is
    checked against a driver-side accumulation and the vectors are
    pinned by sha256 in tests/test_distributed_w2v.py."""
    import pyarrow as _pa

    from pyrdf2vec_ray.embedders_dist import DistributedFastText
    from pyrdf2vec_ray.walkers import WalkerSpec, explode_walks, extract_walks

    gi = _graph_index(sf_dir)
    entities = _customer_entities(sf_dir)[:100]
    spec = WalkerSpec(strategy="random", max_depth=2, max_walks=6,
                      random_state=23)
    walks = explode_walks(extract_walks(gi, entities, spec, batch_size=64))
    m = DistributedFastText(bucket=100_000, num_workers=2, num_ps=2,
                            vector_size=16, epochs=2, seed=23) \
        .fit_dataset(walks)
    probe = entities + ["http://example.org#customer_oov"]
    vecs = m.transform(probe)
    return _pa.table(
        {"entity": _pa.array(probe, _pa.string()),
         "vector": _pa.array([v.tolist() for v in vecs],
                             _pa.list_(_pa.float32()))}
    )


def _joined_walks(gi, entities, spec, batch_size=64):
    from pyrdf2vec_ray.walkers import extract_walks

    walks = extract_walks(gi, entities, spec, batch_size=batch_size)

    def explode(batch: pa.Table) -> pa.Table:
        ents, ws = [], []
        for e, walks_ in zip(batch["entity"].to_pylist(),
                             batch["walks"].to_pylist()):
            for w in walks_:
                ents.append(e)
                ws.append(" ".join(w))
        return pa.table({"entity": pa.array(ents, pa.string()),
                         "walk": pa.array(ws, pa.string())})

    return walks.map_batches(explode, batch_format="pyarrow")


def q_walks_all_vertices(sf_dir: str):
    """Dataset-scale root input (reference API gap closed): EVERY vertex
    of the KG streams in as a roots Dataset — no driver entity list, and
    the md5 keep-set is the crc32-sharded sorted-name index
    (walkers.ShardedKeepSet) instead of a broadcast frozenset.  Depth-1
    exhaustive BFS with md5_bytes=8: every walk vertex is itself a root,
    so no hashing applies and the maximal-path semantics (leaf roots
    emit their singleton walk) are SQL-checkable."""
    from pyrdf2vec_ray.shuffle import distinct
    from pyrdf2vec_ray.walkers import WalkerSpec, extract_walks

    gi = _graph_index(sf_dir)
    t = _triples(sf_dir)

    def as_entity(col):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table({"entity": batch[col]})

        return fn

    roots = distinct(
        t.map_batches(as_entity("subj"), batch_format="pyarrow").union(
            t.map_batches(as_entity("obj"), batch_format="pyarrow")
        ),
        ["entity"],
    )
    spec = WalkerSpec(strategy="random", max_depth=1, max_walks=None,
                      md5_bytes=8)
    walks = extract_walks(gi, roots, spec, batch_size=256)

    def explode(batch: pa.Table) -> pa.Table:
        ents, ws = [], []
        for e, walks_ in zip(batch["entity"].to_pylist(),
                             batch["walks"].to_pylist()):
            for w in walks_:
                ents.append(e)
                ws.append(" ".join(w))
        return pa.table({"entity": pa.array(ents, pa.string()),
                         "walk": pa.array(ws, pa.string())})

    return walks.map_batches(explode, batch_format="pyarrow")


def q_walks_dfs_exhausted(sf_dir: str):
    """DFS with the visited-set semantics exactly pinned (G3,
    random.py:83-118 + sampler.py:138-180): depth 1 from each customer
    with max_walks=2 — the first walk takes the only hop and marks it
    visited; the second finds no unvisited candidate and emits the bare
    root.  Deterministic regardless of sampler RNG, so SQL-checkable."""
    from pyrdf2vec_ray.walkers import WalkerSpec

    gi = _graph_index(sf_dir)
    entities = _customer_entities(sf_dir)[:100]
    spec = WalkerSpec(strategy="random", max_depth=1, max_walks=2,
                      md5_bytes=None, random_state=5)
    return _joined_walks(gi, entities, spec)


def q_walks_community_noteleport(sf_dir: str):
    """CommunityWalker with hop_prob=0 (W8, community.py:140-185): the
    Louvain fit runs and the walker plumbing is exercised, but with no
    teleports the output is the deterministic BFS path — value-checked;
    the stochastic teleporting variant stays rows-only."""
    from pyrdf2vec_ray.walkers import WalkerSpec

    gi = _graph_index(sf_dir)
    entities = _customer_entities(sf_dir)[:100]
    spec = WalkerSpec(strategy="community", max_depth=2, max_walks=None,
                      md5_bytes=None, hop_prob=0.0, random_state=5)
    return _joined_walks(gi, entities, spec)


def q_walks_node2vec(sf_dir: str):
    """node2vec biased second-order walks (functions/node2vec — Grover
    & Leskovec 2016) run THROUGH the open walker plugin surface
    (walkers.register_walker) on the sharded index: p=2 discourages
    immediate backtracking, q=0.5 favors outward exploration.
    Seeded per (entity, walk) — rows-only checked (seeded RNG is not
    SQL-expressible) and pytest-pinned for determinism, validity and
    the p/q limit behaviors."""
    from pyrdf2vec_ray.functions.node2vec import register_node2vec
    from pyrdf2vec_ray.walkers import WalkerSpec, explode_walks, extract_walks

    import ray.data

    name = register_node2vec("node2vec_kg", p=2.0, q=0.5, n_walks=6,
                             depth=3, seed=11)
    gi = _graph_index(sf_dir)
    # order roots: out-degree ~5 (customer + line parts), so the biased
    # second-order choice actually branches (customers have out-deg 1)
    keys = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey"]).take(200)
    entities = [f"order:{r['o_orderkey']}" for r in keys]
    spec = WalkerSpec(strategy=name, max_depth=3)
    return explode_walks(extract_walks(gi, entities, spec, batch_size=64))


def q_walks_metapath(sf_dir: str):
    """Exhaustive metapath walks (functions/node2vec.make_metapath_
    walker — metapath2vec's typed-path constraint, enumerated instead
    of sampled): every order -> contains -> part -> supplied_by ->
    supplier -> in_nation -> nation path for roots o_orderkey < 200,
    via the open walker plugin surface on the sharded index.  RNG-free,
    so the oracle is a chain of relational joins — the walk family's
    second fully SQL-checked strategy after BFS."""
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.functions.node2vec import register_metapath
    from pyrdf2vec_ray.walkers import WalkerSpec, extract_walks

    name = register_metapath(
        "metapath_kg", ["contains", "supplied_by", "in_nation"])
    gi = _graph_index(sf_dir)
    keys = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey"]
    ).filter(expr="o_orderkey < 200").take_all()
    entities = [f"order:{r['o_orderkey']}" for r in keys]
    spec = WalkerSpec(strategy=name, max_depth=3)
    walks = extract_walks(gi, entities, spec, batch_size=64)

    def widen(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for e, ws in zip(batch["entity"], batch["walks"]):
            for w in ws:
                if len(w) == 7:  # complete metapath only
                    rows.append((e, w[1], w[2], w[3], w[4], w[5], w[6]))
        return pd.DataFrame(
            rows, columns=["entity", "p1", "e1", "p2", "e2", "p3", "e3"])

    return walks.map_batches(widen, batch_format="pandas")


def q_ppr_customers_iter1(sf_dir: str):
    """PERSONALIZED PageRank, one exact iteration (A5 extension —
    samplers._pagerank_from_pairs with a restart vector): teleport mass
    uniform over the customer vertices only, the seed-set relevance
    primitive ("which entities matter to customers").  Same closed-form
    SQL shape as pagerank_iter1 with p concentrated on the seeds; no
    customer is dangling, so the dangling term is exactly 0 on both
    engines."""
    import numpy as np
    import pyarrow as pa

    from pyrdf2vec_ray.samplers import _pagerank_from_pairs

    ents, s_id, d_id, n = _edge_ids(sf_dir)
    pair_key = np.unique(s_id * n + d_id)
    seeds = np.char.startswith(ents, "customer:")
    p = np.where(seeds, 1.0 / seeds.sum(), 0.0)
    pr = _pagerank_from_pairs(
        (pair_key // n).astype(np.int64), (pair_key % n).astype(np.int64),
        np.ones(n, dtype=bool), n, alpha=0.85, max_iter=1,
        personalization=p,
    )
    return pa.table(
        {"name": pa.array([str(e) for e in ents], pa.string()),
         "ppr": pa.array(pr, pa.float64())}
    )


def q_hits_iter1(sf_dir: str):
    """HITS hubs/authorities, one exact un-normalized iteration from
    the all-ones start (Kleinberg 1999): authority a1(v) = in-degree,
    hub h1(v) = sum of a1 over out-neighbors — the bidirectional
    centrality companion to PageRank over the distinct KG edge set;
    integer-valued at iteration 1, so the oracle is bit-exact."""
    import numpy as np
    import pyarrow as pa

    ents, s_id, d_id, n = _edge_ids(sf_dir)
    auth = np.zeros(n, dtype=np.int64)
    np.add.at(auth, d_id, 1)
    hub = np.zeros(n, dtype=np.int64)
    np.add.at(hub, s_id, auth[d_id])
    return pa.table(
        {"name": pa.array([str(e) for e in ents], pa.string()),
         "authority": pa.array(auth, pa.int64()),
         "hub": pa.array(hub, pa.int64())}
    )


def q_walks_dfs_sampled(sf_dir: str):
    """PageRank-sampled DFS on the SHARDED index (name-keyed sampler
    stats fitted from the graph shards, one task per shard) from 200
    orders: an order's first hop branches (its customer and its line
    items' parts), so the sampler and seed shape the rows, unlike a DFS
    from a customer, which has one path."""
    from pyrdf2vec_ray.samplers import SamplerSpec
    from pyrdf2vec_ray.walkers import WalkerSpec

    return _walker_query(
        sf_dir,
        WalkerSpec(strategy="random", max_depth=3, max_walks=8,
                   random_state=42, sampler=SamplerSpec(kind="pagerank")),
        n=200, roots=_order_entities,
    )


def q_embedding_label_centroids(sf_dir: str):
    """Per-label embedding centroids (ops/similarity.grouped_centroids):
    long-form (label, dim, val) means — a per-batch COMBINER (per-group
    float64 vector sum + count) then ONE label-bucket reduce, so the
    exchange carries n_blocks·K·d floats, never the corpus.  Oracle:
    unnest-with-ordinality + avg per (label, dim)."""
    import ray.data

    from pyrdf2vec_ray.ops.similarity import grouped_centroids

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"])
    return grouped_centroids(emb, "label")


def q_embedding_centroid_sim(sf_dir: str):
    """Label-centroid cosine matrix
    (ops/similarity.centroid_similarity): pairwise cosine between
    per-label mean embeddings for label_a < label_b — the K×K semantic
    overlap audit (label-merge candidates, taxonomy confusion) run
    before per-document near-dup spend.  Only the K·d centroid table is
    ever collected (bounded by label cardinality); cosine is the one
    shared float64 expression shape on both engines."""
    import ray.data

    from pyrdf2vec_ray.ops.similarity import centroid_similarity

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"])
    return centroid_similarity(emb, "label")


def q_revenue_by_nation(sf_dir: str):
    """TPC-H Q5 shape — the multiway join-planning showcase: local
    supply-chain revenue per ASIA nation over a 2-year window.  Plan:
    region⋈nation stay driver-tiny (broadcast), ASIA customers prune
    EARLY via a broadcast dim join (filter pushdown ahead of any fact
    exchange), orders are date-pruned at the batch level before their
    ONE co-partition hash_join with the customer projection, lineitem
    (the widest fact) joins the result in a second orderkey-bucket
    exchange, and the supplier (suppkey → nationkey) projection —
    ~600× smaller than lineitem by TPC-H construction — ships
    broadcast for the s_nationkey = c_nationkey local-supply filter
    (swap to hash_join past multi-TB supplier scale).  Revenue is
    exact integer cent·percent units (round(price·100) × (100 −
    round(disc·100))), so the BIGINT sum is bit-equal to the SQL
    oracle's."""
    import numpy as np
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.join import broadcast_join, hash_join
    from pyrdf2vec_ray.shuffle import bucket_agg

    nat = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name", "n_regionkey"])
    reg = ray.data.read_parquet(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"])

    def reg_key(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["r_name"] == "ASIA"]
        return pd.DataFrame({"regionkey": b["r_regionkey"]})

    def nat_key(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"nationkey": b["n_nationkey"],
                             "n_name": b["n_name"],
                             "regionkey": b["n_regionkey"]})

    asia_nations = broadcast_join(
        nat.map_batches(nat_key, batch_format="pandas"),
        reg.map_batches(reg_key, batch_format="pandas"),
        on=["regionkey"]).select_columns(["nationkey", "n_name"])

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])

    def cust_key(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"custkey": b["c_custkey"],
                             "nationkey": b["c_nationkey"].astype("int64")})

    asia_cust = broadcast_join(
        cust.map_batches(cust_key, batch_format="pandas"),
        asia_nations, on=["nationkey"])

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def ord_key(b: pd.DataFrame) -> pd.DataFrame:
        d = b["o_orderdate"]
        keep = (d >= pd.Timestamp("1996-01-01")) & (
            d < pd.Timestamp("1998-01-01"))
        b = b[keep]
        return pd.DataFrame({"orderkey": b["o_orderkey"],
                             "custkey": b["o_custkey"]})

    asia_orders = hash_join(
        orders.map_batches(ord_key, batch_format="pandas"),
        asia_cust, on=["custkey"],
        lschema={"orderkey": "int64", "custkey": "int64"},
        rschema={"custkey": "int64", "nationkey": "int64",
                 "n_name": object}).select_columns(
        ["orderkey", "nationkey", "n_name"])

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount"])

    def li_key(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["l_extendedprice"].to_numpy() * 100).astype(
            np.int64)
        disc = np.round(b["l_discount"].to_numpy() * 100).astype(np.int64)
        return pd.DataFrame({"orderkey": b["l_orderkey"],
                             "suppkey": b["l_suppkey"],
                             "rev_c4": cents * (100 - disc)})

    joined = hash_join(
        li.map_batches(li_key, batch_format="pandas"),
        asia_orders, on=["orderkey"],
        lschema={"orderkey": "int64", "suppkey": "int64",
                 "rev_c4": "int64"},
        rschema={"orderkey": "int64", "nationkey": "int64",
                 "n_name": object})

    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])

    def supp_key(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"suppkey": b["s_suppkey"],
                             "s_nationkey": b["s_nationkey"].astype(
                                 "int64")})

    local = broadcast_join(
        joined, supp.map_batches(supp_key, batch_format="pandas"),
        on=["suppkey"])

    def local_only(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["s_nationkey"] == b["nationkey"]]
        return pd.DataFrame({"n_name": b["n_name"], "rev_c4": b["rev_c4"]})

    return bucket_agg(
        local.map_batches(local_only, batch_format="pandas"),
        ["n_name"], {"revenue_c4": ("rev_c4", "sum")})


def q_kg_assortativity(sf_dir: str):
    """Degree assortativity of the KG (ops/graph.degree_assortativity):
    Pearson correlation of endpoint degrees over the undirected stub
    set — one scalar row (n_stubs, assortativity).  The TPC-H KG is
    star-shaped (orders fan out of customers, parts out of suppliers),
    so the coefficient is strongly negative; exact int64 sufficient
    statistics make the float64 correlation replay bit-identically in
    SQL."""
    from pyrdf2vec_ray.ops.graph import degree_assortativity

    return degree_assortativity(_kg_edges(sf_dir))


def q_events_seq_examples(sf_dir: str):
    """Next-event training examples (ops/events.sequence_examples):
    per-user ordered streams emit (ctx_3, ctx_2, ctx_1, target) rows —
    the sequence-model dataset-construction step (next-action /
    next-token examples over behavioral logs) as a data op.  ONE
    user-bucket shuffle, k vectorized grouped shifts; first event per
    user dropped, shorter histories pad with ''.  Oracle: LAG ×3 with
    COALESCE."""
    import ray.data

    from pyrdf2vec_ray.ops.events import sequence_examples

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"])
    return sequence_examples(ev, k=3)


def q_orders_expectations(sf_dir: str):
    """Declarative data-quality gate (ops/validate.check_expectations)
    over orders: uniqueness (orderkey clean, custkey DELIBERATELY
    duplicate-heavy so the n−n_distinct algebra is falsifiable),
    not-null, value-set (status 'P' rows violate), numeric range and
    regex-format rules — all folded into ONE streaming pass + one
    rule-bucket reduce; unique rules ride the same reduce via +n/−1
    partials over a shuffle.distinct stream (no count() action, no
    driver state)."""
    import ray.data

    from pyrdf2vec_ray.ops.validate import check_expectations

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderstatus",
                 "o_totalprice", "o_orderpriority"])
    return check_expectations(orders, [
        {"rule": "orderkey_unique", "kind": "unique", "col": "o_orderkey"},
        {"rule": "custkey_unique", "kind": "unique", "col": "o_custkey"},
        {"rule": "custkey_not_null", "kind": "not_null",
         "col": "o_custkey"},
        {"rule": "status_known", "kind": "in_set", "col": "o_orderstatus",
         "values": ["O", "F"]},
        {"rule": "price_range", "kind": "range", "col": "o_totalprice",
         "lo": 0, "hi": 300000},
        {"rule": "priority_format", "kind": "regex",
         "col": "o_orderpriority", "pattern": "^[1-4]-"},
    ])


def q_orders_skyline(sf_dir: str):
    """Pareto front (ops/mining.skyline_2d): orders on the
    best-tradeoff frontier of (total price ↑, order date ↓) — early
    AND expensive, the multi-objective query top-k can't express.
    Skyline is closed under union, so per-block vectorized fronts
    shrink the corpus shuffle-free and one bounded task merges the
    candidates.  Oracle: the DEFINITIONAL NOT EXISTS dominance test —
    algorithm vs definition, not algorithm vs itself."""
    import ray.data

    from pyrdf2vec_ray.ops.mining import skyline_2d

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice", "o_orderdate"])
    return skyline_2d(orders, "o_totalprice", "o_orderdate")


def q_kg_pred_cooccur(sf_dir: str):
    """Predicate co-occurrence lift (schema discovery): which
    predicate PAIRS appear on the same subject more (lift>1) or less
    (lift<1) than independence predicts — the profile that finds
    implicit entity types in a schemaless KG.  Reuses the co-mention
    wedge machinery keyed by SUBJECT (per-subject predicate fan-out
    is the KG's predicate vocabulary, bounded); marginals and the
    pair table are predicate-cardinality-sized, so the lift join
    ships broadcast.  lift = n_ab·N/(n_a·n_b) is the verbatim oracle
    float chain on exact int64 counts."""
    import numpy as np
    import pandas as pd

    from pyrdf2vec_ray.ops.join import broadcast_join
    from pyrdf2vec_ray.pipelines.construct import comention_edges
    from pyrdf2vec_ray.shuffle import bucket_agg, distinct

    def as_sp(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"subj": batch["subj"],
                             "pred": batch["pred"]})

    sp = distinct(
        _triples(sf_dir).map_batches(as_sp, batch_format="pandas"),
        ["subj", "pred"]).materialize()
    n_subj = distinct(sp, ["subj"]).count()

    pairs = comention_edges(sp, id_col="subj", ent_col="pred")

    def pair_cols(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"pred_a": b["ent_a"], "pred_b": b["ent_b"],
                             "n_ab": b["n_docs"].astype("int64")})

    marg = bucket_agg(sp, ["pred"], {"np": ("subj", "size")})

    def as_a(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"pred_a": b["pred"],
                             "n_a": b["np"].astype("int64")})

    def as_b(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"pred_b": b["pred"],
                             "n_b": b["np"].astype("int64")})

    joined = broadcast_join(
        broadcast_join(pairs.map_batches(pair_cols, batch_format="pandas"),
                       marg.map_batches(as_a, batch_format="pandas"),
                       on=["pred_a"]),
        marg.map_batches(as_b, batch_format="pandas"), on=["pred_b"])

    def lift(b: pd.DataFrame) -> pd.DataFrame:
        nab = b["n_ab"].to_numpy(np.int64)
        na = b["n_a"].to_numpy(np.int64)
        nb = b["n_b"].to_numpy(np.int64)
        out = b.copy()
        out["lift"] = (nab.astype(np.float64) * n_subj
                       / (na.astype(np.float64) * nb))
        return out

    return joined.map_batches(lift, batch_format="pandas")


def q_events_type_gini(sf_dir: str):
    """Per-type activity concentration (ops/agg.grouped_gini): within
    each event type, the Gini of per-user event counts — "is checkout
    traffic spread across users or driven by a few whales?".  Two
    combiner-bounded reduces ((type,user)→count, then the
    (type,count)→freq histogram) and ONE group-bucket vectorized
    rank-formula fold; groups never collect to the driver.  Same
    int64-exact + single-float-expression contract as
    events_user_gini, partitioned."""
    import ray.data

    from pyrdf2vec_ray.ops.agg import grouped_gini
    from pyrdf2vec_ray.shuffle import bucket_count

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])
    per_user = bucket_count(events, ["event_type", "user_id"], "x")
    return grouped_gini(
        per_user.select_columns(["event_type", "x"]), "event_type", "x")


def q_doc_source_len_gini(sf_dir: str):
    """Document-size inequality per source (ops/agg.grouped_gini over
    n_chars): a source whose token mass sits in a few giant pages
    needs different packing/dedup treatment than one of uniform
    snippets — the same Gini fold as events_type_gini exercised on a
    value domain 100× wider (character counts), still histogram-
    bounded."""
    import ray.data

    from pyrdf2vec_ray.ops.agg import grouped_gini

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"])
    return grouped_gini(docs, "source", "n_chars")


def q_doc_lang_source_cramer(sf_dir: str):
    """Categorical association audit (ops/agg.cramers_v): is language
    confounded with source? — the leakage/stratification check run
    before split design.  ONE (lang, source) pair-count reduce
    (category-cardinality² exchange, never the corpus); the bounded
    contingency folds on the driver with the verbatim oracle float
    chain (independence model e = r·c/n, zero cells included,
    v = sqrt(chi2/(n·min dof)))."""
    import ray.data

    from pyrdf2vec_ray.ops.agg import cramers_v

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "source"])
    return cramers_v(docs, "lang", "source")


def q_events_value_hist(sf_dir: str):
    """Equal-width histogram (ops/agg.value_histogram): the profiling
    primitive — 20 exact bins of the event value column, no sort, no
    sampling.  Min/max fold from per-block partials; the bin index is
    one vectorized floor expression into a ≤20-key combiner-bounded
    reduce; bin edges reconstruct with the verbatim oracle float
    chain."""
    import ray.data

    from pyrdf2vec_ray.ops.agg import value_histogram

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["value"])
    return value_histogram(events, "value", bins=20)


def q_orders_benford(sf_dir: str):
    """Benford first-digit audit (ops/validate.benford_firstdigit) of
    order totals — the fabricated-data screen: natural multiplicative
    spreads put ~30% of first digits on 1; a clipped or synthesized
    column doesn't.  Digits come from the canonical int64 cent
    string, NOT float log10, so extraction is engine-exact; the 9-key
    reduce is combiner-bounded and the Benford fold is driver
    arithmetic mirrored verbatim in the oracle (n·log10(1+1/d),
    (o−e)²/e)."""
    import ray.data

    from pyrdf2vec_ray.ops.validate import benford_firstdigit

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_totalprice"])
    return benford_firstdigit(orders, "o_totalprice", scale=100)


def q_lineitem_weighted_quantiles(sf_dir: str):
    """Weighted quantiles (ops/agg.grouped_weighted_quantiles): the
    price points below which 25/50/90% of the shipped QUANTITY sits,
    per return flag — the weighted-median staple order statistics
    can't answer.  Exact integer units (cents, rounded quantities);
    the only exchange is the (group, value)→Σweight histogram; the
    single float op is the q·W threshold, mirrored verbatim by the
    oracle's window cumsum."""
    import numpy as np
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.agg import grouped_weighted_quantiles

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice", "l_quantity"])

    def units(b: pd.DataFrame) -> pd.DataFrame:
        # floor(v+0.5): half-away rounding for positives to match the
        # oracle's SQL round() (np.round is half-to-even)
        return pd.DataFrame(
            {"l_returnflag": b["l_returnflag"].astype(str),
             "price_cents": np.floor(
                 b["l_extendedprice"].to_numpy(np.float64) * 100 + 0.5
             ).astype(np.int64),
             "w": np.floor(
                 b["l_quantity"].to_numpy(np.float64) + 0.5
             ).astype(np.int64)})

    return grouped_weighted_quantiles(
        li.map_batches(units, batch_format="pandas"),
        "l_returnflag", "price_cents", "w", qs=(0.25, 0.5, 0.9))


def q_orders_month_chisq(sf_dir: str):
    """Seasonality-drift test (ops/agg.grouped_chisq): per-nation
    chi-square of the order-month distribution against the pooled
    calendar — "does this nation order like the rest of the world?",
    the same shape as per-source mixture monitoring.  Orders join
    their customer's nation via ONE custkey-bucket hash_join (the
    dim projection is read pruned to two columns; nation names ship
    broadcast at 25 rows); months reduce combiner-first; zero cells
    count as evidence (cross join in the oracle, pivot/reindex in the
    kernel).  e = t·(m/G) and (o−e)²/e are verbatim on both engines;
    only the Σ over months' order differs, absorbed by the 1e-6
    float comparison."""
    import pandas as pd
    import ray.data

    from pyrdf2vec_ray.ops.agg import grouped_chisq
    from pyrdf2vec_ray.ops.join import broadcast_join, hash_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"])
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    nat = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])

    def omonth(b: pd.DataFrame) -> pd.DataFrame:
        d = b["o_orderdate"]
        return pd.DataFrame(
            {"custkey": b["o_custkey"].astype("int64"),
             "ym": (d.dt.year * 100 + d.dt.month).astype("int64")})

    def ckey(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"custkey": b["c_custkey"].astype("int64"),
                             "nationkey": b["c_nationkey"].astype("int64")})

    def nkey(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"nationkey": b["n_nationkey"].astype("int64"),
                             "n_name": b["n_name"].astype(str)})

    oc = hash_join(
        orders.map_batches(omonth, batch_format="pandas"),
        cust.map_batches(ckey, batch_format="pandas"), on=["custkey"])
    named = broadcast_join(
        oc, nat.map_batches(nkey, batch_format="pandas"),
        on=["nationkey"]).select_columns(["n_name", "ym"])

    out = grouped_chisq(named, "n_name", "ym")

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        return b.rename(columns={"n": "n_orders"})

    return out.map_batches(finish, batch_format="pandas")


def q_events_user_gini(sf_dir: str):
    """Per-key load skew as a single number (ops/agg.gini_int): the
    Gini coefficient of events-per-user — the diagnostic behind every
    hot-key decision in this repo (salting, fan-in caps, bucket
    sizing).  Counts reduce in one user-bucket shuffle; the values
    then compress to a counts-of-counts histogram (driver state = one
    row per distinct activity level, bounded by max activity, not by
    user cardinality) and the exact tie-aware rank formula folds on
    the driver.  The one float expression is mirrored verbatim in the
    oracle; everything before it is int64-exact."""
    from pyrdf2vec_ray.ops.agg import gini_int
    from pyrdf2vec_ray.shuffle import bucket_count

    import ray.data

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"])
    counts = bucket_count(events, ["user_id"], "x")
    out = gini_int(counts, "x")

    def rename(t):
        return t.rename_columns(["n_users", "total_events", "gini"])

    import pyarrow as pa

    return rename(out) if isinstance(out, pa.Table) else out


def q_kg_neighbor_jaccard(sf_dir: str):
    """Structural-equivalence pairs (ops/graph.neighbor_jaccard): the
    top-50 vertex pairs by Jaccard similarity of their out-neighbor
    sets — orders sharing parts, customers sharing a nation tier.
    Shared-neighbor wedge generation behind a fan-in hub cap (the
    set-similarity stop-word filter; a neighbor pointed at by
    everyone carries no signal and would square), degrees over the
    SAME capped edge set so the score is a true Jaccard of the
    filtered neighborhoods, bounded top-k tree merge.  jaccard =
    inter/(deg_u+deg_v-inter) is one IEEE division on exact int64 —
    bit-reproducible in the oracle's self-join."""
    from pyrdf2vec_ray.ops.graph import neighbor_jaccard

    return neighbor_jaccard(_kg_edges(sf_dir), max_fanin=40, k=50)


def q_kg_sameas_canonical(sf_dir: str):
    """owl:sameAs canonicalization (ops/er.sameas_canonicalize, round
    5): the KG-construction cleanup the reference assumes away
    (/root/reference/pyrdf2vec/graphs/kg.py stores IRIs verbatim) —
    names transitively linked by sameAs edges collapse to the
    lexicographically smallest member, alias facts rewrite onto the
    canonical node, sameAs triples drop, and the result dedups.

    Plant: every customer custkey<40 gets a 4-node alias CHAIN
    (customer:k ~ dup:…:1 ~ dup:…:2 ~ dup:…:3 — transitivity must
    propagate across 3 hops, exercising the multi-round CC, not one
    sweep), its subject facts re-emitted under dup:…:1 and its
    placed_by object slots under dup:…:2.  'customer:' < 'dup:' so the
    canonical name is the original and cleaning must recover EXACTLY
    the base KG — the oracle is the plain distinct triple set, and any
    un-rewritten alias or lost fact breaks the hash."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.er import sameas_canonicalize

    tri = _triples(sf_dir)

    def alias_subj(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch["subj"].str.match(r"^customer:\d+$")
        sub = batch[m].copy()
        if len(sub):
            sub = sub[sub["subj"].str.slice(9).astype(int) < 40]
            sub["subj"] = "dup:" + sub["subj"] + ":1"
        return sub

    def alias_obj(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch["obj"].str.match(r"^customer:\d+$")
        sub = batch[m].copy()
        if len(sub):
            sub = sub[sub["obj"].str.slice(9).astype(int) < 40]
            sub["obj"] = "dup:" + sub["obj"] + ":2"
        return sub

    chains = []
    for k in range(0, 40):
        c = f"customer:{k}"
        chains += [
            {"subj": c, "pred": "owl:sameAs", "obj": f"dup:{c}:1"},
            {"subj": f"dup:{c}:1", "pred": "owl:sameAs",
             "obj": f"dup:{c}:2"},
            {"subj": f"dup:{c}:2", "pred": "owl:sameAs",
             "obj": f"dup:{c}:3"},
        ]
    dirty = tri.union(
        tri.map_batches(alias_subj, batch_format="pandas"),
        tri.map_batches(alias_obj, batch_format="pandas"),
        ray.data.from_items(chains),
    )
    return sameas_canonicalize(dirty, sameas_pred="owl:sameAs")


def q_kg_conflict_resolve(sf_dir: str):
    """Functional-property conflict resolution (truth discovery over a
    dirty assertion stream): multiple extractors assert in_nation
    values per entity; keep the MAJORITY object per subject with the
    deterministic (count DESC, value ASC) tie-break —
    `ops/agg.grouped_mode` riding its (subj, obj)-count combiner
    shuffle + one subject-bucket argmax, so occurrences are counted
    once and never exchanged twice.

    Plant: base in_nation facts (1 vote each) + a SECOND true vote for
    customers custkey<30 + a WRONG 'nation:zzz:…' vote for custkey<40.
    custkey<30: majority (2 vs 1) decides; 30≤custkey<40: a 1–1 TIE
    decided by value order ('nation:…' < 'nation:zzz:…'); suppliers
    pass through unanimous — all three verdict paths in one query."""
    import pandas as pd

    from pyrdf2vec_ray.ops.agg import grouped_mode

    tri = _triples(sf_dir)

    def base(batch: pd.DataFrame) -> pd.DataFrame:
        sub = batch[batch["pred"] == "in_nation"]
        return sub[["subj", "obj"]]

    def extra(batch: pd.DataFrame) -> pd.DataFrame:
        sub = batch[(batch["pred"] == "in_nation")
                    & batch["subj"].str.match(r"^customer:\d+$")].copy()
        if not len(sub):
            return sub[["subj", "obj"]]
        keys = sub["subj"].str.slice(9).astype(int)
        true2 = sub[keys < 30][["subj", "obj"]]
        wrong = sub[keys < 40][["subj"]].copy()
        wrong["obj"] = "nation:zzz:" + (keys[keys < 40] % 5).astype(str)
        return pd.concat([true2, wrong], ignore_index=True)

    votes = tri.map_batches(base, batch_format="pandas").union(
        tri.map_batches(extra, batch_format="pandas"))
    out = grouped_mode(votes, "subj", "obj")
    return _rename(out, {"mode": "obj", "n": "votes"})


def q_kg_bgp_exists(sf_dir: str):
    """SPARQL FILTER EXISTS (ops/sparql.py + ops/bgp.py exists=, round
    5): customers that ordered part:55, keeping their nation — the
    TWO-pattern sub-BGP joins internally (same greedy/AQE plan as a
    mandatory group), then its DISTINCT shared-variable keys SEMI-join
    the solution set in one key-bucket exchange; the sub-group's plain
    patterns ride the same multiplexed corpus scan as the mandatory
    ones."""
    from pyrdf2vec_ray.ops.sparql import sparql_query

    return sparql_query(_triples(sf_dir), """
        SELECT ?c ?n WHERE {
          ?c in_nation ?n .
          FILTER(STRSTARTS(?c, "customer:"))
          FILTER EXISTS { ?o placed_by ?c . ?o contains "part:55" }
        }
    """)


def q_kg_bgp_notexists(sf_dir: str):
    """SPARQL FILTER NOT EXISTS: customers that NEVER ordered part:55
    (the overwhelming majority — the polarity where the anti-join
    keep-set is large) — the same machinery as kg_bgp_exists with the
    ANTI polarity; for this engine's null-free solution sets it
    coincides with MINUS exactly when a variable is shared, and the
    divergent SPARQL cases raise."""
    from pyrdf2vec_ray.ops.sparql import sparql_query

    return sparql_query(_triples(sf_dir), """
        SELECT ?c ?n WHERE {
          ?c in_nation ?n .
          FILTER(STRSTARTS(?c, "customer:"))
          FILTER NOT EXISTS { ?o placed_by ?c . ?o contains "part:55" }
        }
    """)


def q_kg_bgp_groupconcat(sf_dir: str):
    """SPARQL GROUP_CONCAT (ops/sparql.py, round 5): per-region nation
    roster — DISTINCT values sorted and space-joined (deterministic
    where the SPARQL spec leaves order open; the oracle is
    string_agg(DISTINCT … ORDER BY)), sharing the COUNT-DISTINCT
    exchange shape: ONE (group, value)-distinct bucket shuffle + a
    group-bucket fold, hash-joined to the distinct count at group
    scale."""
    from pyrdf2vec_ray.ops.sparql import sparql_query

    return sparql_query(_triples(sf_dir), """
        SELECT ?r (GROUP_CONCAT(?n) AS ?nations)
               (COUNT(DISTINCT ?n) AS ?n_nations)
        WHERE { ?n in_region ?r } GROUP BY ?r
    """)


def q_customer_k_anonymity(sf_dir: str):
    """k-anonymity audit (ops/validate.k_anonymity, round 5): customer
    (nation, market-segment) quasi-identifier combinations shared by
    fewer than k=10 rows — the privacy risk set a reviewer must
    generalize before the table ships.  ONE pre-aggregating bucket
    shuffle over the combination DOMAIN + a block-local n<k mask."""
    import ray.data

    from pyrdf2vec_ray.ops.validate import k_anonymity

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_nationkey", "c_mktsegment"])
    return k_anonymity(cust, ["c_nationkey", "c_mktsegment"], k=10)


def q_fk_orphan_audit(sf_dir: str):
    """Referential-integrity audit: orphan counts for the five TPC-H
    foreign-key relationships in ONE multiplexed plan — every child
    table is read ONCE emitting (rel, key)-tagged rows for all its
    FKs, every parent table once for its tagged key set, and a SINGLE
    (rel, key)-bucket ANTI semi-join checks all five relationships in
    one co-partitioning exchange (was five independent joins); the
    report is one tiny rel-bucket sum with anchor rows closing the
    schema at zero orphans.

    Two relationships get PLANTED dirt (customer keys +9M into the
    orders side, part keys +9M into the lineitem side) so both the
    clean-pass and the violation path are value-checked."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.join import hash_semi_join
    from pyrdf2vec_ray.shuffle import bucket_agg

    i8 = np.dtype("int64")
    o = np.dtype("O")
    rels = ["orders.o_custkey", "lineitem.l_orderkey",
            "lineitem.l_partkey", "lineitem.l_suppkey",
            "customer.c_nationkey"]

    def tagged(table, cols, emit):
        return ray.data.read_parquet(
            f"{sf_dir}/{table}.parquet", columns=cols
        ).map_batches(emit, batch_format="pandas")

    def rows(rel, keys):
        return pd.DataFrame(
            {"rel": rel, "key": np.asarray(keys, dtype=np.int64)})

    def child_orders(b):
        return rows("orders.o_custkey", b["o_custkey"])

    def child_lineitem(b):
        return pd.concat([
            rows("lineitem.l_orderkey", b["l_orderkey"]),
            rows("lineitem.l_partkey", b["l_partkey"]),
            rows("lineitem.l_suppkey", b["l_suppkey"])],
            ignore_index=True)

    def child_customer(b):
        k = b["c_custkey"].to_numpy(np.int64)
        return pd.concat([
            rows("customer.c_nationkey", b["c_nationkey"]),
            rows("orders.o_custkey", k[k < 15] + 9_000_000)],
            ignore_index=True)

    def child_part_plant(b):
        k = b["p_partkey"].to_numpy(np.int64)
        return rows("lineitem.l_partkey", k[k < 25] + 9_000_000)

    children = tagged("orders", ["o_custkey"], child_orders).union(
        tagged("lineitem", ["l_orderkey", "l_partkey", "l_suppkey"],
               child_lineitem),
        tagged("customer", ["c_custkey", "c_nationkey"],
               child_customer),
        tagged("part", ["p_partkey"], child_part_plant))

    parents = tagged(
        "customer", ["c_custkey"],
        lambda b: rows("orders.o_custkey", b["c_custkey"])).union(
        tagged("orders", ["o_orderkey"],
               lambda b: rows("lineitem.l_orderkey", b["o_orderkey"])),
        tagged("part", ["p_partkey"],
               lambda b: rows("lineitem.l_partkey", b["p_partkey"])),
        tagged("supplier", ["s_suppkey"],
               lambda b: rows("lineitem.l_suppkey", b["s_suppkey"])),
        tagged("nation", ["n_nationkey"],
               lambda b: rows("customer.c_nationkey",
                              b["n_nationkey"])))

    orphans = hash_semi_join(children, parents, on=["rel", "key"],
                             anti=True,
                             lschema={"rel": o, "key": i8},
                             rschema={"rel": o, "key": i8})

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame({"rel": batch["rel"].to_numpy(),
                             "n": np.int64(1)})
        return part.groupby("rel", as_index=False).sum()

    anchors = ray.data.from_items([{"rel": r, "n": 0} for r in rels])
    allrows = anchors.union(
        orphans.map_batches(tag, batch_format="pandas"))
    return bucket_agg(allrows, ["rel"], {"n_orphans": ("n", "sum")},
                      pre=False)


def _user_purchase_features(sf_dir: str):
    """Per-user (score = event count, label = ever-purchased) feature
    table shared by the eval-family queries (auc / pr / calibration):
    per-batch combiner + ONE user-bucket reduce."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.shuffle import bucket_agg

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def pre(batch: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame({
            "user_id": batch["user_id"].to_numpy(np.int64),
            "n": np.int64(1),
            "lab": (batch["event_type"] == "purchase")
            .to_numpy(np.int64)})
        return part.groupby("user_id", as_index=False).agg(
            n=("n", "sum"), lab=("lab", "max"))

    return bucket_agg(
        ev.map_batches(pre, batch_format="pandas"), ["user_id"],
        {"score": ("n", "sum"), "label": ("lab", "max")}, pre=False)


def q_user_purchase_auc(sf_dir: str):
    """Exact ROC AUC (ops/agg.auc_exact, round 5): does per-user event
    volume separate purchasers from non-purchasers?  The model-eval
    metric a training pipeline reports — Mann–Whitney 2U with the ½
    tie adjustment, everything int64 until the final division, so the
    window-function oracle replays it bit-for-bit.  Per-user features
    come from ONE user-bucket reduce (count + any-purchase max); the
    AUC fold runs over the distinct-SCORE table (value-domain scale)."""
    from pyrdf2vec_ray.ops.agg import auc_exact

    return auc_exact(_user_purchase_features(sf_dir), "score", "label")


def _typed_kg(sf_dir: str):
    """KG ∪ planted rdf_type triples ∪ class hierarchy — shared input
    of the type-inference path queries."""
    import pandas as pd

    import ray.data

    tri = _triples(sf_dir)

    def types(batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        for pref, cls in (("customer:", "Customer"),
                          ("supplier:", "Supplier"),
                          ("order:", "Order")):
            m = batch["subj"].str.startswith(pref)
            if m.any():
                out.append(pd.DataFrame(
                    {"subj": batch.loc[m, "subj"],
                     "pred": "rdf_type", "obj": cls}))
        if not out:
            return pd.DataFrame(
                {"subj": pd.Series(dtype=object),
                 "pred": pd.Series(dtype=object),
                 "obj": pd.Series(dtype=object)})
        return pd.concat(out, ignore_index=True).drop_duplicates()

    hierarchy = ray.data.from_items([
        {"subj": "Customer", "pred": "subclassof", "obj": "Agent"},
        {"subj": "Supplier", "pred": "subclassof", "obj": "Agent"},
        {"subj": "Agent", "pred": "subclassof", "obj": "Thing"},
        {"subj": "Order", "pred": "subclassof", "obj": "Event"},
    ])
    return tri.union(tri.map_batches(types, batch_format="pandas"),
                     hierarchy)


def q_kg_type_inference(sf_dir: str):
    """RDFS-style type inference via SPARQL 1.1 property paths
    (ops/sparql.py sequence step + closure step composed:
    ``rdf_type/subclassof+``): every entity's INFERRED supertypes
    through a planted class hierarchy (Customer/Supplier ⊑ Agent ⊑
    Thing, Order ⊑ Event) — the materialize-the-ontology step of KG
    construction.  The sequence expands at parse time into a chained
    pattern through a fresh join variable; the closure step rides
    `transitive_closure` (path doubling); the direct-type pattern
    joins it with the usual adaptive plan."""
    from pyrdf2vec_ray.ops.sparql import sparql_query

    return sparql_query(_typed_kg(sf_dir), """
        SELECT ?x ?t WHERE { ?x rdf_type/subclassof+ ?t }
    """)


def q_kg_scc(sf_dir: str):
    """Bounded strongly-connected components (ops/graph.scc_bounded,
    round 5): directed-cycle detection over the in_nation/in_region
    KG subgraph (a DAG — every real node must stay a singleton)
    plus 20 PLANTED 3-cycles of 'peer_of' edges among customers and
    one acyclic 2-edge chain: mutual-reachability pairs from the
    path-doubling closure, ONE semi-join against the swapped relation,
    ONE min-reduce — no label iteration.  Any spurious merge on the
    DAG part or missed cycle member breaks the hash."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.graph import scc_bounded

    tri = _triples(sf_dir)

    def as_edges(batch: pd.DataFrame) -> pd.DataFrame:
        sub = batch[batch["pred"].isin(["in_nation", "in_region"])]
        return pd.DataFrame({"a": sub["subj"].to_numpy(),
                             "b": sub["obj"].to_numpy()})

    planted = []
    for k in range(20):
        for j in range(3):
            planted.append({"a": f"customer:{3 * k + j}",
                            "b": f"customer:{3 * k + (j + 1) % 3}"})
    for j in range(2):
        planted.append({"a": f"customer:{100 + j}",
                        "b": f"customer:{101 + j}"})
    edges = tri.map_batches(as_edges, batch_format="pandas").union(
        ray.data.from_items(planted))
    return scc_bounded(edges, rounds=2)


def q_user_purchase_pr(sf_dir: str):
    """Precision/recall curve (ops/agg.pr_curve, round 5): operating
    points of the purchase-propensity score at every distinct
    threshold — the shared auc_exact reduction (per-batch combiner +
    ONE score-bucket exchange) with cumulative folds over the
    distinct-score table; exact int64 tp/fp/fn, oracle-identical
    float divisions."""
    from pyrdf2vec_ray.ops.agg import pr_curve

    return pr_curve(_user_purchase_features(sf_dir), "score", "label")


def q_doc_zipf(sf_dir: str):
    """Zipf exponent of the corpus vocabulary (ops/text.zipf_slope,
    round 5): weighted OLS of ln(freq) on ln(rank) with tied-average
    ranks taken from the counts-of-counts histogram — vocab-scale +
    frequency-domain-scale exchanges only, no vocabulary sort."""
    from pyrdf2vec_ray.ops.text import zipf_slope

    return zipf_slope(_docs(sf_dir))


def q_user_purchase_calibration(sf_dir: str):
    """Reliability diagram (ops/agg.calibration_bins, round 5): does
    the event-volume score's MAGNITUDE track purchase probability?
    8 equal-width integer bins over [0, max]; exact counts, integer
    floor binning shared with the SQL oracle, the shared auc/pr
    score-class reduction underneath."""
    from pyrdf2vec_ray.ops.agg import calibration_bins

    return calibration_bins(_user_purchase_features(sf_dir), "score", "label", n_bins=8)


def q_kg_bgp_star(sf_dir: str):
    """SPARQL ``p*`` zero-or-more property path (ops/bgp.py, round 5):
    ``rdf_type/subclassof*`` yields DIRECT types (the zero-length
    tail — the identity relation over every graph node, the standard
    store reading of SPARQL's zero-length path) plus every inferred
    supertype from the closure, in one plan; one extra pair-distinct
    guards set semantics when closure and identity overlap."""
    from pyrdf2vec_ray.ops.sparql import sparql_query

    return sparql_query(_typed_kg(sf_dir), """
        SELECT ?x ?t WHERE { ?x rdf_type/subclassof* ?t }
    """)


def q_cohort_purchase_auc(sf_dir: str):
    """Per-cohort exact AUC (ops/agg.grouped_auc, round 5): the sliced
    model-eval form — same int64 Mann–Whitney arithmetic as
    user_purchase_auc but folded per group with vectorized segment
    cumsums inside ONE group-bucket exchange; NOTHING collects on the
    driver.  Cohort = user_id % 4 (a deterministic synthetic slice —
    AUCs should be near-equal across cohorts, which is itself the
    monitoring signal)."""
    import pandas as pd

    from pyrdf2vec_ray.ops.agg import grouped_auc

    users = _user_purchase_features(sf_dir)

    def cohort(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["cohort"] = batch["user_id"].to_numpy(np.int64) % 4
        return batch

    return grouped_auc(
        users.map_batches(cohort, batch_format="pandas"),
        "cohort", "score", "label")


def q_media_image_dups(sf_dir: str):
    """Perceptual image dedup over REALLY-decoded payloads
    (ops/multimodal.image_dup_pairs, round 5): every doc gets a
    genuine binary PGM with formula pixels (the media_pgm_real
    corpus), docs < 25 get EXACT re-encodes planted at +1M, and the
    actor pool decodes → 8×8 aHash → hash-bucket pair generation.
    The oracle REBUILDS THE HASH FROM FIRST PRINCIPLES in SQL (64
    closed-form resample cells per image, power-of-two-exact mean,
    bit weights as BIGINT shifts) and self-joins — so both the
    planted duplicates AND the formula corpus's natural aHash
    collisions must match exactly, catching any decode, resize,
    threshold, or pairing drift."""
    import pandas as pd

    from pyrdf2vec_ray.ops.multimodal import image_dup_pairs

    docs = _docs(sf_dir, columns=("doc_id",))

    def synth(batch: pd.DataFrame) -> pa.Table:
        ids, payloads = [], []
        for did in batch["doc_id"].astype("int64"):
            for out_id in ([int(did), int(did) + 1_000_000]
                           if int(did) < 25 else [int(did)]):
                base = out_id % 1_000_000
                w = 20 + (base % 4) * 10
                h = 16 + (base % 3) * 8
                y, x = np.mgrid[0:h, 0:w]
                img = ((x * 7 + y * 13 + base) % 256).astype(np.uint8)
                payloads.append(
                    b"P5\n%d %d\n255\n" % (w, h) + img.tobytes())
                ids.append(out_id)
        return pa.Table.from_pydict(
            {"doc_id": pa.array(ids, pa.int64()),
             "payload": pa.array(payloads, pa.binary())})

    return image_dup_pairs(
        docs.map_batches(synth, batch_format="pandas"))


def q_media_image_neardups(sf_dir: str):
    """Banded NEAR-duplicate image search
    (ops/multimodal.image_neardup_pairs, round 5): all pairs of the
    formula-PGM corpus within aHash hamming ≤ 3 — four 16-bit bands
    generate candidates (pigeonhole-exact at ≤3 differing bits), a
    vectorized popcount verifies, ONE pair-distinct dedups multi-band
    hits.  The oracle rebuilds every hash from the closed-form pixels
    and brute-forces hamming over ALL pairs with xor+bit_count — the
    engine's banded path must reproduce the exhaustive answer
    exactly (missed band = missing pair, surviving collision = extra
    pair)."""
    import pandas as pd

    from pyrdf2vec_ray.ops.multimodal import image_neardup_pairs

    docs = _docs(sf_dir, columns=("doc_id",))

    def synth(batch: pd.DataFrame) -> pa.Table:
        ids, payloads = [], []
        for did in batch["doc_id"].astype("int64"):
            did = int(did)
            w = 20 + (did % 4) * 10
            h = 16 + (did % 3) * 8
            y, x = np.mgrid[0:h, 0:w]
            img = ((x * 7 + y * 13 + did) % 256).astype(np.uint8)
            payloads.append(
                b"P5\n%d %d\n255\n" % (w, h) + img.tobytes())
            ids.append(did)
        return pa.Table.from_pydict(
            {"doc_id": pa.array(ids, pa.int64()),
             "payload": pa.array(payloads, pa.binary())})

    return image_neardup_pairs(
        docs.map_batches(synth, batch_format="pandas"), max_hamming=3)


def q_events_sliding_distinct(sf_dir: str):
    """Trailing-7-day approximate distinct users per day
    (ops/sketch.hll_sliding_estimate, round 5): daily HLL registers
    OR-merged across each window — sketch mergeability × the
    sliding-window replication discipline, with an
    event-volume-independent exchange.  The oracle replays the md5
    register math AND the estimator formula in SQL, so the merged
    sketches and the small-range correction are both value-checked."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.sketch import hll_sliding_estimate

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def day(batch: pd.DataFrame) -> pd.DataFrame:
        # epoch-day via ns — explicit unit cast, the parquet column
        # arrives µs-resolution in pandas 2.x
        ns = batch["ts"].astype("datetime64[ns]").astype("int64")
        return pd.DataFrame(
            {"day": ns // 86_400_000_000_000,
             "u": batch["user_id"].astype("int64").astype(str)})

    ds = events.map_batches(day, batch_format="pandas")
    return hll_sliding_estimate(ds, "day", "u", window=7)


def q_customer_er_link(sf_dir: str):
    """Two-table record linkage (ops/er.er_link_pairs, round 5): a
    dirty inbound feed matched against the clean customer master —
    custkey<200 rows corrupt ONE name character (edit distance 1,
    must link at max_dist=1), custkeys 200–299 corrupt TWO (distance
    2, must NOT link) — so both match and reject paths are
    value-checked.  Blocking = the name's last 4 characters (typos
    are planted in the prefix, so blocks survive — the stated
    blocking contract); ONE block-bucket shuffle, vectorized
    left×right Levenshtein DP per block.  The oracle joins on the
    same block and DuckDB's levenshtein."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.er import er_link_pairs

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])

    def dirty(batch: pd.DataFrame) -> pd.DataFrame:
        keys = batch["c_custkey"].to_numpy(np.int64)
        m1 = keys < 200
        m2 = (keys >= 200) & (keys < 300)
        names = batch["c_name"].astype(str)
        one = names[m1].str.slice(0, 9) + "X" + names[m1].str.slice(10)
        two = (names[m2].str.slice(0, 8) + "XY"
               + names[m2].str.slice(10))
        return pd.DataFrame({
            "c_custkey": np.concatenate([keys[m1], keys[m2]]),
            "c_name": pd.concat([one, two]).to_numpy()})

    feed = cust.map_batches(dirty, batch_format="pandas")

    def block(names: pd.Series) -> pd.Series:
        return names.str.slice(-4)

    return er_link_pairs(cust, feed, "c_custkey", "c_name",
                         max_dist=1, block_fn=block)


def q_kg_bgp_optional_filter(sf_dir: str):
    """FILTER inside OPTIONAL (ops/bgp.py + ops/sparql.py, round 5):
    entities of nation:3 keep their binding whether or not they have
    an order:1xx order — the filter applies to the OPTIONAL group's
    OWN solutions BEFORE the left join (a filtered-out order is "no
    match", the mandatory row survives with the unbound fill), which
    is NOT equivalent to filtering after the join."""
    from pyrdf2vec_ray.ops.sparql import sparql_query

    return sparql_query(_triples(sf_dir), """
        SELECT ?c ?o WHERE {
          ?c in_nation "nation:3" .
          OPTIONAL { ?o placed_by ?c . FILTER(STRSTARTS(?o, "order:1")) }
        }
    """)


def q_kg_betweenness(sf_dir: str):
    """Sampled betweenness centrality (ops/graph.betweenness_sampled,
    round 5): Brandes dependency accumulation from the 3
    smallest-keyed orders, depth 3, over the full KG edge set — the
    forward pass carries exact int64 shortest-path counts (an order's
    parts sharing a supplier give σ>1, so path multiplicity is really
    exercised), the backward pass walks the levels in reverse with
    one adaptive join each.  The oracle unrolls all 3 levels + the
    backward recurrence in SQL."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.graph import betweenness_sampled

    tri = _triples(sf_dir)

    def as_edges(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"a": batch["subj"].to_numpy(),
                             "b": batch["obj"].to_numpy()})

    keys = sorted(ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey"]
    ).to_pandas()["o_orderkey"].astype(int).tolist())[:3]
    seeds = [f"order:{k}" for k in keys]
    return betweenness_sampled(
        tri.map_batches(as_edges, batch_format="pandas"), seeds,
        max_depth=3)


def q_embedding_procrustes(sf_dir: str):
    """Orthogonal Procrustes space alignment
    (ops/similarity.procrustes_align, round 5): the retrained-embedder
    fix — recover the rotation between two embedding versions from
    their shared ids and map the old space through it.  The planted
    target space is the REVERSED-dims, alternating-sign map of the
    embeddings table (a signed permutation is orthogonal AND
    SQL-expressible), so the recovered R must reproduce it to float
    precision and the aligned vectors value-check dimension by
    dimension: the query returns the first 6 aligned dims per vec_id,
    the oracle computes ±embedding[k] directly."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.similarity import procrustes_align

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def rotated(batch: pd.DataFrame) -> pd.DataFrame:
        X = np.stack(batch["embedding"].to_numpy()).astype(np.float64)
        d = X.shape[1]
        signs = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
        Y = X[:, ::-1] * signs  # out[k] = sign(k) * in[d-1-k]
        return pd.DataFrame({"vec_id": batch["vec_id"].to_numpy(),
                             "embedding": list(Y)})

    dst = emb.map_batches(rotated, batch_format="pandas")
    _R, aligned = procrustes_align(emb, dst)

    def first_dims(batch: pd.DataFrame) -> pd.DataFrame:
        A = np.stack(batch["embedding"].to_numpy())
        out = {"vec_id": batch["vec_id"].to_numpy()}
        for k in range(6):
            out[f"d{k}"] = A[:, k]
        return pd.DataFrame(out)

    return aligned.map_batches(first_dims, batch_format="pandas")


def q_kg_weighted_distances(sf_dir: str):
    """Bounded weighted shortest paths (ops/graph.weighted_distances,
    round 5): min-plus Bellman–Ford from the 3 smallest-keyed orders
    over the KG with edge weight = length(obj) (deterministic,
    SQL-replayable) — exact int64 distances, 3 rounds, each ONE
    adaptive frontier⋈edges join + ONE (seed, vertex)-bucket
    min-reduce.  The oracle unrolls the three relaxation rounds."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.graph import weighted_distances

    tri = _triples(sf_dir)

    def as_edges(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"a": batch["subj"].to_numpy(),
             "b": batch["obj"].to_numpy(),
             "w": batch["obj"].str.len().to_numpy(np.int64)})

    keys = sorted(ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey"]
    ).to_pandas()["o_orderkey"].astype(int).tolist())[:3]
    seeds = [f"order:{k}" for k in keys]
    return weighted_distances(
        tri.map_batches(as_edges, batch_format="pandas"), seeds,
        rounds=3)


def q_curation_pipeline(sf_dir: str):
    """End-to-end corpus curation (pipelines/curation.curate_corpus,
    round 5): ONE lazy plan chaining length gate → exact dedup →
    benchmark decontamination over a corpus with PLANTED dirt — +1M
    exact duplicates (dedup must keep the original id), +2M two-token
    stubs (length gate must drop), and the first 10 docs' texts as
    the "benchmark" (decontamination must drop them).  The oracle
    replays every gate in SQL over the same planted union."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.pipelines.curation import curate_corpus

    docs = _docs(sf_dir)

    def dup_plant(batch: pd.DataFrame) -> pd.DataFrame:
        sub = batch[batch["doc_id"] < 50].copy()
        sub["doc_id"] = sub["doc_id"] + 1_000_000
        return sub

    def stub_plant(batch: pd.DataFrame) -> pd.DataFrame:
        sub = batch[batch["doc_id"] < 20].copy()
        sub["doc_id"] = sub["doc_id"] + 2_000_000
        sub["text"] = "tiny doc"
        return sub

    def bench_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch["doc_id"] < 10][["doc_id", "text"]]

    dirty = docs.union(
        docs.map_batches(dup_plant, batch_format="pandas"),
        docs.map_batches(stub_plant, batch_format="pandas"))
    bench = docs.map_batches(bench_rows, batch_format="pandas")
    return curate_corpus(dirty, min_tokens=5, dedup="exact",
                         benchmark=bench)


def q_events_audience_overlap(sf_dir: str):
    """Sketch-estimated audience overlap (round 5): |users(day A) ∩
    users(day B)| by inclusion–exclusion over THREE HLL estimates —
    est(A) + est(B) − est(A∪B) — where the union sketch is the
    register-wise max (the same mergeability hll_sliding_estimate
    rides).  Days A/B = the two earliest days in the event log.  All
    register math and the estimator replay in SQL, so the overlap
    estimate is value-checked end to end; exchanges are
    days × 2^p register rows, event-volume-independent."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.sketch import hll_estimate, hll_registers_values
    from pyrdf2vec_ray.util import to_table

    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def day(batch: pd.DataFrame) -> pd.DataFrame:
        ns = batch["ts"].astype("datetime64[ns]").astype("int64")
        return pd.DataFrame(
            {"day": ns // 86_400_000_000_000,
             "u": batch["user_id"].astype("int64").astype(str)})

    ds = events.map_batches(day, batch_format="pandas")
    regs = to_table(hll_registers_values(ds, "day", "u")).to_pandas()
    d0, d1 = sorted(regs["day"].unique())[:2]
    two = regs[regs["day"].isin([d0, d1])].copy()
    union = (two.groupby("reg", as_index=False)["rho_max"].max())
    union["day"] = -1
    allregs = pd.concat(
        [two[["day", "reg", "rho_max"]], union[["day", "reg",
                                                "rho_max"]]],
        ignore_index=True)
    est = hll_estimate(allregs, "day").set_index("day")["est_distinct"]
    overlap = float(est[d0] + est[d1] - est[-1])
    return ray.data.from_arrow(pa.table({
        "day_a": pa.array([int(d0)], pa.int64()),
        "day_b": pa.array([int(d1)], pa.int64()),
        "est_a": pa.array([float(est[d0])], pa.float64()),
        "est_b": pa.array([float(est[d1])], pa.float64()),
        "est_union": pa.array([float(est[-1])], pa.float64()),
        "est_overlap": pa.array([overlap], pa.float64()),
    }))


def q_kg_bgp_globalagg(sf_dir: str):
    """SPARQL global aggregates — no GROUP BY (ops/sparql.py, round
    5): SPARQL's implicit single group, compiled as a constant-key tag
    + the same ONE bucket reduce, key dropped after.  Whole-KG
    numbers: member count, distinct-nation count, min/max member
    name."""
    from pyrdf2vec_ray.ops.sparql import sparql_query

    return sparql_query(_triples(sf_dir), """
        SELECT (COUNT(?x) AS ?n_members)
               (COUNT(DISTINCT ?n) AS ?n_nations)
               (MIN(?x) AS ?first) (MAX(?x) AS ?last)
        WHERE { ?x in_nation ?n }
    """)


def q_kg_bgp_values_rows(sf_dir: str):
    """Correlated multi-variable VALUES (ops/sparql.py + ops/bgp.py
    values_rows, round 5): (nation, region) PAIRS as an inline
    solution table inner-joined onto the BGP — wrong pairings must
    drop even when each value exists individually (the semantics the
    per-variable isin form cannot express).  nation:5 sits in
    region:0, so both its rows are wrong pairings."""
    from pyrdf2vec_ray.ops.sparql import sparql_query

    return sparql_query(_triples(sf_dir), """
        SELECT ?x ?n ?r WHERE {
          ?x in_nation ?n . ?n in_region ?r .
          VALUES (?n ?r) { ("nation:7" "region:2")
                           ("nation:3" "region:3")
                           ("nation:5" "region:1")
                           ("nation:5" "region:2") }
        }
    """)


def q_kg_modularity(sf_dir: str):
    """Exact Newman modularity (ops/graph.modularity, round 5) of the
    NATION partition over the membership graph + planted peer cycles:
    in_nation edges are all intra-community, the kg_scc peer cycles
    cut across nations — Q reported as the exact int64 rational
    q_num/q_den (4·m·m_c − d_c² sums), community-scale exchanges
    only, the fold bounded by the class count."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.graph import modularity

    tri = _triples(sf_dir)

    def member_edges(batch: pd.DataFrame) -> pd.DataFrame:
        sub = batch[batch["pred"] == "in_nation"]
        return pd.DataFrame({"a": sub["subj"].to_numpy(),
                             "b": sub["obj"].to_numpy()})

    def label_rows(batch: pd.DataFrame) -> pd.DataFrame:
        sub = batch[batch["pred"] == "in_nation"]
        return pd.DataFrame({
            "node": np.concatenate([sub["subj"].to_numpy(),
                                    sub["obj"].to_numpy()]),
            "label": np.concatenate([sub["obj"].to_numpy(),
                                     sub["obj"].to_numpy()]),
        }).drop_duplicates()

    peers = []
    for k in range(20):
        for j in range(3):
            peers.append({"a": f"customer:{3 * k + j}",
                          "b": f"customer:{3 * k + (j + 1) % 3}"})
    edges = tri.map_batches(member_edges, batch_format="pandas").union(
        ray.data.from_items(peers))
    labels = tri.map_batches(label_rows, batch_format="pandas")
    return modularity(edges, labels)


def q_doc_heaps(sf_dir: str):
    """Heaps'-law vocabulary-growth fit (ops/text.heaps_fit, round 5):
    V(n) ~ K n^beta from 8 doc-id checkpoints — order-free
    formulation (V(t) = tokens with MIN doc_id <= t, one vocab-scale
    min-reduce; n(t) from per-block partial sums), the sibling of
    doc_zipf.  The oracle replays thresholds, prefix counts, and the
    OLS closed form."""
    from pyrdf2vec_ray.ops.text import heaps_fit

    return heaps_fit(_docs(sf_dir), n_points=8)


def q_events_funnel_window(sf_dir: str):
    """Windowed funnel (ops/events.funnel within=, round 5): the
    view→click→purchase funnel with a 48-hour CONVERSION WINDOW per
    hop — late conversions stop counting (the growth-analytics
    default the unbounded funnel can't express).  Same one
    user-bucket exchange; the window is a vectorized mask inside the
    chained min-after scan."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.events import funnel

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts"])
    return funnel(ev, ["view", "click", "purchase"],
                  within=pd.Timedelta(hours=48))


def q_events_ordered_pairs(sf_dir: str):
    """Behavioral precedence census (ops/events.ordered_pair_counts,
    round 5): per ordered event-type pair (a, b), the number of users
    with some a strictly before some b — the 2-subsequence support of
    sequential-pattern mining, reduced to per-(user, type) min/max
    spans so the exchange is users × type-domain, never events."""
    import ray.data

    from pyrdf2vec_ray.ops.events import ordered_pair_counts

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts"])
    return ordered_pair_counts(ev)


def q_doc_source_report(sf_dir: str):
    """Per-source corpus report card (round 5): the one-table summary
    a curation pipeline publishes per ingest source — doc/char/token
    volumes, mean length, and the exact duplicate-doc count (docs
    minus distinct texts).  Volumes ride ONE pre-aggregating
    source-bucket reduce; the dup count is a distinct
    (source, text-hash) shuffle joined back at source scale."""
    import hashlib

    import pandas as pd

    from pyrdf2vec_ray.ops.join import hash_join
    from pyrdf2vec_ray.shuffle import bucket_agg, distinct

    docs = _docs(sf_dir, columns=("doc_id", "text", "source"))

    def vol(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["text"].astype(str)
        part = pd.DataFrame({
            "source": batch["source"].to_numpy(),
            "n_docs": np.int64(1),
            "total_chars": t.str.len().to_numpy(np.int64),
            "total_tokens": t.str.split().map(len).to_numpy(np.int64)})
        return part.groupby("source", as_index=False).sum()

    vols = bucket_agg(
        docs.map_batches(vol, batch_format="pandas"), ["source"],
        {"n_docs": ("n_docs", "sum"),
         "total_chars": ("total_chars", "sum"),
         "total_tokens": ("total_tokens", "sum")}, pre=False)

    def hashed(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": batch["source"].to_numpy(),
            "h": [hashlib.md5(t.encode()).hexdigest()
                  for t in batch["text"].astype(str)]})

    dtexts = distinct(docs.map_batches(hashed, batch_format="pandas"),
                      ["source", "h"])

    def dcount(batch: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame({"source": batch["source"].to_numpy(),
                             "n_distinct": np.int64(1)})
        return part.groupby("source", as_index=False).sum()

    dist_counts = bucket_agg(
        dtexts.map_batches(dcount, batch_format="pandas"), ["source"],
        {"n_distinct": ("n_distinct", "sum")}, pre=False)

    o = np.dtype("O")
    i8 = np.dtype("int64")
    joined = hash_join(
        vols, dist_counts, on=["source"],
        lschema={"source": o, "n_docs": i8, "total_chars": i8,
                 "total_tokens": i8},
        rschema={"source": o, "n_distinct": i8})

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["mean_tokens"] = (
            batch["total_tokens"].to_numpy(np.int64)
            / batch["n_docs"].to_numpy(np.float64))
        batch["dup_docs"] = (batch["n_docs"].to_numpy(np.int64)
                             - batch["n_distinct"].to_numpy(np.int64))
        return batch[["source", "n_docs", "total_chars",
                      "total_tokens", "mean_tokens", "dup_docs"]]

    return joined.map_batches(finish, batch_format="pandas")


def q_embedding_isotropy(sf_dir: str):
    """Embedding-space isotropy (ops/similarity.isotropy_stats, round
    5): anisotropy = ‖μ‖² / E‖x‖² — the collapsed-space pathology
    check an embedding pipeline runs after training; one
    sufficient-statistics pass, block partials folded on the driver.
    Oracle: per-dim means via a range(64) cross join + list indexing."""
    from pyrdf2vec_ray.ops.similarity import isotropy_stats

    import ray.data

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return isotropy_stats(emb)


def q_kg_bgp_minus_filter(sf_dir: str):
    """FILTER inside MINUS (ops/bgp.py + ops/sparql.py, round 5):
    drop entities of nation:3 that have an order:1xx order — the
    inner filter prunes the MINUS group's OWN solutions before the
    anti-join key set, so entities whose only orders fail the filter
    SURVIVE (not expressible by filtering after the anti-join)."""
    from pyrdf2vec_ray.ops.sparql import sparql_query

    return sparql_query(_triples(sf_dir), """
        SELECT ?c WHERE {
          ?c in_nation "nation:3" .
          MINUS { ?o placed_by ?c . FILTER(STRSTARTS(?o, "order:1")) }
        }
    """)


def q_kg_ktruss(sf_dir: str):
    """Bounded k-truss (ops/graph.ktruss_bounded, round 5): the
    triangle-supported dense-subgraph peel over the membership graph +
    planted structure — a 4-clique among customers 0–3 (edge support
    2, the only 4-truss), the kg_scc 3-cycles (support 1, peel round
    1), and the triangle-free in_nation edges (support 0).  k=4,
    rounds=2; the oracle unrolls both peel rounds with three-way
    self-joins."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.graph import ktruss_bounded

    tri = _triples(sf_dir)

    def member_edges(batch: pd.DataFrame) -> pd.DataFrame:
        sub = batch[batch["pred"] == "in_nation"]
        return pd.DataFrame({"a": sub["subj"].to_numpy(),
                             "b": sub["obj"].to_numpy()})

    planted = []
    cl = [f"customer:{i}" for i in range(4)]
    for i, x in enumerate(cl):
        for y in cl[i + 1:]:
            planted.append({"a": x, "b": y})
    for kk in range(20):
        for j in range(3):
            planted.append({"a": f"customer:{3 * kk + j}",
                            "b": f"customer:{3 * kk + (j + 1) % 3}"})
    edges = tri.map_batches(member_edges, batch_format="pandas").union(
        ray.data.from_items(planted))
    return ktruss_bounded(edges, k=4, rounds=2)


def q_kg_conductance(sf_dir: str):
    """Per-community conductance (ops/graph.conductance, round 5):
    the class-level detail of kg_modularity over the same nation
    partition + cross-cutting peer cycles — cut / min(vol, 2m−vol)
    per nation, exact int numerator/denominator columns, class-count-
    sized output."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.graph import conductance

    tri = _triples(sf_dir)

    def member_edges(batch: pd.DataFrame) -> pd.DataFrame:
        sub = batch[batch["pred"] == "in_nation"]
        return pd.DataFrame({"a": sub["subj"].to_numpy(),
                             "b": sub["obj"].to_numpy()})

    def label_rows(batch: pd.DataFrame) -> pd.DataFrame:
        sub = batch[batch["pred"] == "in_nation"]
        return pd.DataFrame({
            "node": np.concatenate([sub["subj"].to_numpy(),
                                    sub["obj"].to_numpy()]),
            "label": np.concatenate([sub["obj"].to_numpy(),
                                     sub["obj"].to_numpy()]),
        }).drop_duplicates()

    peers = []
    for k in range(20):
        for j in range(3):
            peers.append({"a": f"customer:{3 * k + j}",
                          "b": f"customer:{3 * k + (j + 1) % 3}"})
    edges = tri.map_batches(member_edges, batch_format="pandas").union(
        ray.data.from_items(peers))
    labels = tri.map_batches(label_rows, batch_format="pandas")
    return conductance(edges, labels)


def q_events_churn(sf_dir: str):
    """Daily churn (round 5 composition): per epoch-day d, how many
    users were active on d−1 but silent on d — distinct (user, day)
    pairs (ONE distinct shuffle), shifted +1 day, ANTI semi-joined
    against the activity pairs, counted per day.  Days beyond the
    log's last day are excluded (no activity data to churn
    against)."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.join import hash_semi_join
    from pyrdf2vec_ray.shuffle import bucket_count, distinct

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        ns = batch["ts"].astype("datetime64[ns]").astype("int64")
        return pd.DataFrame(
            {"user_id": batch["user_id"].to_numpy(np.int64),
             "day": ns // 86_400_000_000_000}
        ).drop_duplicates()

    act = distinct(ev.map_batches(pairs, batch_format="pandas"),
                   ["user_id", "day"]).materialize()
    max_day = int(act.max("day"))

    def shifted(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        out["day"] = out["day"].to_numpy(np.int64) + 1
        return out[out["day"] <= max_day]

    i8 = np.dtype("int64")
    churned = hash_semi_join(
        act.map_batches(shifted, batch_format="pandas"), act,
        on=["user_id", "day"], anti=True,
        lschema={"user_id": i8, "day": i8},
        rschema={"user_id": i8, "day": i8})
    return bucket_count(churned.select_columns(["day"]), ["day"],
                        count_col="n_churned")


def q_kg_degree_distribution(sf_dir: str):
    """Degree distribution of the KG (round 5 composition): the
    counts-of-counts profile (out-degree → node count) every graph
    report opens with — two chained bucket counts, degree-domain
    output."""
    from pyrdf2vec_ray.shuffle import bucket_count

    deg = bucket_count(_triples(sf_dir).select_columns(["subj"]),
                       ["subj"], count_col="degree")
    return bucket_count(deg.select_columns(["degree"]), ["degree"],
                        count_col="n_nodes")


def q_events_stickiness(sf_dir: str):
    """DAU/WAU stickiness per epoch-week (round 5 composition): mean
    daily-active count over the week divided by the week's distinct
    actives — the engagement ratio product dashboards track.  Exact
    int sums, the division shared with the oracle."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.join import hash_join
    from pyrdf2vec_ray.shuffle import bucket_agg, distinct

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        ns = batch["ts"].astype("datetime64[ns]").astype("int64")
        day = ns // 86_400_000_000_000
        return pd.DataFrame(
            {"user_id": batch["user_id"].to_numpy(np.int64),
             "day": day, "week": day // 7}).drop_duplicates()

    act = distinct(ev.map_batches(pairs, batch_format="pandas"),
                   ["user_id", "day", "week"]).materialize()

    def dau_part(batch: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame({"week": batch["week"].to_numpy(np.int64),
                             "dau_sum": np.int64(1)})
        return part.groupby("week", as_index=False).sum()

    dau = bucket_agg(act.map_batches(dau_part, batch_format="pandas"),
                     ["week"], {"dau_sum": ("dau_sum", "sum")},
                     pre=False)

    def wau_part(batch: pd.DataFrame) -> pd.DataFrame:
        part = batch[["user_id", "week"]].drop_duplicates()
        out = pd.DataFrame({"week": part["week"].to_numpy(np.int64),
                            "wau": np.int64(1)})
        return out.groupby("week", as_index=False).sum()

    wau = bucket_agg(
        distinct(act.select_columns(["user_id", "week"]),
                 ["user_id", "week"]).map_batches(
            wau_part, batch_format="pandas"),
        ["week"], {"wau": ("wau", "sum")}, pre=False)

    def ndays_part(batch: pd.DataFrame) -> pd.DataFrame:
        part = batch[["day", "week"]].drop_duplicates()
        out = pd.DataFrame({"week": part["week"].to_numpy(np.int64),
                            "n_days": np.int64(1)})
        return out.groupby("week", as_index=False).sum()

    ndays = bucket_agg(
        distinct(act.select_columns(["day", "week"]),
                 ["day", "week"]).map_batches(
            ndays_part, batch_format="pandas"),
        ["week"], {"n_days": ("n_days", "sum")}, pre=False)

    i8 = np.dtype("int64")
    j = hash_join(hash_join(dau, wau, on=["week"],
                            lschema={"week": i8, "dau_sum": i8},
                            rschema={"week": i8, "wau": i8}),
                  ndays, on=["week"],
                  lschema={"week": i8, "dau_sum": i8, "wau": i8},
                  rschema={"week": i8, "n_days": i8})

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["stickiness"] = (
            batch["dau_sum"].to_numpy(np.int64)
            / (batch["n_days"].to_numpy(np.float64)
               * batch["wau"].to_numpy(np.float64)))
        return batch[["week", "dau_sum", "n_days", "wau",
                      "stickiness"]]

    return j.map_batches(finish, batch_format="pandas")


def q_events_bounce_rate(sf_dir: str):
    """Per-day bounce rate (round 5 composition): fraction of sessions
    with exactly ONE event, keyed by the session's start day —
    `ops/events.sessionize`'s one user-bucket exchange feeds a
    day-bucket count reduce; exact int counts, shared division."""
    import pandas as pd

    import ray.data

    from pyrdf2vec_ray.ops.events import sessionize
    from pyrdf2vec_ray.shuffle import bucket_agg

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    sess = sessionize(ev, gap_minutes=30)

    def per_day(batch: pd.DataFrame) -> pd.DataFrame:
        ns = batch["session_start"].astype("datetime64[ns]")             .astype("int64")
        part = pd.DataFrame({
            "day": ns // 86_400_000_000_000,
            "n_sessions": np.int64(1),
            "n_bounces": (batch["n_events"].to_numpy(np.int64) == 1)
            .astype(np.int64)})
        return part.groupby("day", as_index=False).sum()

    agg = bucket_agg(sess.map_batches(per_day, batch_format="pandas"),
                     ["day"], {"n_sessions": ("n_sessions", "sum"),
                               "n_bounces": ("n_bounces", "sum")},
                     pre=False)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["bounce_rate"] = (
            batch["n_bounces"].to_numpy(np.int64)
            / batch["n_sessions"].to_numpy(np.float64))
        return batch[["day", "n_sessions", "n_bounces", "bounce_rate"]]

    return agg.map_batches(finish, batch_format="pandas")


def q_media_audio_dups(sf_dir: str):
    """Audio content dedup over really-decoded WAV
    (ops/multimodal.audio_dup_pairs, round 5): the media_wav_real
    square-wave corpus has 35 natural content classes (length = id%5,
    amplitude = id%7 — docs congruent mod 35 encode IDENTICAL PCM),
    so the decode→hash→pair pipeline must recover exactly the
    id ≡ id' (mod 35) pair set — the oracle is that congruence in
    closed form; any container/PCM mis-parse splits or merges
    classes."""
    import io
    import wave

    import pandas as pd

    from pyrdf2vec_ray.ops.multimodal import audio_dup_pairs

    docs = _docs(sf_dir, columns=("doc_id",))

    def synth(batch: pd.DataFrame) -> pa.Table:
        ids, payloads = [], []
        for did in batch["doc_id"].astype("int64"):
            n = 800 + (int(did) % 5) * 160
            amp = 1000 + (int(did) % 7) * 500
            sig = np.repeat(np.tile(np.array([amp, -amp], np.int16),
                                    n // 16), 8)
            buf = io.BytesIO()
            with wave.open(buf, "wb") as w:
                w.setnchannels(1)
                w.setsampwidth(2)
                w.setframerate(8000)
                w.writeframes(sig.tobytes())
            ids.append(int(did))
            payloads.append(buf.getvalue())
        return pa.Table.from_pydict(
            {"doc_id": pa.array(ids, pa.int64()),
             "payload": pa.array(payloads, pa.binary())})

    return audio_dup_pairs(docs.map_batches(synth,
                                            batch_format="pandas"))


def q_kg_pred_stats(sf_dir: str):
    """Predicate cardinality profile (round 5 composition): per
    predicate — triple count, distinct subjects/objects, and the mean
    out-fanout (triples per subject) — the one-table KG shape summary
    complementing the domain/range census; ONE combiner reduce plus
    two distinct-pair reduces, all predicate-keyed."""
    import pandas as pd

    from pyrdf2vec_ray.ops.join import hash_join
    from pyrdf2vec_ray.shuffle import bucket_agg, distinct

    tri = _triples(sf_dir)

    def vol(batch: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame({"pred": batch["pred"].to_numpy(),
                             "n_triples": np.int64(1)})
        return part.groupby("pred", as_index=False).sum()

    vols = bucket_agg(tri.map_batches(vol, batch_format="pandas"),
                      ["pred"], {"n_triples": ("n_triples", "sum")},
                      pre=False)

    def side_count(col, out_name):
        pairs = distinct(tri.select_columns(["pred", col]),
                         ["pred", col])

        def cnt(batch: pd.DataFrame) -> pd.DataFrame:
            part = pd.DataFrame({"pred": batch["pred"].to_numpy(),
                                 out_name: np.int64(1)})
            return part.groupby("pred", as_index=False).sum()

        return bucket_agg(pairs.map_batches(cnt,
                                            batch_format="pandas"),
                          ["pred"], {out_name: (out_name, "sum")},
                          pre=False)

    o = np.dtype("O")
    i8 = np.dtype("int64")
    j = hash_join(
        hash_join(vols, side_count("subj", "n_subjects"), on=["pred"],
                  lschema={"pred": o, "n_triples": i8},
                  rschema={"pred": o, "n_subjects": i8}),
        side_count("obj", "n_objects"), on=["pred"],
        lschema={"pred": o, "n_triples": i8, "n_subjects": i8},
        rschema={"pred": o, "n_objects": i8})

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["mean_fanout"] = (
            batch["n_triples"].to_numpy(np.int64)
            / batch["n_subjects"].to_numpy(np.float64))
        return batch[["pred", "n_triples", "n_subjects", "n_objects",
                      "mean_fanout"]]

    return j.map_batches(finish, batch_format="pandas")


# ---- contract --------------------------------------------------------------

def entry() -> Any:
    """Flagship on sf0.001: relational KG → BFS walk corpus Dataset."""
    from pyrdf2vec_ray.walkers import WalkerSpec, explode_walks, extract_walks

    gi = _graph_index(SF_SMOKE)
    entities = _customer_entities(SF_SMOKE)[:100]
    spec = WalkerSpec(strategy="random", max_depth=2, max_walks=None)
    return explode_walks(extract_walks(gi, entities, spec, batch_size=64))


def _gc_guard(fn: Callable[[str], Any]) -> Callable[[str], Any]:
    """Deterministic GC point before each query: a long single-session
    sweep (~100 queries, hundreds of Datasets) once hit Ray 2.49's
    ``reference_count.cc submitted_task_ref_count`` crash — object refs
    collected from destructor threads racing in-flight task accounting.
    Collecting at a quiescent point between queries shrinks that window;
    query semantics are untouched."""
    import functools
    import gc

    @functools.wraps(fn)
    def guarded(sf_dir: str):
        gc.collect()
        return fn(sf_dir)

    return guarded


def queries() -> dict[str, Callable[[str], Any]]:
    """Registry ordered for the driver gate: oracle-backed queries
    first (cheapest first, kg_triples leading to warm the shared
    triples cache), rows-only checks last — so a bounded verification
    budget always covers every SQL-checkable operator."""
    return {name: _gc_guard(fn) for name, fn in {
        "kg_triples": q_kg_triples,
        "doc_tokens_bpe": q_doc_tokens_bpe,
        "doc_chunks": q_doc_chunks,
        "doc_redact_pii": q_doc_redact_pii,
        "doc_splits": q_doc_splits,
        "doc_sample_stratified": q_doc_sample_stratified,
        "doc_temperature_sample": q_doc_temperature_sample,
        "events_hot_users": q_events_hot_users,
        "doc_repetition": q_doc_repetition,
        "doc_normalize": q_doc_normalize,
        "doc_text_stats": q_doc_text_stats,
        "tokens_by_lang": q_tokens_by_lang,
        "cms_counters": q_cms_counters,
        "bloom_words": q_bloom_words,
        "events_sliding": q_events_sliding,
        "doc_quality": q_doc_quality,
        "doc_exact_dedup": q_doc_exact_dedup,
        "doc_dedup_best": q_doc_dedup_best,
        "doc_winsorize": q_doc_winsorize,
        "hll_registers": q_hll_registers,
        "events_hll_daily": q_events_hll_daily,
        "doc_lang_id": q_doc_lang_id,
        "lang_confusion": q_lang_confusion,
        "orders_by_month": q_orders_by_month,
        "embedding_label_centroids": q_embedding_label_centroids,
        "embedding_centroid_sim": q_embedding_centroid_sim,
        "revenue_by_nation": q_revenue_by_nation,
        "kg_assortativity": q_kg_assortativity,
        "kg_neighbor_jaccard": q_kg_neighbor_jaccard,
        "events_user_gini": q_events_user_gini,
        "orders_month_chisq": q_orders_month_chisq,
        "lineitem_weighted_quantiles": q_lineitem_weighted_quantiles,
        "orders_benford": q_orders_benford,
        "events_value_hist": q_events_value_hist,
        "doc_lang_source_cramer": q_doc_lang_source_cramer,
        "events_type_gini": q_events_type_gini,
        "kg_pred_cooccur": q_kg_pred_cooccur,
        "orders_skyline": q_orders_skyline,
        "doc_containment": q_doc_containment,
        "doc_source_len_gini": q_doc_source_len_gini,
        "events_seq_examples": q_events_seq_examples,
        "orders_expectations": q_orders_expectations,
        "customer_rfm": q_customer_rfm,
        "cohort_ltv": q_cohort_ltv,
        "revenue_concentration": q_revenue_concentration,
        "events_pivot": q_events_pivot,
        "doc_robust_stats": q_doc_robust_stats,
        "doc_prefix_dups": q_doc_prefix_dups,
        "doc_dup_spans": q_doc_dup_spans,
        "kg_bfs_distances": q_kg_bfs_distances,
        "kg_harmonic": q_kg_harmonic,
        "kg_pagerank_rounds": q_kg_pagerank_rounds,
        "kg_hits_rounds": q_kg_hits_rounds,
        "nation_members_outer": q_nation_members_outer,
        "orders_diff": q_orders_diff,
        "doc_rank_in_lang": q_doc_rank_in_lang,
        "table_profile": q_table_profile,
        "orders_upsert": q_orders_upsert,
        "knn_bruteforce": q_knn_bruteforce,
        "doc_topk_by_lang": q_doc_topk_by_lang,
        "doc_budget_sample": q_doc_budget_sample,
        "doc_fingerprint": q_doc_fingerprint,
        "doc_sample_exact": q_doc_sample_exact,
        "doc_priority_sample": q_doc_priority_sample,
        "doc_boilerplate": q_doc_boilerplate,
        "doc_url_domains": q_doc_url_domains,
        "doc_bm25": q_doc_bm25,
        "kg_comentions": q_kg_comentions,
        "embedding_clusters": q_embedding_clusters,
        "kmeans_step": q_kmeans_step,
        "kmeans_fit3": q_kmeans_fit3,
        "embedding_pca": q_embedding_pca,
        "kg_predicate_profile": q_kg_predicate_profile,
        "kg_functional_preds": q_kg_functional_preds,
        "embedding_neighbor_mean": q_embedding_neighbor_mean,
        "events_transitions": q_events_transitions,
        "part_er_pairs": q_part_er_pairs,
        "part_er_resolve": q_part_er_resolve,
        "embedding_quantize": q_embedding_quantize,
        "doc_line_dedup": q_doc_line_dedup,
        "doc_collocations": q_doc_collocations,
        "events_interarrival": q_events_interarrival,
        "events_window_topk": q_events_window_topk,
        "events_running_totals": q_events_running_totals,
        "events_funnel": q_events_funnel,
        "lineitem_pricing": q_lineitem_pricing,
        "doc_decontaminate": q_doc_decontaminate,
        "construct_doc_mentions": q_construct_doc_mentions,
        "doc_shuffle_order": q_doc_shuffle_order,
        "doc_ecdf": q_doc_ecdf,
        "events_hourly": q_events_hourly,
        "events_rolling": q_events_rolling,
        "tokens_distinct_by_lang": q_tokens_distinct_by_lang,
        "doc_zscore": q_doc_zscore,
        "events_retention": q_events_retention,
        "inverted_index": q_inverted_index,
        "doc_pack_sequences": q_doc_pack_sequences,
        "events_daily_users": q_events_daily_users,
        "doc_tfidf": q_doc_tfidf,
        "doc_decontam_ngram": q_doc_decontam_ngram,
        "doc_interleave": q_doc_interleave,
        "literals_region_chain": q_literals_region_chain,
        "events_sessions": q_events_sessions,
        "doc_above_median": q_doc_above_median,
        "doc_length_quantiles": q_doc_length_quantiles,
        "events_asof": q_events_asof,
        "events_attribution": q_events_attribution,
        "events_window_join": q_events_window_join,
        "events_props_extract": q_events_props_extract,
        "events_session_paths": q_events_session_paths,
        "media_resized_dims": q_media_resized_dims,
        "media_wav_real": q_media_wav_real,
        "media_pgm_real": q_media_pgm_real,
        "media_any_image": q_media_any_image,
        "media_frames_milli": q_media_frames_milli,
        "doc_bigram_lm": q_doc_bigram_lm,
        "orders_anti_join": q_orders_anti_join,
        "walks_anonymous": q_walks_anonymous,
        "walks_split": q_walks_split,
        "lpa_sweep1": q_lpa_sweep1,
        "pagerank_iter1": q_pagerank_iter1,
        "ppr_customers_iter1": q_ppr_customers_iter1,
        "hits_iter1": q_hits_iter1,
        "join_orders_customer": q_join_orders_customer,
        "customer_nation_broadcast": q_customer_nation_broadcast,
        "media_features_milli": q_media_features_milli,
        "events_interval_join": q_events_interval_join,
        "ngram_jaccard": q_ngram_jaccard,
        "walks_halk": q_walks_halk,
        "walks_dfs_exhausted": q_walks_dfs_exhausted,
        "walks_ngram": q_walks_ngram,
        "walklets_customers": q_walklets_customers,
        "doc_simhash": q_doc_simhash,
        "walks_reverse": q_walks_reverse,
        "top_spenders_by_nation": q_top_spenders_by_nation,
        "corpus_report": q_corpus_report,
        "fasttext_buckets": q_fasttext_buckets,
        "w2v_vocab": q_w2v_vocab,
        "construct_mentions_checkpointed": q_construct_mentions_checkpointed,
        "embedding_exact_planted": q_embedding_exact_planted,
        "semdedup_planted": q_semdedup_planted,
        "minhash_exact_planted": q_minhash_exact_planted,
        "knn_ivf_exhaustive": q_knn_ivf_exhaustive,
        "doc_quantiles_sampled": q_doc_quantiles_sampled,
        "sampler_objpredfreq": q_sampler_objpredfreq,
        "sampler_predfreq": q_sampler_predfreq,
        "walks_wide_exhausted": q_walks_wide_exhausted,
        "vertex_stats": q_vertex_stats,
        "sampler_objfreq": q_sampler_objfreq,
        "kg_out_degree": q_kg_out_degree,
        "dedup_components": q_dedup_components,
        "walks_community_noteleport": q_walks_community_noteleport,
        "walks_wl_sample": q_walks_wl_sample,
        "bfs_walks_customers": q_bfs_walks_customers,
        "walks_all_vertices": q_walks_all_vertices,
        "bfs_walks_checkpointed": q_bfs_walks_checkpointed,
        # heavy oracled graph queries (run after the cheap oracles)
        "basket_lift": q_basket_lift,
        "kg_vertex_ids": q_kg_vertex_ids,
        "kg_closure": q_kg_closure,
        "kg_negative_edges": q_kg_negative_edges,
        "kg_training_pairs": q_kg_training_pairs,
        "order_triangles": q_order_triangles,
        "order_clustering": q_order_clustering,
        "kg_link_predict": q_kg_link_predict,
        "lineitem_mode": q_lineitem_mode,
        "events_debounce": q_events_debounce,
        "events_wma": q_events_wma,
        "events_daily_dense": q_events_daily_dense,
        "events_cusum": q_events_cusum,
        "events_recency": q_events_recency,
        "events_autocorr": q_events_autocorr,
        "events_concurrency": q_events_concurrency,
        "doc_readability": q_doc_readability,
        "doc_ttr": q_doc_ttr,
        "doc_rrf_fusion": q_doc_rrf_fusion,
        "source_vocab_overlap": q_source_vocab_overlap,
        "source_lang_entropy": q_source_lang_entropy,
        "source_token_kl": q_source_token_kl,
        "doc_compression": q_doc_compression,
        "bpe_train_merges": q_bpe_train_merges,
        "doc_tokens_bpe_trained": q_doc_tokens_bpe_trained,
        "doc_ctfidf": q_doc_ctfidf,
        "doc_dsir_weights": q_doc_dsir_weights,
        "lineitem_regression": q_lineitem_regression,
        "orders_mi": q_orders_mi,
        "orders_rollup": q_orders_rollup,
        "kg_bgp_match": q_kg_bgp_match,
        "kg_bgp_optional": q_kg_bgp_optional,
        "kg_mis": q_kg_mis,
        "kg_bgp_minus": q_kg_bgp_minus,
        "kg_bgp_groupcount": q_kg_bgp_groupcount,
        "kg_bgp_construct": q_kg_bgp_construct,
        "kg_bgp_relational": q_kg_bgp_relational,
        "kg_bgp_path": q_kg_bgp_path,
        "kg_sparql_text": q_kg_sparql_text,
        "kg_bgp_union": q_kg_bgp_union,
        "kg_bgp_filter_str": q_kg_bgp_filter_str,
        "kg_bgp_groupsum": q_kg_bgp_groupsum,
        "kg_bgp_exists": q_kg_bgp_exists,
        "kg_bgp_notexists": q_kg_bgp_notexists,
        "kg_bgp_groupconcat": q_kg_bgp_groupconcat,
        "kg_sameas_canonical": q_kg_sameas_canonical,
        "kg_conflict_resolve": q_kg_conflict_resolve,
        "customer_k_anonymity": q_customer_k_anonymity,
        "user_purchase_auc": q_user_purchase_auc,
        "user_purchase_pr": q_user_purchase_pr,
        "user_purchase_calibration": q_user_purchase_calibration,
        "cohort_purchase_auc": q_cohort_purchase_auc,
        "media_image_dups": q_media_image_dups,
        "media_image_neardups": q_media_image_neardups,
        "events_sliding_distinct": q_events_sliding_distinct,
        "customer_er_link": q_customer_er_link,
        "kg_bgp_optional_filter": q_kg_bgp_optional_filter,
        "kg_betweenness": q_kg_betweenness,
        "embedding_procrustes": q_embedding_procrustes,
        "kg_weighted_distances": q_kg_weighted_distances,
        "curation_pipeline": q_curation_pipeline,
        "events_audience_overlap": q_events_audience_overlap,
        "kg_bgp_globalagg": q_kg_bgp_globalagg,
        "kg_bgp_values_rows": q_kg_bgp_values_rows,
        "kg_modularity": q_kg_modularity,
        "doc_heaps": q_doc_heaps,
        "events_funnel_window": q_events_funnel_window,
        "events_ordered_pairs": q_events_ordered_pairs,
        "doc_source_report": q_doc_source_report,
        "embedding_isotropy": q_embedding_isotropy,
        "kg_bgp_minus_filter": q_kg_bgp_minus_filter,
        "kg_ktruss": q_kg_ktruss,
        "kg_conductance": q_kg_conductance,
        "events_churn": q_events_churn,
        "kg_degree_distribution": q_kg_degree_distribution,
        "events_stickiness": q_events_stickiness,
        "events_bounce_rate": q_events_bounce_rate,
        "media_audio_dups": q_media_audio_dups,
        "kg_pred_stats": q_kg_pred_stats,
        "doc_zipf": q_doc_zipf,
        "kg_type_inference": q_kg_type_inference,
        "kg_bgp_star": q_kg_bgp_star,
        "kg_scc": q_kg_scc,
        "fk_orphan_audit": q_fk_orphan_audit,
        "kg_bgp_countdistinct": q_kg_bgp_countdistinct,
        "kg_sparql_slice": q_kg_sparql_slice,
        "kg_sparql_seqpath": q_kg_sparql_seqpath,
        "kg_sparql_invpath": q_kg_sparql_invpath,
        "kg_sparql_bind": q_kg_sparql_bind,
        "kg_describe": q_kg_describe,
        "walks_sparql_roots": q_walks_sparql_roots,
        "lineitem_corr": q_lineitem_corr,
        "embedding_pq": q_embedding_pq,
        "kg_kcore": q_kg_kcore,
        # rows-only (non-SQL-expressible)
        "construct_triples": q_construct_triples,
        "media_resized": q_media_resized,
        "media_frames": q_media_frames,
        "media_features": q_media_features,
        "embedding_neardup": q_embedding_neardup,
        "minhash_neardup": q_minhash_neardup,
        "knn_ivf": q_knn_ivf,
        "fasttext_embeddings": q_fasttext_embeddings,
        "walks_dfs_sampled": q_walks_dfs_sampled,
        "walks_node2vec": q_walks_node2vec,
        "walks_metapath": q_walks_metapath,
        "construct_checkpointed": q_construct_checkpointed,
        "rdf2vec_embeddings": q_rdf2vec_embeddings,
        "rdf2vec_scale_path": q_rdf2vec_scale_path,
        "fasttext_dist": q_fasttext_dist,
        "walks_community": q_walks_community,
        "walks_wide_sampled": q_walks_wide_sampled,
    }.items()}


_ORDER_TRI_CTES = """
            WITH e0 AS (
              SELECT a.o_orderkey AS a, b.o_orderkey AS b
              FROM orders a JOIN orders b
                ON a.o_custkey = b.o_custkey
               AND a.o_orderkey < b.o_orderkey
            ),
            deg AS (
              SELECT v, count(*) AS d FROM (
                SELECT a AS v FROM e0 UNION ALL SELECT b AS v FROM e0
              ) GROUP BY v
            ),
            de AS (
              SELECT CASE WHEN (da.d, e0.a) < (db.d, e0.b)
                          THEN e0.a ELSE e0.b END AS u,
                     CASE WHEN (da.d, e0.a) < (db.d, e0.b)
                          THEN e0.b ELSE e0.a END AS w,
                     CASE WHEN (da.d, e0.a) < (db.d, e0.b)
                          THEN db.d ELSE da.d END AS dw
              FROM e0 JOIN deg da ON da.v = e0.a
                      JOIN deg db ON db.v = e0.b
            ),
            wed AS (
              SELECT w1.w AS p, w2.w AS q, w1.u AS center
              FROM de w1 JOIN de w2 ON w1.u = w2.u
              WHERE (w1.dw, w1.w) < (w2.dw, w2.w)
            ),
            tri AS (
              SELECT wed.p, wed.q, wed.center
              FROM wed JOIN de ON de.u = wed.p AND de.w = wed.q
            ),
            pv AS (
              SELECT v, count(*) AS n_tri FROM (
                SELECT p AS v FROM tri UNION ALL SELECT q FROM tri
                UNION ALL SELECT center FROM tri
              ) GROUP BY v
            )
"""


_TRIPLES_CTE = """
WITH triples AS (
  SELECT 'customer:' || c_custkey AS subj, 'in_nation' AS pred,
         'nation:' || c_nationkey AS obj FROM customer
  UNION
  SELECT 'supplier:' || s_suppkey, 'in_nation', 'nation:' || s_nationkey FROM supplier
  UNION
  SELECT 'nation:' || n_nationkey, 'in_region', 'region:' || n_regionkey FROM nation
  UNION
  SELECT 'order:' || o_orderkey, 'placed_by', 'customer:' || o_custkey FROM orders
  UNION
  SELECT 'order:' || l_orderkey, 'contains', 'part:' || l_partkey FROM lineitem
  UNION
  SELECT 'part:' || l_partkey, 'supplied_by', 'supplier:' || l_suppkey FROM lineitem
)
"""


_LANG_ID_SQL = """
    WITH h AS (
      SELECT doc_id,
        len(list_filter(regexp_extract_all(lower(text), '[a-z'']+'),
            t -> t IN ('der','die','und','das','ist','nicht','ein','mit','von','zu'))) AS de,
        len(list_filter(regexp_extract_all(lower(text), '[a-z'']+'),
            t -> t IN ('the','and','of','to','a','in','is','it','that','was'))) AS en,
        len(list_filter(regexp_extract_all(lower(text), '[a-z'']+'),
            t -> t IN ('el','la','de','que','los','una','es','por','con','para'))) AS es,
        len(list_filter(regexp_extract_all(lower(text), '[a-z'']+'),
            t -> t IN ('le','la','et','les','des','un','une','est','que','pour'))) AS fr
      FROM documents
    )
    SELECT doc_id, CASE
      WHEN de >= en AND de >= es AND de >= fr AND de > 0 THEN 'de'
      WHEN en >= es AND en >= fr AND en > 0 THEN 'en'
      WHEN es >= fr AND es > 0 THEN 'es'
      WHEN fr > 0 THEN 'fr'
      ELSE 'und' END AS lang_pred
    FROM h
"""


from pyrdf2vec_ray.ops.curate import splitmix64_sql  # noqa: E402  (module-level: _NEG_EDGES_SQL composes it)

_NEG_EDGES_SQL = _TRIPLES_CTE + """,
    verts AS (
      SELECT subj AS v FROM triples
      UNION SELECT obj FROM triples
    ),
    ids AS (
      SELECT v, CAST(ROW_NUMBER() OVER (ORDER BY md5(v), v) - 1
                     AS BIGINT) AS vid
      FROM verts
    ),
    vv AS (SELECT CAST(count(*) AS UBIGINT) AS nv FROM ids),
    c0 AS (
      SELECT ids.v AS src, ids.vid AS sid, gs.i
      FROM ids CROSS JOIN (SELECT unnest(range(2)) AS i) gs
    ),
""" + splitmix64_sql("(sid * 2 + i)", 9, src="c0") + """,
    did AS (
      SELECT src, sid, i,
             CAST(h % (SELECT nv FROM vv) AS BIGINT) AS did
      FROM s3
    ),
    named AS (
      SELECT d.src, x.v AS dst, d.i
      FROM did d JOIN ids x ON x.vid = d.did
      WHERE d.did <> d.sid
    ),
    e AS (SELECT DISTINCT subj AS src, obj AS dst FROM triples)
    SELECT n.src, n.dst, CAST(n.i AS BIGINT) AS i
    FROM named n
    LEFT JOIN e ON n.src = e.src AND n.dst = e.dst
    WHERE e.src IS NULL
"""


def oracle_sql() -> dict[str, str]:
    from pyrdf2vec_ray.ops.curate import (
        assign_splits_sql,
        chunk_documents_sql,
        sample_by_hash_sql,
        temperature_sample_sql,
        budget_sample_sql,
        interleave_sources_sql,
        sample_exact_per_group_sql,
        priority_sample_sql,
        shuffle_order_sql,
    )
    from pyrdf2vec_ray.ops.agg import grouped_quantiles_sql, zscore_by_group_sql
    from pyrdf2vec_ray.ops.text import bm25_topk_sql
    from pyrdf2vec_ray.ops.sketch import bloom_sql, cms_sql

    oracles = {
        "kg_triples": _TRIPLES_CTE + "SELECT subj, pred, obj FROM triples",
        "kg_out_degree": _TRIPLES_CTE
        + "SELECT subj, count(*) AS out_deg FROM triples GROUP BY subj",
        "sampler_objfreq": _TRIPLES_CTE
        + "SELECT obj, count(*) AS in_deg FROM triples GROUP BY obj",
        "sampler_predfreq": _TRIPLES_CTE
        + "SELECT pred, count(*) AS n FROM triples GROUP BY pred",
        "sampler_objpredfreq": _TRIPLES_CTE
        + "SELECT pred, obj, count(*) AS n FROM triples GROUP BY pred, obj",
        "vertex_stats": _TRIPLES_CTE + """
            , names AS (
              SELECT subj AS name FROM triples
              UNION SELECT pred FROM triples
              UNION SELECT obj FROM triples
            ),
            o AS (SELECT subj AS name, count(*) AS n FROM triples GROUP BY subj),
            i AS (SELECT obj AS name, count(*) AS n FROM triples GROUP BY obj),
            p AS (SELECT pred AS name, count(*) AS n FROM triples GROUP BY pred)
            SELECT names.name,
                   CAST(COALESCE(i.n, 0) AS BIGINT) AS in_deg,
                   CAST(COALESCE(o.n, 0) AS BIGINT) AS out_deg,
                   CAST(COALESCE(p.n, 0) AS BIGINT) AS pred_count
            FROM names
            LEFT JOIN o ON names.name = o.name
            LEFT JOIN i ON names.name = i.name
            LEFT JOIN p ON names.name = p.name
        """,
        "bfs_walks_checkpointed": """
            SELECT 'customer:' || c_custkey AS e0,
                   'in_nation' AS p1,
                   'nation:' || c_nationkey AS e1,
                   'in_region' AS p2,
                   'region:' || n_regionkey AS e2
            FROM customer JOIN nation ON c_nationkey = n_nationkey
        """,
        "walks_metapath": _TRIPLES_CTE + """,
            roots AS (
              SELECT 'order:' || o_orderkey AS v FROM orders
              WHERE o_orderkey < 200
            ),
            t1 AS (SELECT * FROM triples WHERE pred = 'contains'),
            t2 AS (SELECT * FROM triples WHERE pred = 'supplied_by'),
            t3 AS (SELECT * FROM triples WHERE pred = 'in_nation')
            SELECT r.v AS entity,
                   'contains' AS p1, t1.obj AS e1,
                   'supplied_by' AS p2, t2.obj AS e2,
                   'in_nation' AS p3, t3.obj AS e3
            FROM roots r
            JOIN t1 ON t1.subj = r.v
            JOIN t2 ON t2.subj = t1.obj
            JOIN t3 ON t3.subj = t2.obj
        """,
        "bfs_walks_customers": """
            SELECT 'customer:' || c_custkey AS e0,
                   'in_nation' AS p1,
                   'nation:' || c_nationkey AS e1,
                   'in_region' AS p2,
                   'region:' || n_regionkey AS e2
            FROM customer JOIN nation ON c_nationkey = n_nationkey
        """,
        "walks_all_vertices": _TRIPLES_CTE + """
            , verts AS (
              SELECT DISTINCT v FROM (
                SELECT subj AS v FROM triples
                UNION ALL SELECT obj FROM triples
              )
            )
            SELECT v AS entity, subj || ' ' || pred || ' ' || obj AS walk
            FROM verts JOIN triples ON subj = v
            UNION ALL
            SELECT v AS entity, v AS walk
            FROM verts
            WHERE v NOT IN (SELECT subj FROM triples)
        """,
        "walks_reverse": """
            SELECT 'customer:' || c_custkey AS entity,
                   CASE WHEN o_orderkey IS NULL
                     THEN 'customer:' || c_custkey || ' in_nation nation:' || c_nationkey
                     ELSE 'order:' || o_orderkey || ' placed_by customer:' || c_custkey
                          || ' in_nation nation:' || c_nationkey
                   END AS walk
            FROM customer LEFT JOIN orders ON o_custkey = c_custkey
        """,
        "walks_ngram": """
            WITH walks AS (
              SELECT 'customer:' || c_custkey AS e0, 'in_nation' AS p1,
                     'nation:' || c_nationkey AS e1, 'in_region' AS p2,
                     'region:' || n_regionkey AS e2
              FROM customer JOIN nation ON c_nationkey = n_nationkey
            ), ids AS (
              -- shuffle.dense_ids bijection: rank by (md5(key), key) —
              -- partition-independent, no global lexicographic sort
              SELECT e1, p2, e2,
                     CAST(dense_rank() OVER (
                       ORDER BY md5(e1 || chr(31) || p2 || chr(31) || e2),
                                e1 || chr(31) || p2 || chr(31) || e2
                     ) - 1 AS VARCHAR) AS g4
              FROM (SELECT DISTINCT e1, p2, e2 FROM walks)
            )
            SELECT w.e0, w.p1, w.e1, w.p2, i.g4
            FROM walks w JOIN ids i ON w.e1 = i.e1 AND w.p2 = i.p2 AND w.e2 = i.e2
        """,
        "walklets_customers": """
            SELECT 'customer:' || c_custkey AS w0, 'in_nation' AS w1 FROM customer
            UNION ALL
            SELECT 'customer:' || c_custkey, 'nation:' || c_nationkey FROM customer
        """,
        "literals_region_chain": """
            SELECT 'customer:' || c_custkey AS entity,
                   'region:' || n_regionkey AS value
            FROM customer JOIN nation ON c_nationkey = n_nationkey
        """,
        "doc_exact_dedup": """
            SELECT min(doc_id) AS doc_id, md5(text) AS text_hash
            FROM documents GROUP BY md5(text)
        """,
        "doc_dedup_best": """
            WITH planted AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 4 = 0
                          THEN 'Shared template '
                               || CAST(doc_id % 50 AS VARCHAR)
                          ELSE text END AS text,
                     n_chars
              FROM documents
            ),
            ranked AS (
              SELECT doc_id, md5(text) AS text_hash, n_chars,
                     ROW_NUMBER() OVER (PARTITION BY md5(text)
                                        ORDER BY n_chars DESC, doc_id)
                       AS rn
              FROM planted
            )
            SELECT doc_id, text_hash, CAST(n_chars AS BIGINT) AS n_chars
            FROM ranked WHERE rn = 1
        """,
        "doc_winsorize": """
            WITH cuts AS (
              SELECT lang,
                     quantile_disc(n_chars, 0.05) AS lo,
                     quantile_disc(n_chars, 0.95) AS hi
              FROM documents GROUP BY lang
            )
            SELECT d.lang, d.doc_id, d.n_chars,
                   CAST(least(greatest(d.n_chars, c.lo), c.hi) AS BIGINT)
                     AS clipped
            FROM documents d JOIN cuts c USING (lang)
        """,
        "doc_tfidf": r"""
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[a-z'']+')) AS token
              FROM documents
            ),
            tf AS (
              SELECT doc_id, token, count(*) AS tf
              FROM toks GROUP BY doc_id, token
            ),
            df AS (SELECT token, count(*) AS df FROM tf GROUP BY token),
            n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
            scored AS (
              SELECT tf.doc_id, tf.token,
                     CAST(tf.tf AS BIGINT) AS tf,
                     CAST(df.df AS BIGINT) AS df,
                     tf.tf * ln((SELECT n FROM n) / df.df) AS tfidf,
                     row_number() OVER (
                       PARTITION BY tf.doc_id
                       ORDER BY round(tf.tf * ln((SELECT n FROM n) / df.df), 6)
                                DESC, tf.token ASC
                     ) AS rn
              FROM tf JOIN df USING (token)
            )
            SELECT doc_id, token, tf, df, tfidf FROM scored WHERE rn <= 5
        """,
        "doc_text_stats": r"""
            SELECT doc_id, length(text) AS n_chars,
                   len(regexp_split_to_array(text, '\s+')) AS n_tokens
            FROM documents
        """,
        "doc_splits": assign_splits_sql(seed=7),
        "doc_temperature_sample": temperature_sample_sql(
            target=300, seed=5),
        "events_hot_users": """
            WITH c AS (
              SELECT user_id, CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY user_id
            ),
            tot AS (SELECT CAST(sum(n) AS DOUBLE) AS t FROM c)
            SELECT user_id, n, n / tot.t AS share
            FROM c, tot ORDER BY n DESC, user_id LIMIT 10
        """,
        "doc_sample_stratified": sample_by_hash_sql(
            rates_by="lang", rates=_SAMPLE_RATES, default_rate=1.0, seed=11
        ),
        "doc_shuffle_order": shuffle_order_sql(seed=13),
        "cms_counters": cms_sql(),
        "bloom_words": bloom_sql(),
        "doc_topk_by_lang": """
            SELECT lang, doc_id, n_chars, rank FROM (
              SELECT lang, doc_id, n_chars,
                     ROW_NUMBER() OVER (
                       PARTITION BY lang
                       ORDER BY n_chars DESC, doc_id
                     ) AS rank
              FROM documents
            ) WHERE rank <= 3
        """,
        "doc_length_quantiles": grouped_quantiles_sql(
            (0.25, 0.5, 0.9), "documents", "source", "n_chars"
        ),
        "doc_zscore": zscore_by_group_sql(),
        "doc_sample_exact": sample_exact_per_group_sql(5, seed=21),
        "doc_priority_sample": priority_sample_sql(40, seed=7),
        "doc_bm25": bm25_topk_sql(_BM25_TERMS, k=20),
        "events_running_totals": """
            SELECT event_id, user_id,
                   CAST(row_number() OVER w AS BIGINT) AS seq,
                   SUM(value) OVER w AS cum_value
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        "events_window_topk": """
            SELECT window_start, user_id, n_events, rank FROM (
              SELECT date_trunc('hour', ts) AS window_start, user_id,
                     count(*) AS n_events,
                     row_number() OVER (
                       PARTITION BY date_trunc('hour', ts)
                       ORDER BY count(*) DESC, user_id ASC
                     ) AS rank
              FROM events GROUP BY date_trunc('hour', ts), user_id
            ) WHERE rank <= 3
        """,
        "embedding_quantize": """
            WITH u AS (
              SELECT vec_id,
                     unnest(generate_series(0, len(embedding) - 1)) AS dim,
                     unnest(embedding) AS val
              FROM embeddings
            ),
            mm AS (
              -- cast BEFORE the subtraction: the engine computes
              -- (hi - lo) in float64, so the oracle must too
              SELECT dim, CAST(min(val) AS DOUBLE) AS lo,
                     CAST(max(val) AS DOUBLE) AS hi
              FROM u GROUP BY dim
            )
            SELECT u.vec_id, CAST(u.dim AS BIGINT) AS dim,
                   CAST(CASE WHEN mm.hi = mm.lo THEN 0
                        ELSE least(255.0, greatest(0.0,
                          floor((CAST(u.val AS DOUBLE) - mm.lo)
                                / (mm.hi - mm.lo) * 255.0)))
                        END AS BIGINT) AS code
            FROM u JOIN mm USING (dim)
        """,
        "part_er_pairs": """
            WITH p AS (
              SELECT p_partkey, p_name,
                     regexp_extract(p_name, '([^ ]+)$', 1) AS blk
              FROM part
            )
            SELECT a.p_partkey AS id_a, b.p_partkey AS id_b,
                   CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS dist
            FROM p a JOIN p b
              ON a.blk = b.blk AND a.p_partkey < b.p_partkey
            WHERE levenshtein(a.p_name, b.p_name) <= 2
        """,
        "part_er_resolve": """
            WITH RECURSIVE p AS (
              SELECT p_partkey AS id, p_name,
                     regexp_extract(p_name, '([^ ]+)$', 1) AS blk
              FROM part
            ),
            e AS (
              SELECT a.id AS u, b.id AS v
              FROM p a JOIN p b
                ON a.blk = b.blk AND a.id <> b.id
              WHERE levenshtein(a.p_name, b.p_name) <= 2
            ),
            reach(u, v) AS (
              SELECT u, v FROM e
              UNION
              SELECT r.u, e.v FROM reach r JOIN e ON r.v = e.u
            ),
            mn AS (SELECT u AS id, min(v) AS m FROM reach GROUP BY u)
            SELECT p.id AS p_partkey,
                   CAST(least(p.id, coalesce(mn.m, p.id)) AS BIGINT)
                     AS canonical
            FROM p LEFT JOIN mn ON mn.id = p.id
        """,
        "doc_line_dedup": """
            WITH planted AS (
              SELECT doc_id,
                     text
                     || chr(10) || 'Shared tagline for everyone'
                     || CASE WHEN doc_id % 3 = 0
                             THEN chr(10) || 'Limited time offer inside'
                             ELSE '' END
                     || chr(10) || 'Unique footer ' || CAST(doc_id AS VARCHAR)
                     || CASE WHEN doc_id % 5 = 0
                             THEN chr(10) || 'Unique footer '
                                  || CAST(doc_id AS VARCHAR)
                             ELSE '' END
                       AS t
              FROM documents
            ),
            lx AS (
              SELECT doc_id,
                     generate_subscripts(parts, 1) - 1 AS pos,
                     trim(unnest(parts), ' ' || chr(9) || chr(13)) AS line
              FROM (SELECT doc_id, string_split(t, chr(10)) AS parts
                    FROM planted)
            ),
            marked AS (
              SELECT doc_id, pos, line,
                     ROW_NUMBER() OVER (PARTITION BY line
                                        ORDER BY doc_id, pos) AS rn
              FROM lx
            )
            SELECT doc_id,
                   CAST(count(*) AS BIGINT) AS n_lines,
                   CAST(sum(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS BIGINT)
                     AS n_dup,
                   coalesce(string_agg(CASE WHEN rn = 1 THEN line END,
                                       chr(10) ORDER BY pos), '') AS text
            FROM marked GROUP BY doc_id
        """,
        "doc_collocations": """
            WITH toks AS (
              SELECT doc_id,
                     generate_subscripts(parts, 1) AS pos,
                     unnest(parts) AS w
              FROM (SELECT doc_id,
                           string_split_regex(trim(text), '\\s+') AS parts
                    FROM documents)
            ),
            t AS (SELECT * FROM toks WHERE w <> ''),
            bg AS (
              SELECT a.w AS w1, b.w AS w2
              FROM t a JOIN t b
                ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
            ),
            big AS (
              SELECT w1, w2, count(*) AS c12
              FROM bg GROUP BY w1, w2 HAVING count(*) >= 5
            ),
            uni AS (SELECT w, count(*) AS c FROM t GROUP BY w),
            nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM t),
            bb AS (SELECT CAST(count(*) AS DOUBLE) AS b FROM bg)
            SELECT big.w1, big.w2, CAST(big.c12 AS BIGINT) AS c12,
                   log2((big.c12 / bb.b)
                        / ((u1.c / nn.n) * (u2.c / nn.n))) AS pmi
            FROM big
            JOIN uni u1 ON u1.w = big.w1
            JOIN uni u2 ON u2.w = big.w2
            CROSS JOIN nn CROSS JOIN bb
        """,
        "events_interarrival": """
            SELECT event_id, user_id,
                   CAST(coalesce(date_diff('microsecond',
                          LAG(ts) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id), ts),
                        -1) AS BIGINT) AS gap_us
            FROM events
        """,
        "basket_lift": """
            WITH d AS (
              SELECT DISTINCT l_orderkey AS b, l_partkey AS i
              FROM lineitem
            ),
            nb AS (SELECT CAST(count(DISTINCT b) AS DOUBLE) AS n FROM d),
            pc AS (
              SELECT x.i AS item_a, y.i AS item_b,
                     CAST(count(*) AS BIGINT) AS n_ab
              FROM d x JOIN d y ON x.b = y.b AND x.i < y.i
              GROUP BY x.i, y.i HAVING count(*) >= 3
            ),
            ic AS (SELECT i, CAST(count(*) AS DOUBLE) AS n FROM d GROUP BY i)
            SELECT pc.item_a, pc.item_b, pc.n_ab,
                   (CAST(pc.n_ab AS DOUBLE) * nb.n) / (ia.n * ib.n) AS lift,
                   CAST(pc.n_ab AS DOUBLE) / ia.n AS confidence
            FROM pc
            JOIN ic ia ON ia.i = pc.item_a
            JOIN ic ib ON ib.i = pc.item_b
            CROSS JOIN nb
        """,
        "kg_vertex_ids": _TRIPLES_CTE + """,
            verts AS (
              SELECT subj AS v FROM triples
              UNION SELECT obj FROM triples
            )
            SELECT v, CAST(ROW_NUMBER() OVER (ORDER BY md5(v), v) - 1
                           AS BIGINT) AS vid
            FROM verts
        """,
        "customer_nation_broadcast": """
            SELECT c.c_custkey, c.c_name,
                   c.c_nationkey AS nationkey, n.n_name
            FROM customer c JOIN nation n
              ON n.n_nationkey = c.c_nationkey
        """,
        "kg_negative_edges": _NEG_EDGES_SQL,
        "kg_training_pairs": (
            "SELECT src, dst, CAST(1 AS BIGINT) AS label FROM ("
            + _TRIPLES_CTE
            + " SELECT DISTINCT subj AS src, obj AS dst FROM triples) "
            "UNION ALL "
            "SELECT src, dst, CAST(0 AS BIGINT) AS label FROM ("
            + _NEG_EDGES_SQL + ")"
        ),
        "kg_closure": _TRIPLES_CTE.replace(
            "WITH ", "WITH RECURSIVE ", 1) + """,
            e AS (
              SELECT subj AS src, obj AS dst FROM triples
              WHERE pred IN ('placed_by', 'in_nation', 'in_region')
            ),
            reach(src, dst) AS (
              SELECT src, dst FROM e
              UNION
              SELECT r.src, e.dst FROM reach r JOIN e ON r.dst = e.src
            )
            SELECT src, dst FROM reach
        """,
        "customer_rfm": """
            WITH o AS (
              SELECT o_custkey AS custkey,
                     CAST(floor(epoch(o_orderdate) / 86400) AS BIGINT)
                       AS day,
                     CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                       AS cents
              FROM orders
            ),
            agg AS (
              SELECT custkey, max(day) AS last_day,
                     CAST(count(*) AS BIGINT) AS frequency,
                     CAST(sum(cents) AS BIGINT) AS monetary_cents
              FROM o GROUP BY custkey
            ),
            mx AS (SELECT max(last_day) AS maxd FROM agg)
            SELECT custkey, mx.maxd - agg.last_day AS recency_days,
                   frequency, monetary_cents
            FROM agg, mx
        """,
        "cohort_ltv": """
            WITH o AS (
              SELECT o_custkey AS custkey,
                     CAST(year(o_orderdate) * 100 + month(o_orderdate)
                          AS BIGINT) AS month,
                     CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                       AS cents
              FROM orders
            ),
            f AS (SELECT custkey, min(month) AS cohort FROM o
                  GROUP BY custkey)
            SELECT f.cohort, o.month,
                   CAST(sum(o.cents) AS BIGINT) AS revenue_cents
            FROM o JOIN f ON f.custkey = o.custkey
            GROUP BY f.cohort, o.month
        """,
        "revenue_concentration": """
            WITH spend AS (
              SELECT o_custkey,
                     CAST(sum(CAST(floor(o_totalprice * 100 + 0.5)
                                   AS BIGINT)) AS BIGINT) AS c
              FROM orders GROUP BY o_custkey
            ),
            cut AS (SELECT quantile_disc(c, 0.9) AS q FROM spend)
            SELECT CAST(count(*) AS BIGINT) AS n_customers,
                   CAST(cut.q AS BIGINT) AS cut_cents,
                   CAST(sum(CASE WHEN c >= cut.q THEN c ELSE 0 END)
                        AS BIGINT) AS top_cents,
                   CAST(sum(c) AS BIGINT) AS total_cents,
                   CAST(sum(CASE WHEN c >= cut.q THEN c ELSE 0 END)
                        AS DOUBLE) / CAST(sum(c) AS DOUBLE) AS top_share
            FROM spend, cut GROUP BY cut.q
        """,
        "doc_robust_stats": """
            WITH med AS (
              SELECT lang, quantile_disc(n_chars, 0.5) AS m
              FROM documents GROUP BY lang
            )
            SELECT d.lang, CAST(med.m AS BIGINT) AS median,
                   CAST(quantile_disc(abs(d.n_chars - med.m), 0.5)
                        AS BIGINT) AS mad
            FROM documents d JOIN med ON med.lang = d.lang
            GROUP BY d.lang, med.m
        """,
        "doc_prefix_dups": """
            WITH corpus AS (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + 1000000,
                     substr(text, 1,
                            CAST(floor(length(text) / 2) AS INT))
              FROM documents WHERE doc_id % 17 = 0
            )
            SELECT DISTINCT a.doc_id
            FROM corpus a JOIN corpus b
              ON a.doc_id != b.doc_id
             AND length(b.text) > length(a.text)
             AND starts_with(b.text, a.text)
        """,
        "doc_dup_spans": """
            WITH t AS (
              SELECT doc_id,
                     regexp_extract_all(lower(text), '[a-z'']+') AS toks
              FROM documents
            ),
            pos AS (
              SELECT doc_id, toks,
                     unnest(range(greatest(len(toks) - 4, 0))) AS i
              FROM t
            ),
            sh AS (
              SELECT doc_id,
                     array_to_string(toks[i + 1 : i + 5], ' ') AS span
              FROM pos
            ),
            nd AS (
              SELECT span FROM sh
              GROUP BY span HAVING count(DISTINCT doc_id) >= 2
            ),
            dup AS (
              SELECT s.doc_id, CAST(count(*) AS BIGINT) AS dup_spans
              FROM sh s JOIN nd USING (span) GROUP BY s.doc_id
            )
            SELECT t.doc_id,
                   CAST(greatest(len(t.toks) - 4, 0) AS BIGINT)
                     AS n_spans,
                   CAST(COALESCE(d.dup_spans, 0) AS BIGINT) AS dup_spans
            FROM t LEFT JOIN dup d USING (doc_id)
        """,
        "nation_members_outer": """
            WITH cc AS (
              SELECT c_nationkey AS nationkey,
                     CAST(count(*) AS BIGINT) AS n_cust
              FROM customer GROUP BY 1
            ),
            sc AS (
              SELECT s_nationkey AS nationkey,
                     CAST(count(*) AS BIGINT) AS n_supp
              FROM supplier GROUP BY 1
            )
            SELECT COALESCE(cc.nationkey, sc.nationkey) AS nationkey,
                   COALESCE(cc.n_cust, 0) AS n_cust,
                   COALESCE(sc.n_supp, 0) AS n_supp
            FROM cc FULL OUTER JOIN sc ON sc.nationkey = cc.nationkey
        """,
        "kg_hits_rounds": _TRIPLES_CTE + """
            , t AS (SELECT DISTINCT subj AS src, obj AS dst FROM triples),
            nodes AS (SELECT src AS name FROM t UNION SELECT dst FROM t),
            a1 AS (SELECT dst AS name, CAST(count(*) AS BIGINT) AS v
                   FROM t GROUP BY dst),
            h1 AS (SELECT t.src AS name, CAST(sum(a1.v) AS BIGINT) AS v
                   FROM t JOIN a1 ON a1.name = t.dst GROUP BY t.src),
            a2 AS (SELECT t.dst AS name, CAST(sum(h1.v) AS BIGINT) AS v
                   FROM t JOIN h1 ON h1.name = t.src GROUP BY t.dst),
            h2 AS (SELECT t.src AS name, CAST(sum(a2.v) AS BIGINT) AS v
                   FROM t JOIN a2 ON a2.name = t.dst GROUP BY t.src)
            SELECT nodes.name,
                   coalesce(h2.v, 0) AS hub,
                   coalesce(a2.v, 0) AS authority
            FROM nodes
            LEFT JOIN h2 ON h2.name = nodes.name
            LEFT JOIN a2 ON a2.name = nodes.name
        """,
        "kg_pagerank_rounds": _TRIPLES_CTE + """
            , t AS (SELECT DISTINCT subj AS src, obj AS dst FROM triples),
            nodes AS (SELECT src AS name FROM t UNION SELECT dst FROM t),
            nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM nodes),
            od AS (SELECT src, CAST(count(*) AS DOUBLE) AS odeg
                   FROM t GROUP BY src),
            x0 AS (SELECT name, 1.0 / (SELECT n FROM nn) AS x FROM nodes),
            d1 AS (SELECT coalesce(sum(x), 0) AS dm FROM x0
                   WHERE name NOT IN (SELECT src FROM t)),
            c1 AS (SELECT t.dst AS name, sum(x0.x / od.odeg) AS c
                   FROM t JOIN od ON od.src = t.src
                          JOIN x0 ON x0.name = t.src
                   GROUP BY t.dst),
            x1 AS (SELECT nodes.name,
                          0.85 * coalesce(c1.c, 0)
                          + (0.85 * (SELECT dm FROM d1) + 0.15)
                            / (SELECT n FROM nn) AS x
                   FROM nodes LEFT JOIN c1 ON c1.name = nodes.name),
            d2 AS (SELECT coalesce(sum(x), 0) AS dm FROM x1
                   WHERE name NOT IN (SELECT src FROM t)),
            c2 AS (SELECT t.dst AS name, sum(x1.x / od.odeg) AS c
                   FROM t JOIN od ON od.src = t.src
                          JOIN x1 ON x1.name = t.src
                   GROUP BY t.dst),
            x2 AS (SELECT nodes.name,
                          0.85 * coalesce(c2.c, 0)
                          + (0.85 * (SELECT dm FROM d2) + 0.15)
                            / (SELECT n FROM nn) AS x
                   FROM nodes LEFT JOIN c2 ON c2.name = nodes.name)
            SELECT name, x AS pagerank FROM x2
        """,
        "kg_harmonic": _TRIPLES_CTE.replace(
            "WITH ", "WITH RECURSIVE ", 1) + """,
            edges AS (SELECT obj AS a, subj AS b FROM triples),
            seeds AS (
              SELECT 'region:' || r AS s FROM generate_series(0, 4) t(r)
            ),
            bfs AS (
              SELECT s AS seed, s AS vertex, 0 AS d FROM seeds
              UNION
              SELECT bfs.seed, e.b, bfs.d + 1
              FROM bfs JOIN edges e ON e.a = bfs.vertex
              WHERE bfs.d < 3
            ),
            dist AS (
              SELECT seed, vertex, min(d) AS dist
              FROM bfs GROUP BY seed, vertex
            ),
            cnt AS (
              SELECT seed,
                     CAST(count(*) AS BIGINT) AS n_reached,
                     CAST(sum(6 // dist) AS BIGINT) AS harmonic_num
              FROM dist WHERE dist > 0 GROUP BY seed
            )
            SELECT seed, n_reached, harmonic_num,
                   CAST(6 AS BIGINT) AS harmonic_den,
                   harmonic_num / 6.0 AS harmonic
            FROM cnt
        """,
        "kg_bfs_distances": _TRIPLES_CTE.replace(
            "WITH ", "WITH RECURSIVE ", 1) + """,
            edges AS (SELECT subj AS a, obj AS b FROM triples),
            seeds AS (
              SELECT 'order:' || min(o_orderkey) AS s FROM orders
              UNION ALL SELECT 'customer:1'
              UNION ALL SELECT 'nation:3'
            ),
            bfs AS (
              SELECT s AS seed, s AS vertex, 0 AS d FROM seeds
              UNION
              SELECT bfs.seed, e.b, bfs.d + 1
              FROM bfs JOIN edges e ON e.a = bfs.vertex
              WHERE bfs.d < 4
            )
            SELECT seed, vertex, CAST(min(d) AS BIGINT) AS dist
            FROM bfs GROUP BY seed, vertex
        """,
        "orders_diff": """
            WITH a AS (
              SELECT o_orderkey,
                     CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                       AS cents
              FROM orders
            ),
            b AS (
              SELECT o_orderkey,
                     CASE WHEN o_orderkey % 7 = 0 THEN cents + 100000
                          ELSE cents END AS cents
              FROM a WHERE o_orderkey % 5 != 0
              UNION ALL
              SELECT o_orderkey + 1000000000, cents
              FROM a WHERE o_orderkey % 11 = 0
            )
            SELECT coalesce(a.o_orderkey, b.o_orderkey) AS o_orderkey,
                   CASE WHEN b.o_orderkey IS NULL THEN 'removed'
                        WHEN a.o_orderkey IS NULL THEN 'added'
                        ELSE 'changed' END AS status
            FROM a FULL OUTER JOIN b ON a.o_orderkey = b.o_orderkey
            WHERE a.o_orderkey IS NULL OR b.o_orderkey IS NULL
                  OR a.cents != b.cents
        """,
        "doc_rank_in_lang": """
            SELECT lang, doc_id, n_chars,
                   CAST(RANK() OVER (
                     PARTITION BY lang ORDER BY n_chars) AS BIGINT)
                     AS rnk,
                   PERCENT_RANK() OVER (
                     PARTITION BY lang ORDER BY n_chars) AS pct_rank
            FROM documents
        """,
        "events_pivot": """
            SELECT user_id,
                   CAST(sum(CASE WHEN event_type = 'click'
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
                   CAST(sum(CASE WHEN event_type = 'error'
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
                   CAST(sum(CASE WHEN event_type = 'purchase'
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
                   CAST(sum(CASE WHEN event_type = 'signup'
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
                   CAST(sum(CASE WHEN event_type = 'view'
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_view
            FROM events
            WHERE event_type IN
                  ('click', 'error', 'purchase', 'signup', 'view')
            GROUP BY user_id
        """,
        "table_profile": """
            SELECT 'doc_id' AS "column",
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(sum(CASE WHEN doc_id IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_null,
                   CAST(count(DISTINCT doc_id) AS BIGINT) AS n_distinct
            FROM documents
            UNION ALL
            SELECT 'lang', CAST(count(*) AS BIGINT),
                   CAST(sum(CASE WHEN lang IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT),
                   CAST(count(DISTINCT lang) AS BIGINT)
            FROM documents
            UNION ALL
            SELECT 'source', CAST(count(*) AS BIGINT),
                   CAST(sum(CASE WHEN source IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT),
                   CAST(count(DISTINCT source) AS BIGINT)
            FROM documents
            UNION ALL
            SELECT 'n_chars', CAST(count(*) AS BIGINT),
                   CAST(sum(CASE WHEN n_chars IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT),
                   CAST(count(DISTINCT n_chars) AS BIGINT)
            FROM documents
        """,
        "orders_upsert": """
            WITH b AS (
              SELECT o_orderkey,
                     CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                       AS cents,
                     CAST(0 AS BIGINT) AS version
              FROM orders
            ),
            u AS (
              SELECT o_orderkey, cents + 100000 AS cents,
                     CAST(1 AS BIGINT) AS version
              FROM b WHERE o_orderkey % 7 = 0
            ),
            merged AS (
              SELECT * FROM b UNION ALL SELECT * FROM u
            ),
            r AS (
              SELECT *, ROW_NUMBER() OVER (
                PARTITION BY o_orderkey ORDER BY version DESC) AS rn
              FROM merged
            )
            SELECT o_orderkey, cents, version FROM r WHERE rn = 1
        """,
        "kg_predicate_profile": _TRIPLES_CTE + """
            SELECT pred, split_part(subj, ':', 1) AS subj_type,
                   split_part(obj, ':', 1) AS obj_type,
                   CAST(count(*) AS BIGINT) AS n
            FROM triples GROUP BY 1, 2, 3
        """,
        "kg_functional_preds": _TRIPLES_CTE + """,
            fan AS (
              SELECT pred, subj, CAST(count(DISTINCT obj) AS BIGINT)
                       AS fan
              FROM triples GROUP BY pred, subj
            )
            SELECT pred, CAST(max(fan) AS BIGINT) AS max_fan,
                   max(fan) = 1 AS functional
            FROM fan GROUP BY pred
        """,
        "lineitem_mode": """
            WITH c AS (
              SELECT l_returnflag, CAST(l_quantity AS BIGINT) AS v,
                     count(*) AS n
              FROM lineitem GROUP BY l_returnflag, v
            ),
            r AS (
              SELECT l_returnflag, v, n,
                     row_number() OVER (PARTITION BY l_returnflag
                                        ORDER BY n DESC, v ASC) AS rn
              FROM c
            )
            SELECT l_returnflag, v AS mode, n FROM r WHERE rn = 1
        """,
        "events_concurrency": """
            WITH d AS (
              SELECT user_id, ts,
                     CASE WHEN lag(ts) OVER w IS NULL
                          OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS brk
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            ), s AS (
              SELECT user_id, ts,
                     SUM(brk) OVER (PARTITION BY user_id ORDER BY ts
                                    ROWS UNBOUNDED PRECEDING) AS sid
              FROM d
            ), sess AS (
              SELECT min(ts) AS st, max(ts) AS en
              FROM s GROUP BY user_id, sid
            ), days AS (
              SELECT st, en,
                     unnest(generate_series(
                       CAST(date_trunc('day', st) AS TIMESTAMP),
                       CAST(date_trunc('day', en) AS TIMESTAMP),
                       INTERVAL 1 DAY)) AS day
              FROM sess
            ), b AS (
              SELECT day, greatest(st, day) AS t, 1 AS delta FROM days
              UNION ALL
              SELECT day, least(en, day + INTERVAL 1 DAY) AS t, -1
              FROM days
            ), r AS (
              SELECT day, delta,
                     sum(delta) OVER (PARTITION BY day
                                      ORDER BY t, delta DESC
                                      ROWS UNBOUNDED PRECEDING) AS run
              FROM b
            )
            SELECT day,
                   CAST(count(*) FILTER (WHERE delta = 1) AS BIGINT)
                     AS n_active,
                   CAST(max(run) AS BIGINT) AS peak
            FROM r GROUP BY day
        """,
        "events_autocorr": """
            WITH d AS (
              SELECT event_type,
                     CAST(date_trunc('day', ts) AS TIMESTAMP) AS day,
                     count(*) AS n
              FROM events GROUP BY 1, 2
            ),
            lp AS (
              SELECT event_type,
                     lag(n) OVER (PARTITION BY event_type
                                  ORDER BY day) AS x,
                     n AS y
              FROM d
            ),
            base AS (SELECT event_type AS g, CAST(x AS BIGINT) AS x,
                            CAST(y AS BIGINT) AS y
                     FROM lp WHERE x IS NOT NULL),
            s AS (
              SELECT g, count(*) AS n,
                     CAST(sum(x) AS DOUBLE) AS sx,
                     CAST(sum(y) AS DOUBLE) AS sy,
                     CAST(sum(x * y) AS DOUBLE) AS sxy,
                     CAST(sum(x * x) AS DOUBLE) AS sxx,
                     CAST(sum(y * y) AS DOUBLE) AS syy
              FROM base GROUP BY g
            )
            SELECT g AS event_type, n,
                   (CAST(n AS DOUBLE) * sxy - sx * sy)
                   / sqrt((CAST(n AS DOUBLE) * sxx - sx * sx)
                          * (CAST(n AS DOUBLE) * syy - sy * sy)) AS r
            FROM s
            WHERE CAST(n AS DOUBLE) * sxx - sx * sx > 0
              AND CAST(n AS DOUBLE) * syy - sy * sy > 0
        """,
        "events_recency": """
            WITH mx AS (SELECT max(ts) AS m FROM events)
            SELECT user_id, count(*) AS n_events,
                   sum(power(2.0,
                       -(CAST(epoch_us((SELECT m FROM mx))
                              - epoch_us(ts) AS DOUBLE)
                         / (86400000000.0 * 7.0)))) AS score
            FROM events GROUP BY user_id
        """,
        "events_cusum": """
            WITH d AS (
              SELECT event_type,
                     CAST(date_trunc('day', ts) AS TIMESTAMP) AS day,
                     count(*) AS n
              FROM events GROUP BY 1, 2
            ),
            q AS (
              SELECT event_type, day, n,
                     sum(n - 70) OVER (PARTITION BY event_type
                                       ORDER BY day
                                       ROWS UNBOUNDED PRECEDING) AS qv
              FROM d
            ),
            m AS (
              SELECT *, min(qv) OVER (PARTITION BY event_type
                                      ORDER BY day
                                      ROWS UNBOUNDED PRECEDING) AS mn
              FROM q
            )
            SELECT event_type, day, CAST(n AS BIGINT) AS n,
                   CAST(qv - least(mn, 0) AS BIGINT) AS s,
                   (qv - least(mn, 0)) > 50 AS alarm
            FROM m
        """,
        "events_daily_dense": """
            WITH d AS (
              SELECT event_type,
                     CAST(date_trunc('day', ts) AS TIMESTAMP) AS day,
                     count(*) AS n
              FROM events GROUP BY 1, 2
            ),
            r AS (SELECT event_type, min(day) AS lo, max(day) AS hi
                  FROM d GROUP BY event_type),
            cal AS (
              SELECT event_type,
                     unnest(generate_series(lo, hi, INTERVAL 1 DAY))
                       AS day
              FROM r
            )
            SELECT cal.event_type, cal.day,
                   CAST(coalesce(d.n, 0) AS BIGINT) AS n,
                   d.n IS NULL AS filled
            FROM cal LEFT JOIN d ON d.event_type = cal.event_type
                                AND d.day = cal.day
        """,
        "events_wma": """
            WITH d AS (
              SELECT event_type,
                     CAST(date_trunc('day', ts) AS TIMESTAMP) AS day,
                     count(*) AS n
              FROM events GROUP BY 1, 2
            ),
            s AS (
              SELECT event_type, day, n,
                     lag(n, 1) OVER win AS l1,
                     lag(n, 2) OVER win AS l2,
                     lag(n, 3) OVER win AS l3
              FROM d
              WINDOW win AS (PARTITION BY event_type ORDER BY day)
            )
            SELECT event_type, day, CAST(n AS BIGINT) AS n,
                   CAST(8 * n + 4 * coalesce(l1, 0)
                        + 2 * coalesce(l2, 0) + coalesce(l3, 0)
                        AS DOUBLE)
                   / (8 + CASE WHEN l1 IS NULL THEN 0 ELSE 4 END
                        + CASE WHEN l2 IS NULL THEN 0 ELSE 2 END
                        + CASE WHEN l3 IS NULL THEN 0 ELSE 1 END)
                     AS wma
            FROM s
        """,
        "events_debounce": """
            WITH r AS (
              SELECT user_id, event_type, event_id, ts,
                     lag(ts) OVER (PARTITION BY user_id, event_type
                                   ORDER BY ts, event_id) AS prev
              FROM events
            )
            SELECT user_id, event_type, event_id, ts FROM r
            WHERE prev IS NULL
               OR epoch_us(ts) - epoch_us(prev) >= 1800 * 1000000
        """,
        "doc_rrf_fusion": """
            WITH a AS (
              SELECT lang, doc_id,
                     row_number() OVER (PARTITION BY lang
                                        ORDER BY n_chars ASC,
                                                 doc_id ASC) AS r
              FROM documents
            ),
            b AS (
              SELECT lang, doc_id,
                     row_number() OVER (PARTITION BY lang
                                        ORDER BY doc_id ASC) AS r
              FROM documents
            ),
            u AS (
              SELECT lang, doc_id, 1.0 / (60.0 + r) AS c
              FROM a WHERE r <= 20
              UNION ALL
              SELECT lang, doc_id, 1.0 / (60.0 + r)
              FROM b WHERE r <= 20
            ),
            s AS (SELECT lang, doc_id, sum(c) AS rrf
                  FROM u GROUP BY 1, 2)
            SELECT lang, doc_id, rrf,
                   CAST(row_number() OVER (PARTITION BY lang
                                           ORDER BY rrf DESC,
                                                    doc_id ASC)
                        AS BIGINT) AS rrf_rank
            FROM s
        """,
        "doc_ttr": """
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(lower(text), '[a-z'']+')
                       AS toks
              FROM documents
            )
            SELECT doc_id,
                   CAST(len(toks) AS BIGINT) AS n_tokens,
                   CAST(len(list_distinct(toks)) AS BIGINT) AS n_types,
                   CASE WHEN len(toks) = 0 THEN 1.0
                        ELSE CAST(len(list_distinct(toks)) AS DOUBLE)
                             / CAST(len(toks) AS DOUBLE)
                   END AS ttr
            FROM tok
        """,
        "source_token_kl": """
            WITH tok AS (
              SELECT source,
                     unnest(regexp_extract_all(lower(text), '[a-z'']+'))
                       AS t
              FROM documents
            ),
            tb AS (
              SELECT source,
                     CAST(concat('0x', substr(md5(t), 1, 15)) AS BIGINT)
                       % 256 AS bin
              FROM tok
            ),
            h AS (SELECT source, bin, count(*) AS n
                  FROM tb GROUP BY 1, 2),
            tots AS (SELECT source, sum(n) AS tot FROM h
                     GROUP BY source),
            allb AS (SELECT unnest(generate_series(0, 255)) AS bin),
            cb AS (
              SELECT allb.bin,
                     CAST(coalesce(sum(h.n), 0) AS DOUBLE) AS cn
              FROM allb LEFT JOIN h ON h.bin = allb.bin
              GROUP BY allb.bin
            ),
            grid AS (
              SELECT s.source, b.bin
              FROM (SELECT DISTINCT source FROM h) s
              CROSS JOIN allb b
            ),
            sb AS (
              SELECT grid.source, grid.bin,
                     CAST(coalesce(h.n, 0) AS DOUBLE) AS sn
              FROM grid LEFT JOIN h ON h.source = grid.source
                                   AND h.bin = grid.bin
            )
            SELECT sb.source, CAST(t.tot AS BIGINT) AS n_tokens,
                   sum(((sb.sn + 1.0)
                        / (CAST(t.tot AS DOUBLE) + 256.0))
                       * ln(((sb.sn + 1.0)
                             / (CAST(t.tot AS DOUBLE) + 256.0))
                            / ((cb.cn + 1.0)
                               / ((SELECT CAST(sum(n) AS DOUBLE)
                                   FROM h) + 256.0)))) AS kl
            FROM sb JOIN tots t ON t.source = sb.source
                    JOIN cb ON cb.bin = sb.bin
            GROUP BY sb.source, t.tot
        """,
        "source_lang_entropy": """
            WITH c AS (
              SELECT source, lang, count(*) AS nl
              FROM documents GROUP BY 1, 2
            ),
            t AS (SELECT source, sum(nl) AS n FROM c GROUP BY source)
            SELECT c.source, CAST(t.n AS BIGINT) AS n,
                   CAST(count(*) AS BIGINT) AS n_labels,
                   sum(-((CAST(c.nl AS DOUBLE) / CAST(t.n AS DOUBLE))
                         * ln(CAST(c.nl AS DOUBLE)
                              / CAST(t.n AS DOUBLE)))) AS entropy
            FROM c JOIN t ON t.source = c.source
            GROUP BY c.source, t.n
        """,
        "source_vocab_overlap": """
            WITH tok AS (
              SELECT source,
                     unnest(regexp_extract_all(lower(text), '[a-z'']+'))
                       AS token
              FROM documents
            ),
            st AS (SELECT DISTINCT source, token FROM tok),
            sz AS (SELECT source, count(*) AS n FROM st GROUP BY source),
            p AS (
              SELECT x.source AS a, y.source AS b, count(*) AS n_common
              FROM st x JOIN st y ON x.token = y.token
                                 AND x.source < y.source
              GROUP BY 1, 2
            )
            SELECT p.a, p.b, CAST(sa.n AS BIGINT) AS n_a,
                   CAST(sb.n AS BIGINT) AS n_b,
                   CAST(p.n_common AS BIGINT) AS n_common,
                   CAST(p.n_common AS DOUBLE)
                   / CAST(sa.n + sb.n - p.n_common AS DOUBLE) AS jaccard
            FROM p JOIN sz sa ON sa.source = p.a
                   JOIN sz sb ON sb.source = p.b
        """,
        "doc_readability": """
            WITH s AS (
              SELECT doc_id,
                     len(regexp_extract_all(text, '[a-zA-Z'']+'))
                       AS n_words,
                     greatest(len(regexp_extract_all(text, '[.!?]+')),
                              1) AS n_sentences,
                     len(regexp_extract_all(lower(text), '[aeiouy]+'))
                       AS n_syllables
              FROM documents
            )
            SELECT doc_id, CAST(n_words AS BIGINT) AS n_words,
                   CAST(n_sentences AS BIGINT) AS n_sentences,
                   CAST(n_syllables AS BIGINT) AS n_syllables,
                   CASE WHEN n_words = 0 THEN 0.0
                        ELSE 206.835
                             - 1.015 * (CAST(n_words AS DOUBLE)
                                        / CAST(n_sentences AS DOUBLE))
                             - 84.6 * (CAST(n_syllables AS DOUBLE)
                                       / CAST(n_words AS DOUBLE))
                   END AS flesch
            FROM s
        """,
        "doc_ctfidf": """
            WITH tok AS (
              SELECT lang,
                     unnest(regexp_extract_all(lower(text), '[a-z'']+'))
                       AS term
              FROM documents
            ),
            c AS (SELECT lang, term, count(*) AS tf
                  FROM tok GROUP BY lang, term),
            d AS (SELECT term, count(*) AS df FROM c GROUP BY term),
            s AS (
              SELECT c.lang, c.term, c.tf, d.df,
                     CAST(c.tf AS DOUBLE)
                     * ln(CAST((SELECT count(DISTINCT lang) FROM c)
                               AS DOUBLE)
                          / CAST(d.df AS DOUBLE)) AS score
              FROM c JOIN d USING (term)
            ),
            r AS (
              SELECT *, row_number() OVER (
                PARTITION BY lang ORDER BY score DESC, term ASC) AS rn
              FROM s
            )
            SELECT lang, term, CAST(tf AS BIGINT) AS tf,
                   CAST(df AS BIGINT) AS df, score
            FROM r WHERE rn <= 5
        """,
        "doc_dsir_weights": """
            WITH tok AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[a-z'']+'))
                       AS t
              FROM documents
            ),
            tb AS (
              SELECT doc_id,
                     CAST(concat('0x', substr(md5(t), 1, 15)) AS BIGINT)
                       % 256 AS bin
              FROM tok
            ),
            th AS (
              SELECT bin, count(*) AS n FROM tb
              WHERE doc_id IN (SELECT doc_id FROM documents
                               WHERE lang = 'de')
              GROUP BY bin
            ),
            rh AS (SELECT bin, count(*) AS n FROM tb GROUP BY bin),
            lam AS (
              SELECT b.bin,
                     ln((CAST(coalesce(th.n, 0) AS DOUBLE) + 1.0)
                        / ((SELECT CAST(coalesce(sum(n), 0) AS DOUBLE)
                            FROM th) + 256.0))
                   - ln((CAST(coalesce(rh.n, 0) AS DOUBLE) + 1.0)
                        / ((SELECT CAST(coalesce(sum(n), 0) AS DOUBLE)
                            FROM rh) + 256.0)) AS lam
              FROM (SELECT DISTINCT bin FROM tb) b
              LEFT JOIN th ON th.bin = b.bin
              LEFT JOIN rh ON rh.bin = b.bin
            ),
            sc AS (
              SELECT tb.doc_id, count(*) AS n_tokens,
                     sum(lam.lam) AS logw
              FROM tb JOIN lam ON lam.bin = tb.bin
              GROUP BY tb.doc_id
            )
            SELECT d.doc_id,
                   CAST(coalesce(sc.n_tokens, 0) AS BIGINT) AS n_tokens,
                   coalesce(sc.logw, 0.0) AS logw
            FROM documents d LEFT JOIN sc ON sc.doc_id = d.doc_id
        """,
        "lineitem_regression": """
            WITH base AS (
              SELECT l_returnflag AS g,
                     CAST(l_quantity AS BIGINT) AS x,
                     CAST(round(l_extendedprice * 100) AS BIGINT) AS y
              FROM lineitem
            ),
            s AS (
              SELECT g, count(*) AS n,
                     CAST(sum(x) AS DOUBLE) AS sx,
                     CAST(sum(y) AS DOUBLE) AS sy,
                     CAST(sum(x * y) AS DOUBLE) AS sxy,
                     CAST(sum(x * x) AS DOUBLE) AS sxx
              FROM base GROUP BY g
            )
            SELECT g AS l_returnflag, n,
                   (CAST(n AS DOUBLE) * sxy - sx * sy)
                     / (CAST(n AS DOUBLE) * sxx - sx * sx) AS slope,
                   (sy - ((CAST(n AS DOUBLE) * sxy - sx * sy)
                          / (CAST(n AS DOUBLE) * sxx - sx * sx)) * sx)
                     / CAST(n AS DOUBLE) AS intercept
            FROM s
            WHERE CAST(n AS DOUBLE) * sxx - sx * sx > 0
        """,
        "orders_mi": """
            WITH c AS (
              SELECT o_orderstatus AS a, o_orderpriority AS b,
                     count(*) AS nxy
              FROM orders GROUP BY 1, 2
            ),
            t AS (SELECT CAST(sum(nxy) AS DOUBLE) AS n,
                         count(*) AS n_pairs FROM c),
            ma AS (SELECT a, CAST(sum(nxy) AS DOUBLE) AS na
                   FROM c GROUP BY a),
            mb AS (SELECT b, CAST(sum(nxy) AS DOUBLE) AS nb
                   FROM c GROUP BY b)
            SELECT CAST((SELECT n FROM t) AS BIGINT) AS n,
                   CAST((SELECT n_pairs FROM t) AS BIGINT) AS n_pairs,
                   sum((CAST(nxy AS DOUBLE) / (SELECT n FROM t))
                       * ln((SELECT n FROM t) * CAST(nxy AS DOUBLE)
                            / (ma.na * mb.nb))) AS mi
            FROM c JOIN ma USING (a) JOIN mb USING (b)
        """,
        "orders_rollup": """
            WITH base AS (
              SELECT o_orderstatus AS st, o_orderpriority AS pri,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS cents
              FROM orders
            )
            SELECT st AS o_orderstatus, pri AS o_orderpriority,
                   CAST(0 AS BIGINT) AS grouping_id, count(*) AS n,
                   CAST(sum(cents) AS BIGINT) AS total
            FROM base GROUP BY st, pri
            UNION ALL
            SELECT st, 'ALL', CAST(2 AS BIGINT), count(*),
                   CAST(sum(cents) AS BIGINT)
            FROM base GROUP BY st
            UNION ALL
            SELECT 'ALL', 'ALL', CAST(3 AS BIGINT), count(*),
                   CAST(sum(cents) AS BIGINT)
            FROM base
        """,
        "kg_bgp_match": _TRIPLES_CTE + """
            SELECT t1.obj AS c, t2.obj AS n, t1.subj AS o,
                   t4.obj AS p, t5.obj AS s
            FROM triples t1
            JOIN triples t2 ON t2.subj = t1.obj
                           AND t2.pred = 'in_nation'
            JOIN triples t3 ON t3.subj = t2.obj
                           AND t3.pred = 'in_region'
                           AND t3.obj = 'region:0'
            JOIN triples t4 ON t4.subj = t1.subj
                           AND t4.pred = 'contains'
            JOIN triples t5 ON t5.subj = t4.obj
                           AND t5.pred = 'supplied_by'
            JOIN triples t6 ON t6.subj = t5.obj
                           AND t6.pred = 'in_nation'
                           AND t6.obj = t2.obj
            WHERE t1.pred = 'placed_by'
        """,
        "kg_bgp_optional": _TRIPLES_CTE + """
            SELECT t1.subj AS c, t1.obj AS n,
                   coalesce(t3.subj, '') AS o
            FROM triples t1
            JOIN triples t2 ON t2.subj = t1.obj
                           AND t2.pred = 'in_region'
                           AND t2.obj = 'region:1'
            LEFT JOIN triples t3 ON t3.pred = 'placed_by'
                                AND t3.obj = t1.subj
            WHERE t1.pred = 'in_nation'
              AND t1.subj <> 'customer:1'
        """,
        "walks_sparql_roots": """
            SELECT 'customer:' || c_custkey AS e0,
                   'in_nation' AS p1,
                   'nation:' || c_nationkey AS e1,
                   'in_region' AS p2,
                   'region:' || n_regionkey AS e2
            FROM customer JOIN nation ON c_nationkey = n_nationkey
            WHERE n_regionkey = 4
        """,
        "kg_describe": _TRIPLES_CTE + """
            , b AS (
              SELECT subj AS v FROM triples
              WHERE pred = 'in_region' AND obj = 'region:0'
            )
            SELECT DISTINCT t.subj, t.pred, t.obj FROM triples t
            WHERE t.subj IN (SELECT v FROM b)
               OR t.obj IN (SELECT v FROM b)
        """,
        "kg_bgp_path": _TRIPLES_CTE + """
            , e AS (
              SELECT DISTINCT subj, obj FROM triples
              WHERE pred IN ('in_nation', 'in_region')
            )
            SELECT subj AS c, obj AS x FROM e
            UNION
            SELECT a.subj, b.obj FROM e a JOIN e b ON a.obj = b.subj
        """,
        "kg_bgp_relational": _TRIPLES_CTE + """
            SELECT t1.obj AS n, count(*) AS n_customers,
                   CAST(sum(CAST(round(c.c_acctbal * 100) AS BIGINT))
                        AS DOUBLE)
                   / CAST(count(*) AS DOUBLE) / 100.0 AS avg_acctbal
            FROM triples t1
            JOIN triples t2 ON t2.subj = t1.obj
                           AND t2.pred = 'in_region'
                           AND t2.obj = 'region:3'
            JOIN customer c
              ON 'customer:' || c.c_custkey = t1.subj
            WHERE t1.pred = 'in_nation'
              AND t1.subj < 'supplier:'
            GROUP BY t1.obj
        """,
        "kg_bgp_construct": _TRIPLES_CTE + """
            SELECT DISTINCT t1.obj AS subj, 'buys_from' AS pred,
                   t4.obj AS obj
            FROM triples t1
            JOIN triples t2 ON t2.subj = t1.obj
                           AND t2.pred = 'in_nation'
            JOIN triples t3 ON t3.subj = t1.subj
                           AND t3.pred = 'contains'
            JOIN triples t4 ON t4.subj = t3.obj
                           AND t4.pred = 'supplied_by'
            JOIN triples t5 ON t5.subj = t4.obj
                           AND t5.pred = 'in_nation'
                           AND t5.obj = t2.obj
            WHERE t1.pred = 'placed_by'
        """,
        "kg_bgp_groupcount": _TRIPLES_CTE + """
            SELECT t2.obj AS r, t1.obj AS n, count(*) AS n_subjects
            FROM triples t1
            JOIN triples t2 ON t2.subj = t1.obj
                           AND t2.pred = 'in_region'
            WHERE t1.pred = 'in_nation'
            GROUP BY t2.obj, t1.obj
        """,
        "kg_bgp_union": _TRIPLES_CTE + """
            SELECT t1.subj AS x, t1.obj AS n
            FROM triples t1
            JOIN triples t2 ON t2.subj = t1.obj
                           AND t2.pred = 'in_region'
                           AND t2.obj = 'region:0'
            WHERE t1.pred = 'in_nation'
            UNION
            SELECT subj AS x, obj AS n FROM triples
            WHERE pred = 'in_nation' AND obj = 'nation:7'
        """,
        "kg_bgp_exists": _TRIPLES_CTE + """
            SELECT DISTINCT t1.subj AS c, t1.obj AS n
            FROM triples t1
            WHERE t1.pred = 'in_nation'
              AND t1.subj LIKE 'customer:%'
              AND EXISTS (SELECT 1 FROM triples t2
                          JOIN triples t3 ON t3.subj = t2.subj
                                         AND t3.pred = 'contains'
                                         AND t3.obj = 'part:55'
                          WHERE t2.pred = 'placed_by'
                            AND t2.obj = t1.subj)
        """,
        "kg_bgp_notexists": _TRIPLES_CTE + """
            SELECT DISTINCT t1.subj AS c, t1.obj AS n
            FROM triples t1
            WHERE t1.pred = 'in_nation'
              AND t1.subj LIKE 'customer:%'
              AND NOT EXISTS (SELECT 1 FROM triples t2
                              JOIN triples t3 ON t3.subj = t2.subj
                                             AND t3.pred = 'contains'
                                             AND t3.obj = 'part:55'
                              WHERE t2.pred = 'placed_by'
                                AND t2.obj = t1.subj)
        """,
        "kg_bgp_groupconcat": _TRIPLES_CTE + """
            SELECT obj AS r,
                   string_agg(DISTINCT subj, ' ' ORDER BY subj)
                       AS nations,
                   CAST(count(DISTINCT subj) AS BIGINT) AS n_nations
            FROM triples WHERE pred = 'in_region'
            GROUP BY obj
        """,
        "kg_sameas_canonical": _TRIPLES_CTE + """
            SELECT subj, pred, obj FROM triples
        """,
        "customer_k_anonymity": """
            SELECT c_nationkey, c_mktsegment,
                   CAST(count(*) AS BIGINT) AS n
            FROM customer
            GROUP BY c_nationkey, c_mktsegment
            HAVING count(*) < 10
        """,
        "user_purchase_auc": """
            WITH s AS (
              SELECT user_id, CAST(count(*) AS BIGINT) AS score,
                     max(CASE WHEN event_type = 'purchase'
                         THEN 1 ELSE 0 END) AS label
              FROM events GROUP BY user_id
            ),
            c AS (
              SELECT score, CAST(sum(label) AS BIGINT) AS pos,
                     CAST(sum(1 - label) AS BIGINT) AS neg
              FROM s GROUP BY score
            ),
            o AS (
              SELECT score, pos, neg,
                     CAST(coalesce(sum(neg) OVER (
                          ORDER BY score ROWS BETWEEN UNBOUNDED
                          PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
                       AS cumneg
              FROM c
            )
            SELECT CAST((SELECT sum(pos) FROM c) AS BIGINT) AS n_pos,
                   CAST((SELECT sum(neg) FROM c) AS BIGINT) AS n_neg,
                   CAST(sum(pos * (2 * cumneg + neg)) AS BIGINT)
                     AS auc_num,
                   CAST(2 * (SELECT sum(pos) FROM c)
                          * (SELECT sum(neg) FROM c) AS BIGINT)
                     AS auc_den,
                   CAST(sum(pos * (2 * cumneg + neg)) AS DOUBLE)
                     / (2 * (SELECT sum(pos) FROM c)
                          * (SELECT sum(neg) FROM c)) AS auc
            FROM o
        """,
        "doc_zipf": r"""
            WITH toks AS (
              SELECT unnest(list_filter(
                       regexp_split_to_array(text, '\s+'),
                       x -> x != '')) AS w
              FROM documents
            ),
            tf AS (
              SELECT w, CAST(count(*) AS BIGINT) AS f
              FROM toks GROUP BY w
            ),
            ff AS (
              SELECT f, CAST(count(*) AS BIGINT) AS m
              FROM tf GROUP BY f
            ),
            r AS (
              SELECT f, m,
                     CAST(coalesce(sum(m) OVER (ORDER BY f DESC
                          ROWS BETWEEN UNBOUNDED PRECEDING AND
                          1 PRECEDING), 0) AS BIGINT) AS above
              FROM ff
            ),
            pts AS (
              SELECT ln(above + (m + 1) / 2.0) AS x,
                     ln(CAST(f AS DOUBLE)) AS y,
                     CAST(m AS DOUBLE) AS wgt
              FROM r
            ),
            agg AS (
              SELECT sum(wgt) AS sw, sum(wgt * x) AS sx,
                     sum(wgt * y) AS sy, sum(wgt * x * x) AS sxx,
                     sum(wgt * x * y) AS sxy
              FROM pts
            )
            SELECT CAST((SELECT sum(m) FROM ff) AS BIGINT)
                     AS vocab_size,
                   CAST((SELECT sum(f * m) FROM ff) AS BIGINT)
                     AS total_tokens,
                   CAST((SELECT count(*) FROM ff) AS BIGINT)
                     AS n_freq_classes,
                   (sw * sxy - sx * sy) / (sw * sxx - sx * sx)
                     AS slope,
                   (sy - (sw * sxy - sx * sy) / (sw * sxx - sx * sx)
                     * sx) / sw AS intercept
            FROM agg
        """,
        "media_image_neardups": """
            WITH d2 AS (
              SELECT CAST(doc_id AS BIGINT) AS doc_id,
                     20 + (doc_id % 4) * 10 AS w,
                     16 + (doc_id % 3) * 8 AS h
              FROM documents
            ),
            px AS (
              SELECT doc_id, i.range AS i, j.range AS j,
                     (((j.range * w) // 8) * 7
                      + ((i.range * h) // 8) * 13 + doc_id) % 256 AS p
              FROM d2 CROSS JOIN range(8) i CROSS JOIN range(8) j
            ),
            mn AS (SELECT doc_id, avg(p) AS m FROM px GROUP BY doc_id),
            bits AS (
              SELECT px.doc_id, i * 8 + j AS k,
                     CASE WHEN p > m THEN 1 ELSE 0 END AS b
              FROM px JOIN mn ON mn.doc_id = px.doc_id
            ),
            hs AS (
              SELECT doc_id,
                     CAST(sum(CASE WHEN k < 32
                          THEN b * (CAST(1 AS BIGINT) << k)
                          ELSE 0 END) AS BIGINT) AS hi,
                     CAST(sum(CASE WHEN k >= 32
                          THEN b * (CAST(1 AS BIGINT) << (k - 32))
                          ELSE 0 END) AS BIGINT) AS lo
              FROM bits GROUP BY doc_id
            )
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   CAST(bit_count(xor(a.hi, b.hi))
                        + bit_count(xor(a.lo, b.lo)) AS BIGINT)
                     AS hamming
            FROM hs a JOIN hs b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.hi, b.hi))
                  + bit_count(xor(a.lo, b.lo)) <= 3
        """,
        "media_image_dups": """
            WITH ids AS (
              SELECT CAST(doc_id AS BIGINT) AS doc_id FROM documents
              UNION ALL
              SELECT doc_id + 1000000 FROM documents WHERE doc_id < 25
            ),
            d2 AS (
              SELECT doc_id, doc_id % 1000000 AS base,
                     20 + ((doc_id % 1000000) % 4) * 10 AS w,
                     16 + ((doc_id % 1000000) % 3) * 8 AS h
              FROM ids
            ),
            px AS (
              SELECT doc_id, i.range AS i, j.range AS j,
                     (((j.range * w) // 8) * 7
                      + ((i.range * h) // 8) * 13 + base) % 256 AS p
              FROM d2 CROSS JOIN range(8) i CROSS JOIN range(8) j
            ),
            mn AS (SELECT doc_id, avg(p) AS m FROM px GROUP BY doc_id),
            bits AS (
              SELECT px.doc_id, i * 8 + j AS k,
                     CASE WHEN p > m THEN 1 ELSE 0 END AS b
              FROM px JOIN mn ON mn.doc_id = px.doc_id
            ),
            hs AS (
              SELECT doc_id,
                     CAST(sum(CASE WHEN k < 32
                          THEN b * (CAST(1 AS BIGINT) << k)
                          ELSE 0 END) AS BIGINT) AS hi,
                     CAST(sum(CASE WHEN k >= 32
                          THEN b * (CAST(1 AS BIGINT) << (k - 32))
                          ELSE 0 END) AS BIGINT) AS lo
              FROM bits GROUP BY doc_id
            )
            SELECT a.doc_id AS id_a, b.doc_id AS id_b
            FROM hs a JOIN hs b
              ON a.hi = b.hi AND a.lo = b.lo AND a.doc_id < b.doc_id
        """,
        "cohort_purchase_auc": """
            WITH s AS (
              SELECT user_id % 4 AS cohort,
                     CAST(count(*) AS BIGINT) AS score,
                     max(CASE WHEN event_type = 'purchase'
                         THEN 1 ELSE 0 END) AS label
              FROM events GROUP BY user_id
            ),
            c AS (
              SELECT cohort, score,
                     CAST(sum(label) AS BIGINT) AS pos,
                     CAST(sum(1 - label) AS BIGINT) AS neg
              FROM s GROUP BY cohort, score
            ),
            o AS (
              SELECT cohort, score, pos, neg,
                     CAST(coalesce(sum(neg) OVER (PARTITION BY cohort
                          ORDER BY score ROWS BETWEEN UNBOUNDED
                          PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
                       AS cumneg
              FROM c
            )
            SELECT cohort,
                   CAST(sum(pos) AS BIGINT) AS n_pos,
                   CAST(sum(neg) AS BIGINT) AS n_neg,
                   CAST(sum(pos * (2 * cumneg + neg)) AS BIGINT)
                     AS auc_num,
                   CAST(2 * sum(pos) * sum(neg) AS BIGINT) AS auc_den,
                   CAST(sum(pos * (2 * cumneg + neg)) AS DOUBLE)
                     / (2 * sum(pos) * sum(neg)) AS auc
            FROM o GROUP BY cohort
        """,
        "user_purchase_calibration": """
            WITH s AS (
              SELECT user_id, CAST(count(*) AS BIGINT) AS score,
                     max(CASE WHEN event_type = 'purchase'
                         THEN 1 ELSE 0 END) AS label
              FROM events GROUP BY user_id
            ),
            mx AS (SELECT max(score) AS m FROM s),
            b AS (
              SELECT (score * 8) // ((SELECT m FROM mx) + 1) AS bin,
                     count(*) AS n, sum(label) AS n_pos,
                     sum(score) AS sn
              FROM s GROUP BY 1
            )
            SELECT CAST(bin AS BIGINT) AS bin,
                   bin * (((SELECT m FROM mx) + 1) / 8.0) AS lo,
                   (bin + 1) * (((SELECT m FROM mx) + 1) / 8.0) AS hi,
                   CAST(n AS BIGINT) AS n,
                   CAST(n_pos AS BIGINT) AS n_pos,
                   CAST(sn AS DOUBLE) / n AS mean_score,
                   CAST(n_pos AS DOUBLE) / n AS pos_rate
            FROM b
        """,
        "user_purchase_pr": """
            WITH s AS (
              SELECT user_id, CAST(count(*) AS BIGINT) AS score,
                     max(CASE WHEN event_type = 'purchase'
                         THEN 1 ELSE 0 END) AS label
              FROM events GROUP BY user_id
            ),
            c AS (
              SELECT score, CAST(sum(label) AS BIGINT) AS pos,
                     CAST(sum(1 - label) AS BIGINT) AS neg
              FROM s GROUP BY score
            ),
            o AS (
              SELECT score AS threshold,
                     CAST(sum(pos) OVER (ORDER BY score DESC)
                          AS BIGINT) AS tp,
                     CAST(sum(neg) OVER (ORDER BY score DESC)
                          AS BIGINT) AS fp
              FROM c
            )
            SELECT threshold, tp, fp,
                   CAST((SELECT sum(pos) FROM c) - tp AS BIGINT) AS fn,
                   CAST(tp AS DOUBLE) / (tp + fp) AS "precision",
                   CAST(tp AS DOUBLE) / (SELECT sum(pos) FROM c)
                     AS recall
            FROM o
        """,
        "kg_scc": _TRIPLES_CTE + """
            , e AS (
              SELECT subj, obj FROM triples
              WHERE pred IN ('in_nation', 'in_region')
            ),
            members AS (
              SELECT k.range AS k,
                     'customer:' || (3 * k.range + j.range) AS node
              FROM range(20) k CROSS JOIN range(3) j
            ),
            lab AS (SELECT k, min(node) AS scc FROM members GROUP BY k),
            mm AS (
              SELECT m.node, l.scc FROM members m JOIN lab l USING (k)
            ),
            nodes AS (
              SELECT subj AS node FROM e
              UNION SELECT obj FROM e
              UNION SELECT node FROM members
              UNION SELECT 'customer:' || (100 + j.range)
                    FROM range(3) j
            )
            SELECT n.node AS node, coalesce(mm.scc, n.node) AS scc
            FROM nodes n LEFT JOIN mm USING (node)
        """,
        "kg_bgp_star": _TRIPLES_CTE + """
            , ents AS (
              SELECT DISTINCT subj AS x,
                     CASE WHEN subj LIKE 'customer:%' THEN 'Customer'
                          WHEN subj LIKE 'supplier:%' THEN 'Supplier'
                          ELSE 'Order' END AS cls
              FROM triples
              WHERE subj LIKE 'customer:%' OR subj LIKE 'supplier:%'
                 OR subj LIKE 'order:%'
            ),
            sup AS (
              SELECT * FROM (VALUES
                ('Customer', 'Customer'), ('Customer', 'Agent'),
                ('Customer', 'Thing'),
                ('Supplier', 'Supplier'), ('Supplier', 'Agent'),
                ('Supplier', 'Thing'),
                ('Order', 'Order'), ('Order', 'Event')) v(cls, t)
            )
            SELECT DISTINCT e.x AS x, s.t AS t
            FROM ents e JOIN sup s USING (cls)
        """,
        "kg_type_inference": _TRIPLES_CTE + """
            , ents AS (
              SELECT DISTINCT subj AS x,
                     CASE WHEN subj LIKE 'customer:%' THEN 'Customer'
                          WHEN subj LIKE 'supplier:%' THEN 'Supplier'
                          ELSE 'Order' END AS cls
              FROM triples
              WHERE subj LIKE 'customer:%' OR subj LIKE 'supplier:%'
                 OR subj LIKE 'order:%'
            ),
            sup AS (
              SELECT * FROM (VALUES
                ('Customer', 'Agent'), ('Customer', 'Thing'),
                ('Supplier', 'Agent'), ('Supplier', 'Thing'),
                ('Agent', 'Thing'), ('Order', 'Event')) v(cls, t)
            )
            SELECT DISTINCT e.x AS x, s.t AS t
            FROM ents e JOIN sup s USING (cls)
        """,
        "fk_orphan_audit": """
            WITH oc AS (
              SELECT o_custkey AS key FROM orders
              UNION ALL
              SELECT c_custkey + 9000000 FROM customer
              WHERE c_custkey < 15
            ),
            lp AS (
              SELECT l_partkey AS key FROM lineitem
              UNION ALL
              SELECT p_partkey + 9000000 FROM part WHERE p_partkey < 25
            )
            SELECT 'orders.o_custkey' AS rel,
                   CAST((SELECT count(*) FROM oc
                         WHERE NOT EXISTS (SELECT 1 FROM customer
                                           WHERE c_custkey = oc.key))
                        AS BIGINT) AS n_orphans
            UNION ALL
            SELECT 'lineitem.l_orderkey',
                   CAST((SELECT count(*) FROM lineitem
                         WHERE NOT EXISTS (SELECT 1 FROM orders
                                 WHERE o_orderkey = l_orderkey))
                        AS BIGINT)
            UNION ALL
            SELECT 'lineitem.l_partkey',
                   CAST((SELECT count(*) FROM lp
                         WHERE NOT EXISTS (SELECT 1 FROM part
                                           WHERE p_partkey = lp.key))
                        AS BIGINT)
            UNION ALL
            SELECT 'lineitem.l_suppkey',
                   CAST((SELECT count(*) FROM lineitem
                         WHERE NOT EXISTS (SELECT 1 FROM supplier
                                 WHERE s_suppkey = l_suppkey))
                        AS BIGINT)
            UNION ALL
            SELECT 'customer.c_nationkey',
                   CAST((SELECT count(*) FROM customer
                         WHERE NOT EXISTS (SELECT 1 FROM nation
                                 WHERE n_nationkey = c_nationkey))
                        AS BIGINT)
        """,
        "kg_conflict_resolve": _TRIPLES_CTE + """
            , base AS (
              SELECT subj, obj FROM triples WHERE pred = 'in_nation'
            ),
            extra AS (
              SELECT 'customer:' || c_custkey AS subj,
                     'nation:' || c_nationkey AS obj
              FROM customer WHERE c_custkey < 30
              UNION ALL
              SELECT 'customer:' || c_custkey,
                     'nation:zzz:' || (c_custkey % 5)
              FROM customer WHERE c_custkey < 40
            ),
            votes AS (
              SELECT subj, obj, CAST(count(*) AS BIGINT) AS n
              FROM (SELECT * FROM base UNION ALL SELECT * FROM extra) u
              GROUP BY subj, obj
            ),
            ranked AS (
              SELECT subj, obj, n,
                     row_number() OVER (PARTITION BY subj
                                        ORDER BY n DESC, obj ASC) AS rn
              FROM votes
            )
            SELECT subj, obj, n AS votes FROM ranked WHERE rn = 1
        """,
        "kg_bgp_filter_str": _TRIPLES_CTE + """
            SELECT t1.subj AS o, t1.obj AS c, t2.obj AS n
            FROM triples t1
            JOIN triples t2 ON t2.subj = t1.obj
                           AND t2.pred = 'in_nation'
            WHERE t1.pred = 'placed_by'
              AND regexp_matches(t1.obj, '^customer:1[0-9]?$')
              AND starts_with(t2.obj, 'nation:1')
              AND contains(t1.subj, '7')
        """,
        "kg_bgp_groupsum": _TRIPLES_CTE + """,
            cents AS (
              SELECT 'order:' || o_orderkey AS o,
                     CAST(CAST(round(o_totalprice * 100) AS BIGINT)
                          AS VARCHAR) AS t
              FROM orders
            )
            SELECT p.obj AS c,
                   SUM(CAST(t AS DOUBLE)) AS sum_cents,
                   AVG(CAST(t AS DOUBLE)) AS avg_cents,
                   MIN(t) AS min_lex, MAX(t) AS max_lex,
                   CAST(COUNT(t) AS BIGINT) AS n_orders
            FROM triples p JOIN cents ON cents.o = p.subj
            WHERE p.pred = 'placed_by'
            GROUP BY p.obj
        """,
        "kg_bgp_countdistinct": _TRIPLES_CTE + """
            SELECT t2.obj AS r,
                   CAST(COUNT(*) AS BIGINT) AS n_members,
                   CAST(COUNT(DISTINCT t1.obj) AS BIGINT) AS n_nations
            FROM triples t1
            JOIN triples t2 ON t2.subj = t1.obj
                           AND t2.pred = 'in_region'
            WHERE t1.pred = 'in_nation'
            GROUP BY t2.obj
            HAVING COUNT(*) >= 5
        """,
        "kg_sparql_slice": _TRIPLES_CTE + """
            SELECT t1.subj AS c, t1.obj AS n
            FROM triples t1
            JOIN triples t2 ON t2.subj = t1.obj
                           AND t2.pred = 'in_region'
                           AND t2.obj = 'region:2'
            WHERE t1.pred = 'in_nation'
              AND starts_with(t1.subj, 'customer:')
            ORDER BY c LIMIT 40 OFFSET 25
        """,
        "kg_sparql_seqpath": _TRIPLES_CTE + """
            SELECT t1.subj AS c, t2.obj AS r
            FROM triples t1
            JOIN triples t2 ON t2.subj = t1.obj
                           AND t2.pred = 'in_region'
            WHERE t1.pred = 'in_nation'
              AND starts_with(t1.subj, 'customer:')
        """,
        "kg_sparql_invpath": _TRIPLES_CTE + """
            SELECT t2.obj AS r, t1.subj AS s
            FROM triples t1
            JOIN triples t2 ON t2.subj = t1.obj
                           AND t2.pred = 'in_region'
            WHERE t1.pred = 'in_nation'
              AND starts_with(t1.subj, 'supplier:')
        """,
        "kg_sparql_bind": _TRIPLES_CTE + """
            SELECT t1.subj AS c, t1.obj AS n, t1.obj AS grp,
                   'tpch' AS src
            FROM triples t1
            JOIN triples t2 ON t2.subj = t1.obj
                           AND t2.pred = 'in_region'
                           AND t2.obj = 'region:3'
            WHERE t1.pred = 'in_nation'
              AND starts_with(t1.subj, 'customer:')
        """,
        "kg_bgp_minus": _TRIPLES_CTE + """
            SELECT t1.subj AS c, t1.obj AS n
            FROM triples t1
            JOIN triples t2 ON t2.subj = t1.obj
                           AND t2.pred = 'in_region'
                           AND t2.obj = 'region:2'
            WHERE t1.pred = 'in_nation'
              AND NOT EXISTS (SELECT 1 FROM triples t3
                              WHERE t3.pred = 'placed_by'
                                AND t3.obj = t1.subj)
        """,
        "lineitem_corr": """
            WITH base AS (
              SELECT l_returnflag AS g,
                     CAST(l_quantity AS BIGINT) AS x,
                     CAST(round(l_extendedprice * 100) AS BIGINT) AS y
              FROM lineitem
            ),
            s AS (
              SELECT g, count(*) AS n,
                     CAST(sum(x) AS DOUBLE) AS sx,
                     CAST(sum(y) AS DOUBLE) AS sy,
                     CAST(sum(x * y) AS DOUBLE) AS sxy,
                     CAST(sum(x * x) AS DOUBLE) AS sxx,
                     CAST(sum(y * y) AS DOUBLE) AS syy
              FROM base GROUP BY g
            )
            SELECT g AS l_returnflag, n,
                   (CAST(n AS DOUBLE) * sxy - sx * sy)
                   / sqrt((CAST(n AS DOUBLE) * sxx - sx * sx)
                          * (CAST(n AS DOUBLE) * syy - sy * sy)) AS r
            FROM s
            WHERE CAST(n AS DOUBLE) * sxx - sx * sx > 0
              AND CAST(n AS DOUBLE) * syy - sy * sy > 0
        """,
        "kg_mis": _mis_sql(2),
        "kg_kcore": _kcore_sql(3, 3),
        "kg_link_predict": _TRIPLES_CTE + """,
            e AS (
              SELECT DISTINCT least(subj, obj) AS a,
                     greatest(subj, obj) AS b
              FROM triples WHERE subj <> obj
            ),
            adj AS (
              SELECT a AS z, b AS v FROM e
              UNION ALL SELECT b, a FROM e
            ),
            deg AS (SELECT z, count(*) AS d FROM adj GROUP BY z),
            ctr AS (
              SELECT adj.z, adj.v, deg.d
              FROM adj JOIN deg ON deg.z = adj.z
              WHERE deg.d <= 50
            ),
            sc AS (
              SELECT x.v AS u, y.v AS w,
                     CAST(count(*) AS BIGINT) AS n_common,
                     sum(1.0 / ln(x.d)) AS aa
              FROM ctr x JOIN ctr y ON x.z = y.z AND x.v < y.v
              GROUP BY x.v, y.v HAVING count(*) >= 2
            ),
            nonadj AS (
              SELECT sc.* FROM sc
              LEFT JOIN e ON sc.u = e.a AND sc.w = e.b
              WHERE e.a IS NULL
            )
            SELECT nonadj.u, nonadj.w, n_common, aa,
                   CAST(n_common AS DOUBLE)
                     / (du.d + dw.d - n_common) AS jaccard
            FROM nonadj
            JOIN deg du ON du.z = nonadj.u
            JOIN deg dw ON dw.z = nonadj.w
        """,
        "embedding_neighbor_mean": """
            WITH nn AS (SELECT count(*) AS n FROM embeddings),
            e0 AS (
              SELECT vec_id AS src, (vec_id + 1) % nn.n AS dst
              FROM embeddings, nn
              UNION
              SELECT vec_id, (vec_id + 2) % nn.n FROM embeddings, nn
              UNION
              SELECT vec_id, (vec_id * 3) % nn.n FROM embeddings, nn
              UNION
              SELECT vec_id, (vec_id * 7) % nn.n FROM embeddings, nn
            ),
            e AS (SELECT src, dst FROM e0 WHERE src <> dst),
            f AS (
              SELECT vec_id,
                     CAST(generate_subscripts(embedding, 1) - 1
                          AS BIGINT) AS dim,
                     CAST(unnest(embedding) AS DOUBLE) AS val
              FROM embeddings
            )
            SELECT e.src AS v, f.dim, avg(f.val) AS nbr_mean
            FROM e JOIN f ON f.vec_id = e.dst
            GROUP BY e.src, f.dim
        """,
        "embedding_label_centroids": """
            WITH f AS (
              SELECT label,
                     CAST(generate_subscripts(embedding, 1) - 1
                          AS BIGINT) AS dim,
                     CAST(unnest(embedding) AS DOUBLE) AS val
              FROM embeddings
            )
            SELECT label, dim, avg(val) AS val
            FROM f GROUP BY label, dim
        """,
        "embedding_centroid_sim": """
            WITH f AS (
              SELECT label,
                     CAST(generate_subscripts(embedding, 1) - 1
                          AS BIGINT) AS dim,
                     CAST(unnest(embedding) AS DOUBLE) AS val
              FROM embeddings
            ),
            c AS (
              SELECT label, dim, avg(val) AS val
              FROM f GROUP BY label, dim
            )
            SELECT a.label AS group_a, b.label AS group_b,
                   sum(a.val * b.val)
                     / (sqrt(sum(a.val * a.val))
                        * sqrt(sum(b.val * b.val))) AS cos
            FROM c a JOIN c b ON a.dim = b.dim AND a.label < b.label
            GROUP BY a.label, b.label
        """,
        "revenue_by_nation": """
            SELECT n.n_name,
                   CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l.l_discount * 100)
                                          AS BIGINT)))
                        AS BIGINT) AS revenue_c4
            FROM lineitem l
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
                           AND s.s_nationkey = c.c_nationkey
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            JOIN region r ON r.r_regionkey = n.n_regionkey
            WHERE r.r_name = 'ASIA'
              AND o.o_orderdate >= TIMESTAMP '1996-01-01'
              AND o.o_orderdate <  TIMESTAMP '1998-01-01'
            GROUP BY n.n_name
        """,
        "orders_skyline": """
            SELECT o_orderkey, o_totalprice, o_orderdate
            FROM orders o
            WHERE NOT EXISTS (
              SELECT 1 FROM orders x
              WHERE x.o_totalprice >= o.o_totalprice
                AND x.o_orderdate <= o.o_orderdate
                AND (x.o_totalprice > o.o_totalprice
                     OR x.o_orderdate < o.o_orderdate))
        """,
        "kg_pred_cooccur": _TRIPLES_CTE + """
            , sp AS (SELECT DISTINCT subj, pred FROM triples),
            tot AS (SELECT CAST(count(DISTINCT subj) AS BIGINT) AS n
                    FROM sp),
            m AS (SELECT pred, CAST(count(*) AS BIGINT) AS np
                  FROM sp GROUP BY pred),
            pr AS (SELECT x.pred AS pred_a, y.pred AS pred_b,
                          CAST(count(*) AS BIGINT) AS n_ab
                   FROM sp x JOIN sp y ON x.subj = y.subj
                                      AND x.pred < y.pred
                   GROUP BY 1, 2)
            SELECT pred_a, pred_b, n_ab, ma.np AS n_a, mb.np AS n_b,
                   CAST(n_ab AS DOUBLE) * tot.n
                     / (CAST(ma.np AS DOUBLE) * mb.np) AS lift
            FROM pr
            JOIN m ma ON pr.pred_a = ma.pred
            JOIN m mb ON pr.pred_b = mb.pred
            CROSS JOIN tot
        """,
        "doc_source_len_gini": """
            WITH h AS (SELECT source, CAST(n_chars AS BIGINT) AS x,
                              CAST(count(*) AS BIGINT) AS f
                       FROM documents GROUP BY 1, 2),
            o AS (SELECT source, x, f,
                         CAST(COALESCE(SUM(f) OVER (
                              PARTITION BY source ORDER BY x
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING), 0) AS BIGINT) AS cb
                  FROM h),
            st AS (SELECT source,
                          CAST(SUM(f) AS BIGINT) AS n,
                          CAST(SUM(x * f) AS BIGINT) AS t,
                          CAST(SUM(x * (f * cb + (f * (f + 1)) // 2))
                               AS BIGINT) AS s
                   FROM o GROUP BY source)
            SELECT source, n, t AS total,
                   2.0 * s / (CAST(n AS DOUBLE) * t) - (n + 1.0) / n
                     AS gini
            FROM st
        """,
        "events_type_gini": """
            WITH c AS (SELECT event_type, user_id,
                              CAST(count(*) AS BIGINT) AS x
                       FROM events GROUP BY 1, 2),
            h AS (SELECT event_type, x, CAST(count(*) AS BIGINT) AS f
                  FROM c GROUP BY 1, 2),
            o AS (SELECT event_type, x, f,
                         CAST(COALESCE(SUM(f) OVER (
                              PARTITION BY event_type ORDER BY x
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING), 0) AS BIGINT) AS cb
                  FROM h),
            st AS (SELECT event_type,
                          CAST(SUM(f) AS BIGINT) AS n,
                          CAST(SUM(x * f) AS BIGINT) AS t,
                          CAST(SUM(x * (f * cb + (f * (f + 1)) // 2))
                               AS BIGINT) AS s
                   FROM o GROUP BY event_type)
            SELECT event_type, n, t AS total,
                   2.0 * s / (CAST(n AS DOUBLE) * t) - (n + 1.0) / n
                     AS gini
            FROM st
        """,
        "doc_lang_source_cramer": """
            WITH cnt AS (SELECT lang AS a, source AS b,
                                CAST(count(*) AS BIGINT) AS o
                         FROM documents GROUP BY 1, 2),
            ra AS (SELECT a, CAST(sum(o) AS BIGINT) AS r
                   FROM cnt GROUP BY a),
            cb AS (SELECT b, CAST(sum(o) AS BIGINT) AS c
                   FROM cnt GROUP BY b),
            tot AS (SELECT CAST(sum(o) AS BIGINT) AS t FROM cnt),
            cells AS (SELECT COALESCE(cnt.o, 0) AS o,
                             CAST(ra.r AS DOUBLE) * cb.c / tot.t AS e
                      FROM ra CROSS JOIN cb CROSS JOIN tot
                      LEFT JOIN cnt ON cnt.a = ra.a AND cnt.b = cb.b),
            st AS (SELECT (SELECT t FROM tot) AS n,
                          SUM((o - e) * (o - e) / e) AS chi2,
                          (SELECT CAST(count(*) AS BIGINT) FROM ra)
                            AS n_a,
                          (SELECT CAST(count(*) AS BIGINT) FROM cb)
                            AS n_b
                   FROM cells)
            SELECT n, chi2, n_a, n_b,
                   sqrt(chi2 / (CAST(n AS DOUBLE)
                                * LEAST(n_a - 1, n_b - 1))) AS v
            FROM st
        """,
        "events_value_hist": """
            WITH mm AS (SELECT min(value) AS lo, max(value) AS hi
                        FROM events),
            b AS (SELECT LEAST(CAST(floor((value - mm.lo)
                                   / ((mm.hi - mm.lo) / 20))
                               AS BIGINT), 19) AS bin
                  FROM events CROSS JOIN mm),
            cnt AS (SELECT bin, CAST(count(*) AS BIGINT) AS n
                    FROM b GROUP BY bin)
            SELECT cnt.bin,
                   mm.lo + cnt.bin * ((mm.hi - mm.lo) / 20) AS lo,
                   mm.lo + (cnt.bin + 1) * ((mm.hi - mm.lo) / 20) AS hi,
                   cnt.n
            FROM cnt CROSS JOIN mm
        """,
        "orders_benford": """
            WITH u AS (SELECT CAST(round(o_totalprice * 100) AS BIGINT)
                         AS cents FROM orders),
            fd AS (SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1)
                               AS BIGINT) AS digit
                   FROM u WHERE cents > 0),
            cnt AS (SELECT digit, CAST(count(*) AS BIGINT) AS observed
                    FROM fd GROUP BY digit),
            n AS (SELECT CAST(sum(observed) AS BIGINT) AS total FROM cnt),
            grid AS (SELECT CAST(d AS BIGINT) AS digit
                     FROM generate_series(1, 9) AS t(d)),
            full_g AS (SELECT g.digit, COALESCE(c.observed, 0) AS observed
                       FROM grid g LEFT JOIN cnt c ON g.digit = c.digit)
            SELECT f.digit, f.observed,
                   CAST(n.total AS DOUBLE)
                     * log10(1 + 1.0 / f.digit) AS expected,
                   (f.observed - CAST(n.total AS DOUBLE)
                      * log10(1 + 1.0 / f.digit))
                   * (f.observed - CAST(n.total AS DOUBLE)
                      * log10(1 + 1.0 / f.digit))
                   / (CAST(n.total AS DOUBLE)
                      * log10(1 + 1.0 / f.digit)) AS term
            FROM full_g f CROSS JOIN n
        """,
        "lineitem_weighted_quantiles": """
            WITH b AS (SELECT l_returnflag AS grp,
                              CAST(round(l_extendedprice * 100)
                                   AS BIGINT) AS x,
                              CAST(round(l_quantity) AS BIGINT) AS w
                       FROM lineitem),
            h AS (SELECT grp, x, CAST(sum(w) AS BIGINT) AS f
                  FROM b GROUP BY 1, 2),
            o AS (SELECT grp, x,
                         CAST(SUM(f) OVER (PARTITION BY grp ORDER BY x)
                              AS BIGINT) AS cum,
                         CAST(SUM(f) OVER (PARTITION BY grp)
                              AS BIGINT) AS tot
                  FROM h)
            SELECT grp AS l_returnflag, CAST(0.25 AS DOUBLE) AS q,
                   min(x) AS price_cents
            FROM o WHERE cum >= 0.25 * tot GROUP BY grp
            UNION ALL
            SELECT grp, CAST(0.5 AS DOUBLE), min(x)
            FROM o WHERE cum >= 0.5 * tot GROUP BY grp
            UNION ALL
            SELECT grp, CAST(0.9 AS DOUBLE), min(x)
            FROM o WHERE cum >= 0.9 * tot GROUP BY grp
        """,
        "orders_month_chisq": """
            WITH oc AS (
              SELECT n.n_name AS grp,
                     CAST(EXTRACT(year FROM o.o_orderdate) * 100
                          + EXTRACT(month FROM o.o_orderdate)
                          AS BIGINT) AS ym
              FROM orders o
              JOIN customer c ON o.o_custkey = c.c_custkey
              JOIN nation n ON c.c_nationkey = n.n_nationkey),
            cnt AS (SELECT grp, ym, CAST(count(*) AS BIGINT) AS n
                    FROM oc GROUP BY 1, 2),
            mt AS (SELECT ym, CAST(sum(n) AS BIGINT) AS m
                   FROM cnt GROUP BY 1),
            tn AS (SELECT grp, CAST(sum(n) AS BIGINT) AS t
                   FROM cnt GROUP BY 1),
            g AS (SELECT CAST(sum(n) AS BIGINT) AS gt FROM cnt),
            cells AS (SELECT tn.grp, mt.ym, tn.t,
                             CAST(tn.t AS DOUBLE)
                               * (CAST(mt.m AS DOUBLE) / g.gt) AS e,
                             COALESCE(cnt.n, 0) AS o
                      FROM tn CROSS JOIN mt CROSS JOIN g
                      LEFT JOIN cnt ON cnt.grp = tn.grp
                                   AND cnt.ym = mt.ym)
            SELECT grp AS n_name, t AS n_orders,
                   SUM((o - e) * (o - e) / e) AS chi2
            FROM cells GROUP BY grp, t
        """,
        "events_user_gini": """
            WITH c AS (SELECT user_id, CAST(count(*) AS BIGINT) AS x
                       FROM events GROUP BY user_id),
            h AS (SELECT x, CAST(count(*) AS BIGINT) AS f
                  FROM c GROUP BY x),
            o AS (SELECT x, f,
                         CAST(COALESCE(SUM(f) OVER (ORDER BY x
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING), 0) AS BIGINT) AS cb
                  FROM h),
            st AS (SELECT CAST(SUM(f) AS BIGINT) AS n,
                          CAST(SUM(x * f) AS BIGINT) AS t,
                          CAST(SUM(x * (f * cb + (f * (f + 1)) // 2))
                               AS BIGINT) AS s
                   FROM o)
            SELECT n AS n_users, t AS total_events,
                   2.0 * s / (CAST(n AS DOUBLE) * t) - (n + 1.0) / n
                     AS gini
            FROM st
        """,
        "kg_neighbor_jaccard": _TRIPLES_CTE + """
            , e AS (SELECT DISTINCT subj AS a, obj AS b FROM triples
                    WHERE subj <> obj),
            fan AS (SELECT b FROM (SELECT b, count(*) AS fi
                                   FROM e GROUP BY b) WHERE fi <= 40),
            kept AS (SELECT e.a, e.b FROM e JOIN fan USING (b)),
            deg AS (SELECT a, CAST(count(*) AS BIGINT) AS d
                    FROM kept GROUP BY a),
            pr AS (SELECT x.a AS u, y.a AS v,
                          CAST(count(*) AS BIGINT) AS inter
                   FROM kept x JOIN kept y ON x.b = y.b AND x.a < y.a
                   GROUP BY 1, 2)
            SELECT u, v, inter, du.d AS deg_u, dv.d AS deg_v,
                   CAST(inter AS DOUBLE) / ((du.d + dv.d) - inter)
                     AS jaccard
            FROM pr
            JOIN deg du ON pr.u = du.a
            JOIN deg dv ON pr.v = dv.a
            ORDER BY jaccard DESC, u, v
            LIMIT 50
        """,
        "kg_assortativity": _TRIPLES_CTE + """
            , e0 AS (SELECT subj AS a, obj AS b FROM triples
                     WHERE subj <> obj),
            u AS (SELECT DISTINCT least(a, b) AS lo, greatest(a, b) AS hi
                  FROM e0),
            stubs AS (SELECT lo AS src, hi AS dst FROM u
                      UNION ALL SELECT hi, lo FROM u),
            deg AS (SELECT src AS v, CAST(count(*) AS BIGINT) AS d
                    FROM stubs GROUP BY src),
            xy AS (SELECT da.d AS x, db.d AS y
                   FROM stubs s
                   JOIN deg da ON da.v = s.src
                   JOIN deg db ON db.v = s.dst),
            st AS (SELECT CAST(count(*) AS BIGINT) AS n,
                          CAST(sum(x) AS BIGINT) AS sx,
                          CAST(sum(y) AS BIGINT) AS sy,
                          CAST(sum(x * y) AS BIGINT) AS sxy,
                          CAST(sum(x * x) AS BIGINT) AS sxx,
                          CAST(sum(y * y) AS BIGINT) AS syy
                   FROM xy)
            SELECT n AS n_stubs,
                   (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
                    - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
                   / (sqrt(CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
                           - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
                      * sqrt(CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
                             - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)))
                     AS assortativity
            FROM st
        """,
        "events_seq_examples": """
            WITH s AS (
              SELECT user_id, event_id, event_type,
                     COALESCE(LAG(event_type, 3) OVER w, '') AS ctx_3,
                     COALESCE(LAG(event_type, 2) OVER w, '') AS ctx_2,
                     LAG(event_type, 1) OVER w AS p1
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            )
            SELECT user_id, event_id, ctx_3, ctx_2,
                   COALESCE(p1, '') AS ctx_1, event_type AS target
            FROM s WHERE p1 IS NOT NULL
        """,
        "orders_expectations": """
            SELECT 'orderkey_unique' AS rule,
                   CAST(count(*) AS BIGINT) AS n_checked,
                   CAST(count(*) - count(DISTINCT o_orderkey) AS BIGINT)
                     AS n_violations
            FROM orders
            UNION ALL
            SELECT 'custkey_unique', CAST(count(*) AS BIGINT),
                   CAST(count(*) - count(DISTINCT o_custkey) AS BIGINT)
            FROM orders
            UNION ALL
            SELECT 'custkey_not_null', CAST(count(*) AS BIGINT),
                   CAST(sum(CASE WHEN o_custkey IS NULL
                                 THEN 1 ELSE 0 END) AS BIGINT)
            FROM orders
            UNION ALL
            SELECT 'status_known', CAST(count(*) AS BIGINT),
                   CAST(sum(CASE WHEN o_orderstatus IS NOT NULL
                                  AND o_orderstatus NOT IN ('O', 'F')
                                 THEN 1 ELSE 0 END) AS BIGINT)
            FROM orders
            UNION ALL
            SELECT 'price_range', CAST(count(*) AS BIGINT),
                   CAST(sum(CASE WHEN o_totalprice IS NOT NULL
                                  AND (o_totalprice < 0
                                       OR o_totalprice > 300000)
                                 THEN 1 ELSE 0 END) AS BIGINT)
            FROM orders
            UNION ALL
            SELECT 'priority_format', CAST(count(*) AS BIGINT),
                   CAST(sum(CASE WHEN o_orderpriority IS NOT NULL
                                  AND NOT regexp_matches(
                                        o_orderpriority, '^[1-4]-')
                                 THEN 1 ELSE 0 END) AS BIGINT)
            FROM orders
        """,
        "events_transitions": """
            WITH seq AS (
              SELECT user_id, event_type,
                     LAG(event_type) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id)
                       AS prev_type
              FROM events
            ),
            c AS (
              SELECT prev_type, event_type AS next_type,
                     CAST(count(*) AS BIGINT) AS c
              FROM seq WHERE prev_type IS NOT NULL
              GROUP BY prev_type, event_type
            ),
            t AS (SELECT prev_type, sum(c) AS tot FROM c GROUP BY prev_type)
            SELECT c.prev_type, c.next_type, c.c,
                   CAST(c.c AS DOUBLE) / t.tot AS p
            FROM c JOIN t ON t.prev_type = c.prev_type
        """,
        "order_triangles": _ORDER_TRI_CTES + """
            SELECT deg.v, CAST(deg.d AS BIGINT) AS degree,
                   CAST(coalesce(pv.n_tri, 0) AS BIGINT) AS n_tri
            FROM deg LEFT JOIN pv ON pv.v = deg.v
        """,
        "order_clustering": _ORDER_TRI_CTES + """
            SELECT deg.v, CAST(deg.d AS BIGINT) AS degree,
                   CAST(coalesce(pv.n_tri, 0) AS BIGINT) AS n_tri,
                   CASE WHEN deg.d >= 2
                        THEN (2.0 * coalesce(pv.n_tri, 0))
                             / (CAST(deg.d AS DOUBLE)
                                * (CAST(deg.d AS DOUBLE) - 1.0))
                        ELSE 0.0 END AS cc
            FROM deg LEFT JOIN pv ON pv.v = deg.v
        """,
        "embedding_pq": """
            WITH c AS (
              SELECT vec_id AS aid, embedding FROM embeddings
              WHERE vec_id < 8
            ),
            spans AS (
              SELECT * FROM (VALUES (0, 1, 16), (1, 17, 32),
                                    (2, 33, 48), (3, 49, 64))
                s(subspace, lo, hi)
            ),
            d AS (
              SELECT e.vec_id, s.subspace, c.aid,
                     list_distance(e.embedding[s.lo : s.hi],
                                   c.embedding[s.lo : s.hi]) AS dist
              FROM embeddings e CROSS JOIN spans s CROSS JOIN c
            ),
            r AS (
              SELECT vec_id, subspace, aid,
                     row_number() OVER (
                       PARTITION BY vec_id, subspace
                       ORDER BY dist ASC, aid ASC) AS rn
              FROM d
            )
            SELECT vec_id, CAST(subspace AS BIGINT) AS subspace,
                   CAST(aid AS BIGINT) AS code
            FROM r WHERE rn = 1
        """,
        "kmeans_step": """
            WITH c AS (
              SELECT vec_id AS cluster, embedding FROM embeddings
              WHERE vec_id < 8
            ),
            asg AS (
              SELECT vec_id, cluster, embedding FROM (
                SELECT e.vec_id, c.cluster, e.embedding,
                       row_number() OVER (
                         PARTITION BY e.vec_id
                         ORDER BY list_cosine_similarity(e.embedding,
                                                         c.embedding) DESC,
                                  c.cluster ASC
                       ) AS rn
                FROM embeddings e CROSS JOIN c
              ) WHERE rn = 1
            ),
            u AS (
              SELECT cluster,
                     unnest(generate_series(0, len(embedding) - 1)) AS dim,
                     unnest(embedding) AS val
              FROM asg
            )
            SELECT cluster, CAST(dim AS BIGINT) AS dim,
                   avg(val) AS val
            FROM u GROUP BY cluster, dim
        """,
        "semdedup_planted": """
            WITH e AS (
              SELECT vec_id, embedding FROM embeddings
              UNION ALL
              SELECT vec_id + 1000000, embedding FROM embeddings
              WHERE vec_id < 25
            ),
            c AS (
              SELECT vec_id AS cluster, embedding FROM embeddings
              WHERE vec_id < 8
            ),
            asg AS (
              SELECT vec_id, cluster, embedding FROM (
                SELECT e.vec_id, c.cluster, e.embedding,
                       row_number() OVER (
                         PARTITION BY e.vec_id
                         ORDER BY list_cosine_similarity(e.embedding,
                                                         c.embedding) DESC,
                                  c.cluster ASC
                       ) AS rn
                FROM e CROSS JOIN c
              ) WHERE rn = 1
            )
            SELECT a.vec_id, a.cluster,
                   CAST(NOT EXISTS (
                     SELECT 1 FROM asg b
                     WHERE b.cluster = a.cluster AND b.vec_id < a.vec_id
                       AND list_cosine_similarity(a.embedding,
                                                  b.embedding) >= 0.8
                   ) AS BIGINT) AS kept
            FROM asg a
        """,
        "embedding_clusters": """
            WITH c AS (
              SELECT vec_id AS cluster, embedding FROM embeddings
              WHERE vec_id < 8
            )
            SELECT vec_id, cluster FROM (
              SELECT e.vec_id, c.cluster,
                     row_number() OVER (
                       PARTITION BY e.vec_id
                       ORDER BY list_cosine_similarity(e.embedding,
                                                       c.embedding) DESC,
                                c.cluster ASC
                     ) AS rn
              FROM embeddings e CROSS JOIN c
            ) WHERE rn = 1
        """,
        "kg_comentions": """
            WITH m AS (
              SELECT DISTINCT doc_id, w AS ent
              FROM documents,
                   (VALUES ('customer'),('part'),('order'),('supplier'),
                           ('query'),('table')) words(w)
              WHERE contains(' ' || text || ' ', ' ' || w || ' ')
            )
            SELECT a.ent AS ent_a, b.ent AS ent_b,
                   CAST(count(*) AS BIGINT) AS n_docs
            FROM m a JOIN m b ON a.doc_id = b.doc_id AND a.ent < b.ent
            GROUP BY a.ent, b.ent
        """,
        "doc_url_domains": r"""
            WITH planted AS (
              SELECT doc_id,
                     text || ' See https://site' || CAST(doc_id % 37 AS VARCHAR)
                          || '.example.org/p/' || CAST(doc_id AS VARCHAR)
                          || ' and http://cdn.example.net/a'
                          || CAST(doc_id % 5 AS VARCHAR) AS t
              FROM documents
            ),
            urls AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(t, 'https?://([a-z0-9.-]+)', 1))
                       AS domain
              FROM planted
            )
            SELECT domain, CAST(count(*) AS BIGINT) AS n_urls,
                   CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs
            FROM urls GROUP BY domain
        """,
        "doc_boilerplate": r"""
            WITH planted AS (
              SELECT doc_id,
                     text
                     || CASE WHEN doc_id % 2 = 0
                             THEN chr(10) || 'Subscribe to our newsletter today!'
                             ELSE '' END
                     || CASE WHEN doc_id % 3 = 0
                             THEN chr(10) || 'Copyright 2026 Example Corp. All rights reserved.'
                             ELSE '' END
                     || chr(10) || 'Visit example.com for more.'
                     || chr(10) || 'Document footer ' || CAST(doc_id AS VARCHAR)
                       AS t
              FROM documents
            ),
            lines0 AS (
              SELECT doc_id, unnest(string_split(t, chr(10))) AS raw
              FROM planted
            ),
            lines AS (
              SELECT doc_id,
                     trim(raw, ' ' || chr(9) || chr(13)) AS line
              FROM lines0
            ),
            df AS (
              SELECT line, count(DISTINCT doc_id) AS df
              FROM lines GROUP BY line
            ),
            flagged AS (
              SELECT l.doc_id, l.line, (d.df >= 5) AS boiler
              FROM lines l JOIN df d USING (line)
            ),
            per_doc AS (
              SELECT doc_id,
                     count(*) AS n_lines,
                     sum(CASE WHEN boiler THEN 1 ELSE 0 END) AS n_boiler,
                     sum(CASE WHEN boiler THEN 0 ELSE len(line) END) AS kept_chars,
                     sum(CASE WHEN boiler THEN 0 ELSE 1 END) AS n_kept
              FROM flagged GROUP BY doc_id
            )
            SELECT doc_id, CAST(n_lines AS BIGINT) AS n_lines,
                   CAST(n_boiler AS BIGINT) AS n_boiler,
                   CAST(kept_chars + greatest(n_kept - 1, 0) AS BIGINT)
                     AS clean_n_chars
            FROM per_doc
        """,
        "top_spenders_by_nation": """
            WITH spend AS (
              SELECT o_custkey AS custkey,
                     CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                          AS BIGINT) AS cents
              FROM orders GROUP BY o_custkey
            ),
            j AS (
              SELECT c_nationkey, custkey, cents / 100.0 AS revenue
              FROM spend JOIN customer ON custkey = c_custkey
            )
            SELECT c_nationkey, custkey, revenue, rank FROM (
              SELECT c_nationkey, custkey, revenue,
                     ROW_NUMBER() OVER (
                       PARTITION BY c_nationkey
                       ORDER BY revenue DESC, custkey
                     ) AS rank
              FROM j
            ) WHERE rank <= 2
        """,
        "doc_budget_sample": budget_sample_sql(
            20_000, group_col="source", weight_col="n_chars", seed=41
        ),
        "corpus_report": r"""
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars,
                   CAST(sum(len(list_filter(
                        regexp_split_to_array(text, '\s+'),
                        x -> x != ''))) AS BIGINT) AS total_tokens,
                   CAST(count(DISTINCT lang) AS BIGINT) AS n_langs
            FROM documents GROUP BY source
        """,
        "tokens_distinct_by_lang": r"""
            WITH tok AS (
              SELECT lang,
                     unnest(list_filter(regexp_split_to_array(text, '\s+'),
                                        x -> x != '')) AS token
              FROM documents
            )
            SELECT lang, CAST(count(DISTINCT token) AS BIGINT)
                     AS distinct_tokens
            FROM tok GROUP BY lang
        """,
        "orders_by_month": """
            SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT)
                     AS year,
                   CAST(EXTRACT(month FROM o_orderdate) AS BIGINT)
                     AS month,
                   CAST(count(*) AS BIGINT) AS orders,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                        AS BIGINT) / 100.0 AS revenue
            FROM orders GROUP BY 1, 2
        """,
        "lineitem_pricing": """
            WITH c AS (
              SELECT l_returnflag, l_linestatus,
                     CAST(round(l_quantity) AS BIGINT) AS qty,
                     CAST(round(l_extendedprice * 100) AS BIGINT)
                       AS cents,
                     CAST(round(l_discount * 100) AS BIGINT) AS disc
              FROM lineitem
            )
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(qty) AS BIGINT) AS sum_qty,
                   CAST(sum(cents) AS BIGINT) / 100.0 AS sum_base_price,
                   CAST(sum(cents * (100 - disc)) AS BIGINT) / 10000.0
                     AS sum_disc_price,
                   CAST(sum(qty) AS BIGINT)
                     / CAST(count(*) AS DOUBLE) AS avg_qty,
                   CAST(sum(cents) AS BIGINT) / 100.0
                     / CAST(count(*) AS DOUBLE) AS avg_price,
                   CAST(sum(disc) AS BIGINT) / 100.0
                     / CAST(count(*) AS DOUBLE) AS avg_disc,
                   CAST(count(*) AS BIGINT) AS count_order
            FROM c GROUP BY l_returnflag, l_linestatus
        """,
        "events_daily_users": """
            WITH du AS (
              SELECT DISTINCT
                     CAST(floor(epoch(ts) / 86400) AS BIGINT) AS day,
                     user_id
              FROM events
            )
            SELECT day, CAST(count(*) AS BIGINT) AS users
            FROM du GROUP BY day
        """,
        "doc_normalize": r"""
            SELECT doc_id,
                   lower(trim(regexp_replace(
                     regexp_replace(text,
                       '[\x00-\x08\x0b-\x1f\x7f]', '', 'g'),
                     '\s+', ' ', 'g'))) AS text
            FROM documents
        """,
        "doc_above_median": """
            WITH cut AS (
              SELECT lang, quantile_disc(n_chars, 0.5) AS med
              FROM documents GROUP BY lang
            )
            SELECT d.doc_id, d.lang, d.n_chars
            FROM documents d JOIN cut USING (lang)
            WHERE d.n_chars >= cut.med
        """,
        "events_retention": """
            WITH up AS (
              SELECT DISTINCT user_id,
                     CAST(floor(epoch(ts) / 604800) AS BIGINT) AS period
              FROM events
            ),
            first AS (
              SELECT user_id, min(period) AS cohort FROM up
              GROUP BY user_id
            )
            SELECT f.cohort, up.period - f.cohort AS k,
                   CAST(count(*) AS BIGINT) AS users
            FROM up JOIN first f USING (user_id)
            GROUP BY f.cohort, up.period - f.cohort
        """,
        "events_funnel": """
            WITH t1 AS (
              SELECT user_id, min(ts) AS t1 FROM events
              WHERE event_type = 'view' GROUP BY user_id
            ),
            t2 AS (
              SELECT e.user_id, min(ts) AS t2
              FROM events e JOIN t1 USING (user_id)
              WHERE event_type = 'click' AND ts > t1
              GROUP BY e.user_id
            ),
            t3 AS (
              SELECT e.user_id, min(ts) AS t3
              FROM events e JOIN t2 USING (user_id)
              WHERE event_type = 'purchase' AND ts > t2
              GROUP BY e.user_id
            ),
            u AS (
              SELECT DISTINCT user_id FROM events
              WHERE event_type IN ('view', 'click', 'purchase')
            )
            SELECT u.user_id,
                   CAST(CASE WHEN t3.user_id IS NOT NULL THEN 3
                             WHEN t2.user_id IS NOT NULL THEN 2
                             WHEN t1.user_id IS NOT NULL THEN 1
                             ELSE 0 END AS BIGINT) AS stage_reached
            FROM u
            LEFT JOIN t1 USING (user_id)
            LEFT JOIN t2 USING (user_id)
            LEFT JOIN t3 USING (user_id)
        """,
        "doc_ecdf": """
            SELECT lang, doc_id, n_chars,
                   PERCENT_RANK() OVER (
                     PARTITION BY lang ORDER BY n_chars
                   ) AS pct_rank
            FROM documents
        """,
        "doc_interleave": interleave_sources_sql(_MIX_WEIGHTS, seed=29),
        "doc_quantiles_sampled": (
            "WITH _sm_in AS (SELECT lang, doc_id, n_chars FROM documents),\n"
            + splitmix64_sql("doc_id", 33)
            + """,
            ranked AS (
              SELECT lang, n_chars,
                     ROW_NUMBER() OVER (
                       PARTITION BY lang ORDER BY h >> 1, doc_id
                     ) AS rk
              FROM s3
            ),
            samp AS (SELECT lang, n_chars FROM ranked WHERE rk <= 64)
            SELECT lang, CAST(0.5 AS DOUBLE) AS q,
                   quantile_disc(n_chars, 0.5) AS n_chars
            FROM samp GROUP BY lang
            UNION ALL
            SELECT lang, CAST(0.9 AS DOUBLE) AS q,
                   quantile_disc(n_chars, 0.9) AS n_chars
            FROM samp GROUP BY lang
            """
        ),
        "orders_anti_join": """
            SELECT o_custkey AS custkey, o_orderkey
            FROM orders o
            WHERE NOT EXISTS (
              SELECT 1 FROM customer c
              WHERE c.c_custkey = o.o_custkey
                AND c.c_mktsegment = 'AUTOMOBILE'
            )
        """,
        "join_orders_customer": """
            SELECT o_custkey AS custkey, o_orderkey, o_totalprice,
                   c_name, c_nationkey
            FROM orders JOIN customer ON o_custkey = c_custkey
        """,
        "doc_bigram_lm": r"""
            WITH toks AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, '\s+'),
                                 x -> x != '') AS tk
              FROM documents
            ),
            pos AS (
              SELECT doc_id, unnest(tk) AS w,
                     unnest(range(len(tk))) AS i
              FROM toks
            ),
            big AS (
              SELECT a.doc_id, a.w AS w1, b.w AS w2
              FROM pos a JOIN pos b
                ON a.doc_id = b.doc_id AND b.i = a.i + 1
            ),
            lmbig AS (
              SELECT w1, w2, count(*) AS c2 FROM big
              WHERE doc_id % 2 = 0 GROUP BY w1, w2
            ),
            lmctx AS (
              SELECT w1, sum(c2) AS c1 FROM lmbig GROUP BY w1
            ),
            vocab AS (
              SELECT count(DISTINCT w) AS v FROM pos WHERE doc_id % 2 = 0
            ),
            scored AS (
              SELECT big.doc_id,
                     coalesce(lmbig.c2, 0) AS c2,
                     coalesce(lmctx.c1, 0) AS c1
              FROM big
              LEFT JOIN lmbig USING (w1, w2)
              LEFT JOIN lmctx USING (w1)
            )
            SELECT doc_id,
                   CAST(count(*) AS BIGINT) AS n_bigrams,
                   CAST(sum(CASE WHEN c2 = 0 THEN 1 ELSE 0 END) AS BIGINT)
                     AS oov_bigrams,
                   avg(log2((c2 + 1.0) / (c1 + (SELECT v FROM vocab))))
                     AS logprob2
            FROM scored GROUP BY doc_id
        """,
        "inverted_index": r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(list_filter(regexp_split_to_array(text, '\s+'),
                                        x -> x != '')) AS token
              FROM documents
            ),
            d AS (SELECT DISTINCT token, doc_id FROM tok)
            SELECT token, CAST(count(*) AS BIGINT) AS df,
                   array_to_string(array_agg(doc_id ORDER BY doc_id), ',')
                     AS postings
            FROM d GROUP BY token
            HAVING count(*) >= 3
        """,
        "kg_degree_distribution": _TRIPLES_CTE + """
            SELECT degree, CAST(count(*) AS BIGINT) AS n_nodes
            FROM (SELECT subj, CAST(count(*) AS BIGINT) AS degree
                  FROM triples GROUP BY subj) d
            GROUP BY degree
        """,
        "kg_pred_stats": _TRIPLES_CTE + """
            SELECT pred,
                   CAST(count(*) AS BIGINT) AS n_triples,
                   CAST(count(DISTINCT subj) AS BIGINT) AS n_subjects,
                   CAST(count(DISTINCT obj) AS BIGINT) AS n_objects,
                   CAST(count(*) AS DOUBLE)
                     / count(DISTINCT subj) AS mean_fanout
            FROM triples GROUP BY pred
        """,
        "media_audio_dups": """
            SELECT a.doc_id AS id_a, b.doc_id AS id_b
            FROM documents a JOIN documents b
              ON a.doc_id < b.doc_id
             AND a.doc_id % 35 = b.doc_id % 35
        """,
        "events_bounce_rate": """
            WITH d AS (
              SELECT user_id, ts,
                     CASE WHEN lag(ts) OVER w IS NULL
                          OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS brk
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            ), s AS (
              SELECT user_id, ts,
                     SUM(brk) OVER (PARTITION BY user_id ORDER BY ts
                                    ROWS UNBOUNDED PRECEDING) AS sid
              FROM d
            ), sess AS (
              SELECT user_id, sid,
                     datediff('day', DATE '1970-01-01',
                              CAST(min(ts) AS DATE)) AS day,
                     count(*) AS n_events
              FROM s GROUP BY user_id, sid
            )
            SELECT day,
                   CAST(count(*) AS BIGINT) AS n_sessions,
                   CAST(sum(CASE WHEN n_events = 1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_bounces,
                   CAST(sum(CASE WHEN n_events = 1 THEN 1 ELSE 0 END)
                        AS DOUBLE) / count(*) AS bounce_rate
            FROM sess GROUP BY day
        """,
        "events_stickiness": """
            WITH act AS (
              SELECT DISTINCT user_id,
                     datediff('day', DATE '1970-01-01',
                              CAST(ts AS DATE)) AS day
              FROM events
            ),
            a2 AS (SELECT user_id, day, day // 7 AS week FROM act),
            dau AS (SELECT week, CAST(count(*) AS BIGINT) AS dau_sum
                    FROM a2 GROUP BY week),
            wau AS (SELECT week,
                           CAST(count(DISTINCT user_id) AS BIGINT)
                             AS wau
                    FROM a2 GROUP BY week),
            nd AS (SELECT week,
                          CAST(count(DISTINCT day) AS BIGINT)
                            AS n_days
                   FROM a2 GROUP BY week)
            SELECT dau.week, dau_sum, n_days, wau,
                   CAST(dau_sum AS DOUBLE) / (n_days * wau)
                     AS stickiness
            FROM dau JOIN wau USING (week) JOIN nd USING (week)
        """,
        "events_churn": """
            WITH act AS (
              SELECT DISTINCT user_id,
                     datediff('day', DATE '1970-01-01',
                              CAST(ts AS DATE)) AS day
              FROM events
            ),
            mx AS (SELECT max(day) AS m FROM act)
            SELECT a.day + 1 AS day,
                   CAST(count(*) AS BIGINT) AS n_churned
            FROM act a
            WHERE a.day + 1 <= (SELECT m FROM mx)
              AND NOT EXISTS (SELECT 1 FROM act b
                              WHERE b.user_id = a.user_id
                                AND b.day = a.day + 1)
            GROUP BY a.day + 1
        """,
        "kg_conductance": _TRIPLES_CTE + """
            , peer AS (
              SELECT 'customer:' || (3 * k.range + j.range) AS u,
                     'customer:' || (3 * k.range
                                     + (j.range + 1) % 3) AS v
              FROM range(20) k CROSS JOIN range(3) j
            ),
            e0 AS (
              SELECT subj AS u, obj AS v FROM triples
              WHERE pred = 'in_nation'
              UNION ALL SELECT u, v FROM peer
            ),
            und AS (
              SELECT DISTINCT least(u, v) AS u, greatest(u, v) AS v
              FROM e0 WHERE u <> v
            ),
            lab AS (
              SELECT DISTINCT subj AS node, obj AS label FROM triples
              WHERE pred = 'in_nation'
              UNION
              SELECT DISTINCT obj, obj FROM triples
              WHERE pred = 'in_nation'
            ),
            l2 AS (
              SELECT und.u, und.v, lu.label AS lu, lv.label AS lv
              FROM und
              JOIN lab lu ON lu.node = und.u
              JOIN lab lv ON lv.node = und.v
            ),
            mm AS (SELECT CAST(count(*) AS BIGINT) AS m FROM und),
            stubs AS (
              SELECT lu AS community,
                     CASE WHEN lu = lv THEN 1 ELSE 0 END AS w,
                     CASE WHEN lu = lv THEN 0 ELSE 1 END AS c
              FROM l2
              UNION ALL
              SELECT lv, CASE WHEN lu = lv THEN 1 ELSE 0 END,
                     CASE WHEN lu = lv THEN 0 ELSE 1 END
              FROM l2
            ),
            agg AS (
              SELECT community,
                     CAST(count(*) AS BIGINT) AS volume,
                     CAST(sum(w) AS BIGINT) AS w2,
                     CAST(sum(c) AS BIGINT) AS cut
              FROM stubs GROUP BY community
            )
            SELECT community, CAST(w2 // 2 AS BIGINT) AS m_within,
                   cut, volume,
                   cut AS phi_num,
                   CAST(least(volume,
                        2 * (SELECT m FROM mm) - volume) AS BIGINT)
                     AS phi_den,
                   CASE WHEN least(volume,
                             2 * (SELECT m FROM mm) - volume) > 0
                        THEN CAST(cut AS DOUBLE)
                             / least(volume,
                                     2 * (SELECT m FROM mm) - volume)
                        ELSE NULL END AS conductance
            FROM agg
        """,
        "kg_ktruss": _TRIPLES_CTE + """
            , cl AS (
              SELECT 'customer:' || i.range AS x,
                     'customer:' || j.range AS y
              FROM range(4) i CROSS JOIN range(4) j
              WHERE i.range < j.range
            ),
            cyc AS (
              SELECT 'customer:' || (3 * k.range + j.range) AS x,
                     'customer:' || (3 * k.range
                                     + (j.range + 1) % 3) AS y
              FROM range(20) k CROSS JOIN range(3) j
            ),
            raw AS (
              SELECT subj AS x, obj AS y FROM triples
              WHERE pred = 'in_nation'
              UNION ALL SELECT x, y FROM cl
              UNION ALL SELECT x, y FROM cyc
            ),
            e1 AS (
              SELECT DISTINCT least(x, y) AS u, greatest(x, y) AS v
              FROM raw WHERE x <> y
            ),
            sym1 AS (SELECT u AS x, v AS y FROM e1
                     UNION ALL SELECT v, u FROM e1),
            sup1 AS (
              SELECT e1.u, e1.v, count(*) AS s
              FROM e1
              JOIN sym1 su ON su.x = e1.u
              JOIN sym1 sv ON sv.x = e1.v AND sv.y = su.y
              GROUP BY e1.u, e1.v
            ),
            e2 AS (SELECT u, v FROM sup1 WHERE s >= 2),
            sym2 AS (SELECT u AS x, v AS y FROM e2
                     UNION ALL SELECT v, u FROM e2),
            sup2 AS (
              SELECT e2.u, e2.v, count(*) AS s
              FROM e2
              JOIN sym2 su ON su.x = e2.u
              JOIN sym2 sv ON sv.x = e2.v AND sv.y = su.y
              GROUP BY e2.u, e2.v
            )
            SELECT u AS a, v AS b, CAST(s AS BIGINT) AS support
            FROM sup2 WHERE s >= 2
        """,
        "kg_bgp_minus_filter": _TRIPLES_CTE + """
            SELECT DISTINCT t1.subj AS c
            FROM triples t1
            WHERE t1.pred = 'in_nation' AND t1.obj = 'nation:3'
              AND NOT EXISTS (
                SELECT 1 FROM triples t2
                WHERE t2.pred = 'placed_by' AND t2.obj = t1.subj
                  AND t2.subj LIKE 'order:1%')
        """,
        "embedding_isotropy": """
            WITH dims AS (
              SELECT e.vec_id, d.range AS i,
                     CAST(e.embedding[d.range + 1] AS DOUBLE) AS x
              FROM embeddings e CROSS JOIN range(64) d
            ),
            mu AS (SELECT i, avg(x) AS m FROM dims GROUP BY i),
            stats AS (
              SELECT (SELECT CAST(count(*) AS BIGINT) FROM embeddings)
                       AS n,
                     (SELECT sum(x * x) FROM dims)
                       / (SELECT count(*) FROM embeddings)
                       AS mean_norm_sq,
                     (SELECT sum(m * m) FROM mu) AS mu_norm_sq
            )
            SELECT n, mean_norm_sq, mu_norm_sq,
                   mu_norm_sq / mean_norm_sq AS anisotropy
            FROM stats
        """,
        "doc_source_report": r"""
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(length(text)) AS BIGINT) AS total_chars,
                   CAST(sum(len(list_filter(
                        regexp_split_to_array(text, '\s+'),
                        x -> x != ''))) AS BIGINT) AS total_tokens,
                   CAST(sum(len(list_filter(
                        regexp_split_to_array(text, '\s+'),
                        x -> x != ''))) AS DOUBLE)
                     / count(*) AS mean_tokens,
                   CAST(count(*) - count(DISTINCT text) AS BIGINT)
                     AS dup_docs
            FROM documents GROUP BY source
        """,
        "events_ordered_pairs": """
            WITH spans AS (
              SELECT user_id, event_type, min(ts) AS lo, max(ts) AS hi
              FROM events GROUP BY user_id, event_type
            )
            SELECT a.event_type AS prev, b.event_type AS "next",
                   CAST(count(*) AS BIGINT) AS n_users
            FROM spans a JOIN spans b ON a.user_id = b.user_id
            WHERE a.lo < b.hi
            GROUP BY a.event_type, b.event_type
        """,
        "events_funnel_window": """
            WITH t1 AS (
              SELECT user_id, min(ts) AS t1 FROM events
              WHERE event_type = 'view' GROUP BY user_id
            ),
            t2 AS (
              SELECT e.user_id, min(ts) AS t2
              FROM events e JOIN t1 USING (user_id)
              WHERE event_type = 'click' AND ts > t1
                AND ts <= t1 + INTERVAL 48 HOUR
              GROUP BY e.user_id
            ),
            t3 AS (
              SELECT e.user_id, min(ts) AS t3
              FROM events e JOIN t2 USING (user_id)
              WHERE event_type = 'purchase' AND ts > t2
                AND ts <= t2 + INTERVAL 48 HOUR
              GROUP BY e.user_id
            ),
            u AS (
              SELECT DISTINCT user_id FROM events
              WHERE event_type IN ('view', 'click', 'purchase')
            )
            SELECT u.user_id,
                   CAST(CASE WHEN t3.user_id IS NOT NULL THEN 3
                             WHEN t2.user_id IS NOT NULL THEN 2
                             WHEN t1.user_id IS NOT NULL THEN 1
                             ELSE 0 END AS BIGINT) AS stage_reached
            FROM u
            LEFT JOIN t1 ON t1.user_id = u.user_id
            LEFT JOIN t2 ON t2.user_id = u.user_id
            LEFT JOIN t3 ON t3.user_id = u.user_id
        """,
        "doc_heaps": r"""
            WITH mx AS (SELECT max(doc_id) AS m FROM documents),
            ts AS (
              SELECT i.range AS i,
                     ((i.range + 1) * ((SELECT m FROM mx) + 1)) // 8
                       - 1 AS t
              FROM range(8) i
            ),
            toks AS (
              SELECT doc_id,
                     unnest(list_filter(
                       regexp_split_to_array(text, '\s+'),
                       x -> x != '')) AS w
              FROM documents
            ),
            fst AS (SELECT w, min(doc_id) AS fid FROM toks GROUP BY w),
            pv AS (
              SELECT ts.i,
                     (SELECT count(*) FROM fst
                      WHERE fid <= ts.t) AS v,
                     (SELECT count(*) FROM toks
                      WHERE doc_id <= ts.t) AS n
              FROM ts
            ),
            pts AS (
              SELECT ln(CAST(n AS DOUBLE)) AS x,
                     ln(CAST(v AS DOUBLE)) AS y
              FROM pv WHERE v > 0 AND n > 0
            ),
            agg AS (
              SELECT count(*) AS k, sum(x) AS sx, sum(y) AS sy,
                     sum(x * y) AS sxy, sum(x * x) AS sxx
              FROM pts
            )
            SELECT CAST(k AS BIGINT) AS n_points_used,
                   (k * sxy - sx * sy) / (k * sxx - sx * sx) AS beta,
                   (sy - (k * sxy - sx * sy) / (k * sxx - sx * sx)
                      * sx) / k AS log_k,
                   (SELECT CAST(count(*) AS BIGINT) FROM fst)
                     AS vocab_total,
                   (SELECT CAST(count(*) AS BIGINT) FROM toks)
                     AS tokens_total
            FROM agg
        """,
        "kg_modularity": _TRIPLES_CTE + """
            , peer AS (
              SELECT 'customer:' || (3 * k.range + j.range) AS u,
                     'customer:' || (3 * k.range
                                     + (j.range + 1) % 3) AS v
              FROM range(20) k CROSS JOIN range(3) j
            ),
            e0 AS (
              SELECT subj AS u, obj AS v FROM triples
              WHERE pred = 'in_nation'
              UNION ALL SELECT u, v FROM peer
            ),
            und AS (
              SELECT DISTINCT least(u, v) AS u, greatest(u, v) AS v
              FROM e0 WHERE u <> v
            ),
            lab AS (
              SELECT DISTINCT subj AS node, obj AS label FROM triples
              WHERE pred = 'in_nation'
              UNION
              SELECT DISTINCT obj, obj FROM triples
              WHERE pred = 'in_nation'
            ),
            l2 AS (
              SELECT und.u, und.v, lu.label AS lu, lv.label AS lv
              FROM und
              JOIN lab lu ON lu.node = und.u
              JOIN lab lv ON lv.node = und.v
            ),
            mm AS (SELECT CAST(count(*) AS BIGINT) AS m FROM und),
            mc AS (
              SELECT lu AS c, CAST(count(*) AS BIGINT) AS mc
              FROM l2 WHERE lu = lv GROUP BY lu
            ),
            dc AS (
              SELECT c, CAST(count(*) AS BIGINT) AS d
              FROM (SELECT lu AS c FROM l2
                    UNION ALL SELECT lv FROM l2) s
              GROUP BY c
            ),
            fold AS (
              SELECT CAST(sum(4 * (SELECT m FROM mm)
                               * coalesce(mc.mc, 0) - dc.d * dc.d)
                          AS BIGINT) AS q_num,
                     CAST(count(*) AS BIGINT) AS n_communities
              FROM dc LEFT JOIN mc USING (c)
            )
            SELECT (SELECT m FROM mm) AS m,
                   n_communities, q_num,
                   CAST(4 * (SELECT m FROM mm)
                          * (SELECT m FROM mm) AS BIGINT) AS q_den,
                   CAST(q_num AS DOUBLE)
                     / (4 * (SELECT m FROM mm)
                          * (SELECT m FROM mm)) AS modularity
            FROM fold
        """,
        "kg_bgp_values_rows": _TRIPLES_CTE + """
            , vr AS (
              SELECT * FROM (VALUES
                ('nation:7', 'region:2'), ('nation:3', 'region:3'),
                ('nation:5', 'region:1'), ('nation:5', 'region:2'))
                v(n, r)
            )
            SELECT DISTINCT t1.subj AS x, t1.obj AS n, t2.obj AS r
            FROM triples t1
            JOIN triples t2 ON t2.subj = t1.obj
                           AND t2.pred = 'in_region'
            JOIN vr ON vr.n = t1.obj AND vr.r = t2.obj
            WHERE t1.pred = 'in_nation'
        """,
        "kg_bgp_globalagg": _TRIPLES_CTE + """
            SELECT CAST(count(*) AS BIGINT) AS n_members,
                   CAST(count(DISTINCT obj) AS BIGINT) AS n_nations,
                   min(subj) AS first, max(subj) AS last
            FROM triples WHERE pred = 'in_nation'
        """,
        "events_audience_overlap": r"""
            WITH d AS (
              SELECT DISTINCT
                     datediff('day', DATE '1970-01-01',
                              CAST(ts AS DATE)) AS day,
                     CAST(user_id AS VARCHAR) AS u
              FROM events
            ),
            two AS (SELECT DISTINCT day FROM d ORDER BY day LIMIT 2),
            h AS (
              SELECT day,
                     CAST(concat('0x', substr(md5(u), 1, 16))
                          AS UBIGINT) AS hv
              FROM d WHERE day IN (SELECT day FROM two)
            ),
            rb AS (
              SELECT day, CAST(hv >> 54 AS BIGINT) AS reg,
                     hv & ((1::UBIGINT << 54) - 1) AS w
              FROM h
            ),
            r AS (
              SELECT day, reg,
                     CASE WHEN w = 0 THEN 55
                          ELSE 55 - length(bin(w)) END AS rho
              FROM rb
            ),
            daily AS (
              SELECT day, reg, CAST(max(rho) AS BIGINT) AS rho_max
              FROM r GROUP BY day, reg
            ),
            uni AS (
              SELECT CAST(-1 AS BIGINT) AS day, reg,
                     max(rho_max) AS rho_max
              FROM daily GROUP BY reg
            ),
            allr AS (SELECT * FROM daily UNION ALL SELECT * FROM uni),
            folded AS (
              SELECT day, count(*) AS present,
                     sum(power(2, -rho_max)) AS sp
              FROM allr GROUP BY day
            ),
            est AS (
              SELECT day,
                     CASE WHEN (0.7213 / (1 + 1.079 / 1024))
                               * 1024 * 1024
                               / ((1024 - present) + sp) <= 2.5 * 1024
                               AND present < 1024
                          THEN 1024 * ln(1024.0 / (1024 - present))
                          ELSE (0.7213 / (1 + 1.079 / 1024))
                               * 1024 * 1024 / ((1024 - present) + sp)
                     END AS e
              FROM folded
            )
            SELECT (SELECT min(day) FROM two) AS day_a,
                   (SELECT max(day) FROM two) AS day_b,
                   (SELECT e FROM est
                    WHERE day = (SELECT min(day) FROM two)) AS est_a,
                   (SELECT e FROM est
                    WHERE day = (SELECT max(day) FROM two)) AS est_b,
                   (SELECT e FROM est WHERE day = -1) AS est_union,
                   (SELECT e FROM est
                    WHERE day = (SELECT min(day) FROM two))
                   + (SELECT e FROM est
                      WHERE day = (SELECT max(day) FROM two))
                   - (SELECT e FROM est WHERE day = -1)
                     AS est_overlap
        """,
        "curation_pipeline": r"""
            WITH all_docs AS (
              SELECT CAST(doc_id AS BIGINT) AS doc_id, text
              FROM documents
              UNION ALL
              SELECT doc_id + 1000000, text FROM documents
              WHERE doc_id < 50
              UNION ALL
              SELECT doc_id + 2000000, 'tiny doc' FROM documents
              WHERE doc_id < 20
            ),
            gated AS (
              SELECT * FROM all_docs
              WHERE len(list_filter(
                      regexp_split_to_array(text, '\s+'),
                      x -> x != '')) >= 5
            ),
            dedup AS (
              SELECT text, CAST(min(doc_id) AS BIGINT) AS doc_id
              FROM gated GROUP BY text
            )
            SELECT doc_id, text FROM dedup
            WHERE text NOT IN (SELECT text FROM documents
                               WHERE doc_id < 10)
        """,
        "kg_weighted_distances": _TRIPLES_CTE + """
            , e AS (SELECT subj AS m, obj AS nxt,
                           CAST(length(obj) AS BIGINT) AS w
                    FROM triples),
            sd AS (SELECT 'order:' || o_orderkey AS s FROM orders
                   ORDER BY o_orderkey LIMIT 3),
            d0 AS (SELECT s AS seed, s AS vertex,
                          CAST(0 AS BIGINT) AS dist FROM sd),
            d1 AS (
              SELECT seed, vertex, CAST(min(dist) AS BIGINT) AS dist
              FROM (SELECT * FROM d0
                    UNION ALL
                    SELECT d0.seed, e.nxt, d0.dist + e.w
                    FROM d0 JOIN e ON e.m = d0.vertex) u
              GROUP BY seed, vertex
            ),
            d2 AS (
              SELECT seed, vertex, CAST(min(dist) AS BIGINT) AS dist
              FROM (SELECT * FROM d1
                    UNION ALL
                    SELECT d1.seed, e.nxt, d1.dist + e.w
                    FROM d1 JOIN e ON e.m = d1.vertex) u
              GROUP BY seed, vertex
            ),
            d3 AS (
              SELECT seed, vertex, CAST(min(dist) AS BIGINT) AS dist
              FROM (SELECT * FROM d2
                    UNION ALL
                    SELECT d2.seed, e.nxt, d2.dist + e.w
                    FROM d2 JOIN e ON e.m = d2.vertex) u
              GROUP BY seed, vertex
            )
            SELECT seed, vertex, dist FROM d3
        """,
        "embedding_procrustes": """
            SELECT vec_id,
                   CAST(embedding[64] AS DOUBLE) AS d0,
                   -CAST(embedding[63] AS DOUBLE) AS d1,
                   CAST(embedding[62] AS DOUBLE) AS d2,
                   -CAST(embedding[61] AS DOUBLE) AS d3,
                   CAST(embedding[60] AS DOUBLE) AS d4,
                   -CAST(embedding[59] AS DOUBLE) AS d5
            FROM embeddings
        """,
        "kg_betweenness": _TRIPLES_CTE + """
            , e AS (SELECT subj AS m, obj AS nxt FROM triples),
            sd AS (SELECT 'order:' || o_orderkey AS s FROM orders
                   ORDER BY o_orderkey LIMIT 3),
            l0 AS (SELECT s AS seed, s AS v,
                          CAST(1 AS BIGINT) AS sig FROM sd),
            l1 AS (
              SELECT l0.seed, e.nxt AS v,
                     CAST(sum(l0.sig) AS BIGINT) AS sig
              FROM l0 JOIN e ON e.m = l0.v
              LEFT JOIN l0 p ON p.seed = l0.seed AND p.v = e.nxt
              WHERE p.v IS NULL
              GROUP BY l0.seed, e.nxt
            ),
            v1 AS (SELECT seed, v FROM l0 UNION ALL
                   SELECT seed, v FROM l1),
            l2 AS (
              SELECT l1.seed, e.nxt AS v,
                     CAST(sum(l1.sig) AS BIGINT) AS sig
              FROM l1 JOIN e ON e.m = l1.v
              LEFT JOIN v1 p ON p.seed = l1.seed AND p.v = e.nxt
              WHERE p.v IS NULL
              GROUP BY l1.seed, e.nxt
            ),
            v2 AS (SELECT seed, v FROM v1 UNION ALL
                   SELECT seed, v FROM l2),
            l3 AS (
              SELECT l2.seed, e.nxt AS v,
                     CAST(sum(l2.sig) AS BIGINT) AS sig
              FROM l2 JOIN e ON e.m = l2.v
              LEFT JOIN v2 p ON p.seed = l2.seed AND p.v = e.nxt
              WHERE p.v IS NULL
              GROUP BY l2.seed, e.nxt
            ),
            d2 AS (
              SELECT l2.seed, l2.v,
                     l2.sig * coalesce(sum((1.0 + 0.0) / l3.sig), 0)
                       AS delta
              FROM l2
              LEFT JOIN e ON e.m = l2.v
              LEFT JOIN l3 ON l3.seed = l2.seed AND l3.v = e.nxt
              GROUP BY l2.seed, l2.v, l2.sig
            ),
            d1 AS (
              SELECT l1.seed, l1.v,
                     l1.sig * coalesce(
                       sum((1.0 + d2.delta) / l2.sig), 0) AS delta
              FROM l1
              LEFT JOIN e ON e.m = l1.v
              LEFT JOIN l2 ON l2.seed = l1.seed AND l2.v = e.nxt
              LEFT JOIN d2 ON d2.seed = l2.seed AND d2.v = l2.v
              GROUP BY l1.seed, l1.v, l1.sig
            ),
            alld AS (
              SELECT seed, v, delta FROM d1
              UNION ALL SELECT seed, v, delta FROM d2
              UNION ALL SELECT seed, v, 0.0 FROM l3
            )
            SELECT v AS vertex, sum(delta) AS betweenness
            FROM alld GROUP BY v
        """,
        "kg_bgp_optional_filter": _TRIPLES_CTE + """
            SELECT DISTINCT t1.subj AS c, coalesce(t2.subj, '') AS o
            FROM triples t1
            LEFT JOIN (
              SELECT subj, obj FROM triples
              WHERE pred = 'placed_by' AND subj LIKE 'order:1%'
            ) t2 ON t2.obj = t1.subj
            WHERE t1.pred = 'in_nation' AND t1.obj = 'nation:3'
        """,
        "customer_er_link": """
            WITH feed AS (
              SELECT c_custkey,
                     substr(c_name, 1, 9) || 'X' || substr(c_name, 11)
                       AS name
              FROM customer WHERE c_custkey < 200
              UNION ALL
              SELECT c_custkey,
                     substr(c_name, 1, 8) || 'XY' || substr(c_name, 11)
              FROM customer
              WHERE c_custkey >= 200 AND c_custkey < 300
            )
            SELECT c.c_custkey AS id_l, f.c_custkey AS id_r,
                   CAST(levenshtein(c.c_name, f.name) AS BIGINT)
                     AS dist
            FROM customer c JOIN feed f
              ON substr(c.c_name, length(c.c_name) - 3)
                 = substr(f.name, length(f.name) - 3)
            WHERE levenshtein(c.c_name, f.name) <= 1
        """,
        "events_sliding_distinct": r"""
            WITH d AS (
              SELECT DISTINCT
                     datediff('day', DATE '1970-01-01',
                              CAST(ts AS DATE)) AS day,
                     CAST(user_id AS VARCHAR) AS u
              FROM events
            ),
            h AS (
              SELECT day,
                     CAST(concat('0x', substr(md5(u), 1, 16))
                          AS UBIGINT) AS hv
              FROM d
            ),
            rb AS (
              SELECT day, CAST(hv >> 54 AS BIGINT) AS reg,
                     hv & ((1::UBIGINT << 54) - 1) AS w
              FROM h
            ),
            r AS (
              SELECT day, reg,
                     CASE WHEN w = 0 THEN 55
                          ELSE 55 - length(bin(w)) END AS rho
              FROM rb
            ),
            daily AS (
              SELECT day, reg, CAST(max(rho) AS BIGINT) AS rho_max
              FROM r GROUP BY day, reg
            ),
            win AS (
              SELECT daily.day + o.range AS day, reg, rho_max
              FROM daily CROSS JOIN range(7) o
            ),
            merged AS (
              SELECT day, reg, max(rho_max) AS rho_max FROM win
              WHERE day IN (SELECT DISTINCT day FROM daily)
              GROUP BY day, reg
            ),
            folded AS (
              SELECT day,
                     count(*) AS present,
                     sum(power(2, -rho_max)) AS sp
              FROM merged GROUP BY day
            )
            SELECT day,
                   CASE WHEN (0.7213 / (1 + 1.079 / 1024))
                             * 1024 * 1024
                             / ((1024 - present) + sp) <= 2.5 * 1024
                             AND present < 1024
                        THEN 1024 * ln(1024.0 / (1024 - present))
                        ELSE (0.7213 / (1 + 1.079 / 1024))
                             * 1024 * 1024 / ((1024 - present) + sp)
                   END AS est_distinct
            FROM folded
        """,
        "events_hll_daily": r"""
            WITH d AS (
              SELECT DISTINCT CAST(CAST(ts AS DATE) AS VARCHAR) AS day,
                              CAST(user_id AS VARCHAR) AS u
              FROM events
            ),
            h AS (
              SELECT day,
                     CAST(concat('0x', substr(md5(u), 1, 16)) AS UBIGINT)
                       AS hv
              FROM d
            ),
            rb AS (
              SELECT day, CAST(hv >> 54 AS BIGINT) AS reg,
                     hv & ((1::UBIGINT << 54) - 1) AS w
              FROM h
            ),
            r AS (
              SELECT day, reg,
                     CASE WHEN w = 0 THEN 55
                          ELSE 55 - length(bin(w)) END AS rho
              FROM rb
            )
            SELECT day, reg, CAST(max(rho) AS BIGINT) AS rho_max
            FROM r GROUP BY day, reg
        """,
        "hll_registers": r"""
            WITH tok AS (
              SELECT lang,
                     unnest(list_filter(regexp_split_to_array(text, '\s+'),
                                        x -> x != '')) AS tk
              FROM documents
            ),
            d AS (SELECT DISTINCT lang, tk FROM tok),
            h AS (
              SELECT lang,
                     CAST(concat('0x', substr(md5(tk), 1, 16)) AS UBIGINT)
                       AS hv
              FROM d
            ),
            rb AS (
              SELECT lang, CAST(hv >> 54 AS BIGINT) AS reg,
                     hv & ((1::UBIGINT << 54) - 1) AS w
              FROM h
            ),
            r AS (
              SELECT lang, reg,
                     CASE WHEN w = 0 THEN 55
                          ELSE 55 - length(bin(w)) END AS rho
              FROM rb
            )
            SELECT lang, reg, CAST(max(rho) AS BIGINT) AS rho_max
            FROM r GROUP BY lang, reg
        """,
        "doc_repetition": r"""
            WITH t AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, '\s+'),
                                 x -> x != '') AS toks
              FROM documents
            ),
            tok AS (SELECT doc_id, unnest(toks) AS tk FROM t),
            tc AS (
              SELECT doc_id, tk, count(*) AS c
              FROM tok GROUP BY doc_id, tk
            ),
            mx AS (SELECT doc_id, max(c) AS mx FROM tc GROUP BY doc_id),
            sh AS (
              SELECT doc_id,
                CASE WHEN len(toks) < 2
                  THEN [array_to_string(toks, ' ')]
                  ELSE [array_to_string(toks[i:i+1], ' ')
                        for i in generate_series(1, len(toks) - 1)]
                END AS shingles
              FROM t
            ),
            g AS (
              SELECT doc_id, len(shingles) AS total,
                     len(list_distinct(shingles)) AS dist
              FROM sh
            )
            SELECT t.doc_id, CAST(len(t.toks) AS BIGINT) AS n_words,
                   CAST(COALESCE(mx.mx, 0) AS DOUBLE)
                     / GREATEST(len(t.toks), 1) AS top_token_ratio,
                   1.0 - CAST(g.dist AS DOUBLE) / g.total
                     AS dup_2gram_ratio
            FROM t JOIN g USING (doc_id) LEFT JOIN mx USING (doc_id)
        """,
        "doc_pack_sequences": r"""
            WITH n AS (
              SELECT doc_id,
                     CAST(len(regexp_split_to_array(text, '\s+')) AS BIGINT)
                       AS n_tokens
              FROM documents
            ),
            c AS (
              SELECT doc_id, n_tokens,
                     COALESCE(SUM(n_tokens) OVER (
                       ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                     ), 0) AS cum
              FROM n
            )
            SELECT doc_id, n_tokens,
                   CAST(cum // 2048 AS BIGINT) AS seq_id,
                   CAST(cum % 2048 AS BIGINT) AS seq_offset
            FROM c
        """,
        "doc_decontaminate": r"""
            WITH corpus AS (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + 1000000, text FROM documents
              WHERE doc_id % 20 = 0
            )
            SELECT doc_id, md5(text) AS text_hash FROM corpus
            WHERE md5(text) NOT IN (
              SELECT md5(text) FROM documents WHERE doc_id % 20 = 0
            )
        """,
        "doc_decontam_ngram": r"""
            WITH corpus AS (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + 2000000,
                     array_to_string(
                       list_filter(regexp_split_to_array(text, '\s+'),
                                   x -> x != '')[1:12], ' ')
                       || ' planted-tail-' || CAST(doc_id AS VARCHAR)
              FROM documents WHERE doc_id % 20 = 0
            ),
            tk AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, '\s+'),
                                 x -> x != '') AS toks
              FROM corpus
            ),
            sh AS (
              SELECT doc_id,
                CASE WHEN len(toks) < 8
                  THEN [array_to_string(toks, ' ')]
                  ELSE [array_to_string(toks[i:i+7], ' ')
                        for i in generate_series(1, len(toks) - 7)]
                END AS shingles
              FROM tk
            ),
            bh AS (
              SELECT DISTINCT unnest(shingles) AS s FROM sh
              WHERE doc_id % 20 = 0 AND doc_id < 1000000
            ),
            hits AS (
              SELECT DISTINCT doc_id
              FROM (SELECT doc_id, unnest(shingles) AS s FROM sh) q
              WHERE s IN (SELECT s FROM bh)
            )
            SELECT doc_id FROM corpus
            WHERE doc_id NOT IN (SELECT doc_id FROM hits)
        """,
        "minhash_exact_planted": """
            SELECT doc_id AS doc_a, doc_id + 1000000 AS doc_b,
                   1.0 AS jaccard
            FROM documents WHERE doc_id % 20 = 0
        """,
        "doc_simhash": r"""
            WITH toks AS (
              SELECT doc_id,
                     unnest(list_filter(regexp_split_to_array(text, '\s+'),
                                        x -> x != '')) AS tok
              FROM documents
            ),
            th AS (
              SELECT doc_id,
                     CAST(concat('0x', substr(md5(tok), 1, 16)) AS UBIGINT) AS h
              FROM toks
            ),
            bitvotes AS (
              SELECT doc_id, b.b AS b,
                     SUM(CASE WHEN (h >> b.b) & 1 = 1 THEN 1 ELSE -1 END) AS s
              FROM th CROSS JOIN (
                SELECT unnest(generate_series(0, 63)) AS b
              ) b
              GROUP BY doc_id, b.b
            ),
            vals AS (
              SELECT doc_id,
                     SUM(CASE WHEN s > 0
                         THEN CAST(CAST(1 AS UBIGINT) << b AS HUGEINT)
                         ELSE 0 END) AS v
              FROM bitvotes GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(COALESCE(v.v, 0) - 9223372036854775808 AS BIGINT)
                     AS simhash
            FROM documents d LEFT JOIN vals v ON d.doc_id = v.doc_id
        """,
        "doc_fingerprint": r"""
            WITH t AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, '\s+'),
                                 x -> x != '') AS toks
              FROM documents
            )
            SELECT doc_id,
              CASE WHEN len(toks) < 8
                THEN CAST(concat('0x',
                       substr(md5(array_to_string(toks, ' ')), 1, 15)) AS BIGINT)
                ELSE list_min([
                  CAST(concat('0x',
                    substr(md5(array_to_string(toks[i:i+7], ' ')), 1, 15)) AS BIGINT)
                  for i in generate_series(1, len(toks) - 7)
                ])
              END AS fingerprint
            FROM t
        """,
        "doc_tokens_bpe": r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text,
                     '''(?:[sdmt]|ll|ve|re)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+'
                   )) AS BIGINT) AS n_bpe_tokens
            FROM documents
        """,
        "doc_chunks": chunk_documents_sql(chunk_tokens=128, stride=96),
        "doc_redact_pii": r"""
            WITH planted AS (
              SELECT doc_id,
                     text || CASE WHEN doc_id % 3 = 0 THEN
                       ' Contact user' || CAST(doc_id AS VARCHAR)
                       || '@mail.example.com or +1555010'
                       || CAST(doc_id % 100 AS VARCHAR) || ' now.'
                     ELSE '' END AS text
              FROM documents
            ),
            e AS (
              SELECT doc_id,
                     len(regexp_extract_all(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS n_email,
                     regexp_replace(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '[EMAIL]', 'g') AS text
              FROM planted
            )
            SELECT doc_id,
                   regexp_replace(text, '\+[0-9][0-9 ()-]{6,}[0-9]', '[PHONE]', 'g') AS text,
                   CAST(n_email
                        + len(regexp_extract_all(text, '\+[0-9][0-9 ()-]{6,}[0-9]'))
                        AS BIGINT) AS n_redactions
            FROM e
        """,
        "tokens_by_lang": r"""
            SELECT lang, CAST(sum(len(regexp_split_to_array(text, '\s+'))) AS BIGINT) AS total_tokens
            FROM documents GROUP BY lang
        """,
        "events_hourly": """
            SELECT user_id, date_trunc('hour', ts) AS window_start,
                   count(*) AS n_events
            FROM events GROUP BY user_id, date_trunc('hour', ts)
        """,
        "events_rolling": """
            WITH daily AS (
              SELECT CAST(date_trunc('day', ts) AS TIMESTAMP) AS day,
                     sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS c
              FROM events GROUP BY 1
            )
            SELECT day, c / 100.0 AS total,
                   (sum(c) OVER (ORDER BY day
                                 RANGE BETWEEN INTERVAL 6 DAY PRECEDING
                                 AND CURRENT ROW)) / 100.0 AS rolling
            FROM daily
        """,
        "events_interval_join": """
            WITH d AS (
              SELECT user_id, ts, event_id,
                     CASE WHEN lag(ts) OVER w IS NULL
                          OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS brk
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            ), s AS (
              SELECT user_id, ts, event_id,
                     SUM(brk) OVER (PARTITION BY user_id ORDER BY ts
                                    ROWS UNBOUNDED PRECEDING) AS sid
              FROM d
            ), sess AS (
              SELECT user_id, sid, min(ts) AS session_start,
                     max(ts) AS session_end
              FROM s GROUP BY user_id, sid
            )
            SELECT e.user_id, e.ts, sess.session_start, sess.session_end,
                   e.event_id
            FROM events e JOIN sess
              ON e.user_id = sess.user_id
             AND e.ts BETWEEN sess.session_start AND sess.session_end
        """,
        "events_sliding": """
            WITH e AS (
              SELECT user_id, CAST(floor(epoch(ts)) AS BIGINT) AS s, value
              FROM events
            ),
            k AS (SELECT unnest(generate_series(0, 3)) AS i)
            SELECT user_id,
                   CAST(s // 900 * 900 - i * 900 AS BIGINT) AS window_start_s,
                   count(*) AS n_events, sum(value) AS sum_value
            FROM e CROSS JOIN k
            GROUP BY user_id, s // 900 * 900 - i * 900
        """,
        "events_asof": """
            WITH l AS (
              SELECT user_id, ts, event_id, value
              FROM events WHERE event_type = 'click'
            ),
            r0 AS (
              SELECT user_id, ts, event_id, value,
                     row_number() OVER (
                       PARTITION BY user_id, ts ORDER BY event_id DESC
                     ) AS rn
              FROM events WHERE event_type = 'view'
            ),
            r AS (SELECT user_id, ts, event_id, value FROM r0 WHERE rn = 1)
            SELECT l.user_id, l.ts, l.event_id, l.value,
                   r.event_id AS view_event_id, r.value AS view_value
            FROM l ASOF JOIN r
              ON l.user_id = r.user_id AND l.ts >= r.ts
        """,
        "events_session_paths": """
            WITH lagd AS (
              SELECT user_id, ts, event_id, event_type,
                     lag(ts) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                     ) AS pts
              FROM events
            ),
            b AS (
              SELECT *, CASE WHEN pts IS NULL
                               OR ts - pts > INTERVAL 30 MINUTE
                         THEN 1 ELSE 0 END AS brk
              FROM lagd
            ),
            s AS (
              SELECT *, sum(brk) OVER (
                PARTITION BY user_id ORDER BY ts, event_id
                ROWS UNBOUNDED PRECEDING) AS sid
              FROM b
            ),
            p AS (
              SELECT user_id, sid,
                     string_agg(event_type, '->'
                                ORDER BY ts, event_id) AS path
              FROM s GROUP BY user_id, sid
            )
            SELECT path, CAST(count(*) AS BIGINT) AS n
            FROM p GROUP BY path HAVING count(*) >= 3
        """,
        "events_props_extract": """
            SELECT CAST(json_extract_string(props, '$.k') AS BIGINT)
                     AS k,
                   CAST(count(*) AS BIGINT) AS n
            FROM events GROUP BY 1
        """,
        "events_window_join": """
            WITH l AS (
              SELECT user_id, ts, event_id FROM events
              WHERE event_type = 'click'
            ),
            r AS (
              SELECT user_id, ts, event_id FROM events
              WHERE event_type = 'error'
            )
            SELECT l.user_id, l.ts, r.ts AS r_ts,
                   l.event_id, r.event_id AS r_event_id
            FROM l JOIN r ON r.user_id = l.user_id
               AND r.ts BETWEEN l.ts - INTERVAL 15 MINUTE
                            AND l.ts + INTERVAL 15 MINUTE
        """,
        "events_attribution": """
            WITH c AS (
              SELECT user_id, ts, event_id, value
              FROM events WHERE event_type = 'purchase'
            ),
            t0 AS (
              SELECT user_id, ts, event_id, event_type,
                     row_number() OVER (
                       PARTITION BY user_id, ts ORDER BY event_id DESC
                     ) AS rn
              FROM events WHERE event_type IN ('click', 'view')
            ),
            t AS (
              SELECT user_id, ts, event_id, event_type FROM t0
              WHERE rn = 1
            )
            SELECT c.user_id, c.ts, c.event_id, c.value,
                   b.event_id AS touch_event_id,
                   b.event_type AS channel
            FROM c, LATERAL (
              SELECT t.event_id, t.event_type FROM t
              WHERE t.user_id = c.user_id AND t.ts <= c.ts
                AND t.ts >= c.ts - INTERVAL 6 HOUR
              ORDER BY t.ts DESC LIMIT 1
            ) b
        """,
        "doc_lang_id": _LANG_ID_SQL,
        "lang_confusion": (
            "SELECT d.lang, p.lang_pred, CAST(count(*) AS BIGINT) AS n "
            "FROM documents d JOIN (" + _LANG_ID_SQL + ") p "
            "ON p.doc_id = d.doc_id GROUP BY d.lang, p.lang_pred"
        ),
        "doc_quality": """
            WITH w AS (
              SELECT doc_id, text,
                     regexp_extract_all(lower(text), '[a-z'']+') AS words
              FROM documents
            )
            SELECT doc_id,
              CAST(len(words) AS BIGINT) AS n_words,
              len(list_filter(words, t -> t IN
                  ('the','and','of','to','a','in','is','it','that','was')))
                / CAST(GREATEST(len(words), 1) AS DOUBLE) AS stopword_ratio,
              CASE WHEN len(words) = 0 THEN 0.0
                   ELSE list_avg(list_transform(words, t -> CAST(len(t) AS DOUBLE)))
              END AS mean_word_len,
              CAST(length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS DOUBLE)
                / GREATEST(length(text), 1) AS alpha_ratio
            FROM w
        """,
        "walks_dfs_exhausted": """
            WITH c100 AS (
              SELECT c_custkey, c_nationkey FROM customer
              WHERE c_custkey IN (
                SELECT c_custkey FROM customer ORDER BY c_custkey LIMIT 100
              )
            )
            SELECT 'customer:' || c_custkey AS entity,
                   'customer:' || c_custkey || ' in_nation nation:' || c_nationkey AS walk
            FROM c100
            UNION ALL
            SELECT 'customer:' || c_custkey, 'customer:' || c_custkey
            FROM c100
        """,
        "doc_containment": """
            WITH p AS (
              SELECT CAST(i AS BIGINT) AS doc_a,
                     CAST(i + 100000 AS BIGINT) AS doc_b
              FROM range(25) t(i)
              UNION ALL
              SELECT CAST(i + 100000 AS BIGINT), CAST(i AS BIGINT)
              FROM range(25) t(i)
            ),
            alldocs AS (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + 100000,
                     array_to_string(
                       string_split(text, ' ')[1:greatest(1, len(string_split(text, ' ')) - 10)],
                       ' ')
              FROM documents
            ),
            sh AS (
              SELECT doc_id,
                CASE WHEN len(string_split(text, ' ')) >= 5 THEN
                  list_distinct([array_to_string(string_split(text, ' ')[i:i+4], ' ')
                                 for i in generate_series(1, len(string_split(text, ' ')) - 4)])
                ELSE [text] END AS s
              FROM alldocs
            )
            SELECT p.doc_a, p.doc_b,
              CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
                / greatest(1, len(a.s)) AS containment
            FROM p JOIN sh a ON a.doc_id = p.doc_a
                   JOIN sh b ON b.doc_id = p.doc_b
        """,
        "ngram_jaccard": """
            WITH p AS (
              SELECT CAST(i AS BIGINT) AS doc_a,
                     CAST(i + 100000 AS BIGINT) AS doc_b
              FROM range(25) t(i)
            ),
            alldocs AS (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + 100000,
                     array_to_string(
                       string_split(text, ' ')[1:greatest(1, len(string_split(text, ' ')) - 10)],
                       ' ')
              FROM documents
            ),
            sh AS (
              SELECT doc_id,
                CASE WHEN len(string_split(text, ' ')) >= 5 THEN
                  list_distinct([array_to_string(string_split(text, ' ')[i:i+4], ' ')
                                 for i in generate_series(1, len(string_split(text, ' ')) - 4)])
                ELSE [text] END AS s
              FROM alldocs
            )
            SELECT p.doc_a, p.doc_b,
              CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
                / greatest(1, len(list_distinct(list_concat(a.s, b.s)))) AS jaccard
            FROM p JOIN sh a ON a.doc_id = p.doc_a
                   JOIN sh b ON b.doc_id = p.doc_b
        """,
        "media_features_milli": """
            WITH kinds AS (
              SELECT 'image' AS kind, 2 AS m
              UNION ALL SELECT 'audio', 3
              UNION ALL SELECT 'video', 5
            ),
            refs AS (
              SELECT concat('doc_', i) AS doc_id, kind,
                     concat('media://', kind, '/', i) AS media_ref
              FROM range(40) t(i) JOIN kinds ON i % kinds.m = 0
            ),
            hx AS (
              SELECT doc_id, kind, media_ref, sha256(media_ref) AS h
              FROM refs
            ),
            pos AS (
              SELECT doc_id, kind, media_ref, h, k, 8 * (k % 8) AS p
              FROM hx CROSS JOIN range(16) t2(k)
            )
            SELECT doc_id, media_ref, kind, CAST(k AS BIGINT) AS k,
              ((strpos('0123456789abcdef', substr(h, p+1, 1))-1)*16
               + (strpos('0123456789abcdef', substr(h, p+2, 1))-1)
               + ((strpos('0123456789abcdef', substr(h, p+3, 1))-1)*16
                  + (strpos('0123456789abcdef', substr(h, p+4, 1))-1))*256
               + ((strpos('0123456789abcdef', substr(h, p+5, 1))-1)*16
                  + (strpos('0123456789abcdef', substr(h, p+6, 1))-1))*65536
               + ((strpos('0123456789abcdef', substr(h, p+7, 1))-1)*16
                  + (strpos('0123456789abcdef', substr(h, p+8, 1))-1))*16777216
              ) % 1000 AS milli
            FROM pos
        """,
        "media_wav_real": """
            SELECT doc_id,
                   CAST(800 + (doc_id % 5) * 160 AS BIGINT) AS n_samples,
                   CAST(8000 AS BIGINT) AS sample_rate,
                   CAST(1000 + (doc_id % 7) * 500 AS DOUBLE) AS rms,
                   CAST((800 + (doc_id % 5) * 160) // 8 - 1 AS BIGINT)
                     AS zero_crossings,
                   CAST(500 AS DOUBLE) AS dominant_freq
            FROM documents
        """,
        "media_pgm_real": """
            WITH g AS (SELECT unnest(range(8)) AS i),
            dims AS (
              SELECT doc_id, 20 + (doc_id % 4) * 10 AS w,
                     16 + (doc_id % 3) * 8 AS h
              FROM documents
            ),
            px AS (
              SELECT d.doc_id, d.w, d.h,
                     ((gx.i * d.w // 8) * 7 + (gy.i * d.h // 8) * 13
                      + d.doc_id) % 256 AS p
              FROM dims d CROSS JOIN g gx CROSS JOIN g gy
            )
            SELECT doc_id, CAST(w AS BIGINT) AS src_width,
                   CAST(h AS BIGINT) AS src_height,
                   CAST(8 AS BIGINT) AS width, CAST(8 AS BIGINT) AS height,
                   CAST(sum(p) AS BIGINT) AS pix_sum
            FROM px GROUP BY doc_id, w, h
        """,
        "media_resized_dims": """
            WITH refs AS (
              SELECT concat('doc_', i) AS doc_id,
                     concat('media://image/', i) AS media_ref
              FROM range(40) t(i) WHERE i % 2 = 0
            )
            SELECT doc_id, media_ref,
              CAST(16 AS BIGINT) AS width, CAST(16 AS BIGINT) AS height,
              CAST(40 + ((strpos('0123456789abcdef', substr(sha256(media_ref), 3, 1))-1)*16
                         + (strpos('0123456789abcdef', substr(sha256(media_ref), 4, 1))-1)) % 60
                   AS BIGINT) AS src_width,
              CAST(40 + ((strpos('0123456789abcdef', substr(sha256(media_ref), 1, 1))-1)*16
                         + (strpos('0123456789abcdef', substr(sha256(media_ref), 2, 1))-1)) % 60
                   AS BIGINT) AS src_height
            FROM refs
        """,
        "media_frames_milli": """
            WITH refs AS (
              SELECT concat('doc_', i) AS doc_id,
                     concat('media://video/', i) AS media_ref
              FROM range(40) t(i) WHERE i % 5 = 0
            ),
            cnt AS (
              SELECT doc_id, media_ref,
                30 + ((strpos('0123456789abcdef', substr(sha256(media_ref), 7, 1))-1)*16
                      + (strpos('0123456789abcdef', substr(sha256(media_ref), 8, 1))-1)) % 200
                AS n
              FROM refs
            ),
            frames AS (
              SELECT doc_id, media_ref, CAST(f * 20 AS BIGINT) AS frame_idx,
                     sha256(concat(media_ref, '#', f * 20)) AS h
              FROM cnt CROSS JOIN range(12) t2(f)
              WHERE f * 20 < n
            ),
            pos AS (
              SELECT doc_id, media_ref, frame_idx, h, k, 8 * (k % 8) AS p
              FROM frames CROSS JOIN range(16) t3(k)
            )
            SELECT doc_id, media_ref, frame_idx, CAST(k AS BIGINT) AS k,
              ((strpos('0123456789abcdef', substr(h, p+1, 1))-1)*16
               + (strpos('0123456789abcdef', substr(h, p+2, 1))-1)
               + ((strpos('0123456789abcdef', substr(h, p+3, 1))-1)*16
                  + (strpos('0123456789abcdef', substr(h, p+4, 1))-1))*256
               + ((strpos('0123456789abcdef', substr(h, p+5, 1))-1)*16
                  + (strpos('0123456789abcdef', substr(h, p+6, 1))-1))*65536
               + ((strpos('0123456789abcdef', substr(h, p+7, 1))-1)*16
                  + (strpos('0123456789abcdef', substr(h, p+8, 1))-1))*16777216
              ) % 1000 AS milli
            FROM pos
        """,
        "dedup_components": """
            SELECT CAST(i + o AS BIGINT) AS node,
                   CAST(i AS BIGINT) AS component
            FROM range(25) t(i)
            CROSS JOIN (VALUES (0), (100000), (200000), (300000)) v(o)
        """,
        "embedding_exact_planted": """
            SELECT vec_id AS id_a, vec_id + 1000000 AS id_b, 1.0 AS cos
            FROM embeddings WHERE vec_id < 25
        """,
        "lpa_sweep1": _TRIPLES_CTE + """
            , t AS (SELECT DISTINCT subj, obj FROM triples),
            e AS (SELECT subj AS a, obj AS b FROM t
                  UNION ALL SELECT obj, subj FROM t)
            SELECT a AS name, min(b) AS label FROM e GROUP BY a
        """,
        "hits_iter1": _TRIPLES_CTE + """
            , t AS (SELECT DISTINCT subj, obj FROM triples),
            nodes AS (SELECT subj AS name FROM t UNION SELECT obj AS name FROM t),
            auth AS (SELECT obj AS name, CAST(count(*) AS BIGINT) AS a
                     FROM t GROUP BY obj),
            hub AS (
              SELECT t.subj AS name, CAST(sum(coalesce(a.a, 0)) AS BIGINT) AS h
              FROM t LEFT JOIN auth a ON a.name = t.obj
              GROUP BY t.subj
            )
            SELECT nodes.name AS name,
                   coalesce(auth.a, 0) AS authority,
                   coalesce(hub.h, 0) AS hub
            FROM nodes
            LEFT JOIN auth ON auth.name = nodes.name
            LEFT JOIN hub ON hub.name = nodes.name
        """,
        "ppr_customers_iter1": _TRIPLES_CTE + """
            , t AS (SELECT DISTINCT subj, obj FROM triples),
            nodes AS (SELECT subj AS name FROM t UNION SELECT obj AS name FROM t),
            ns AS (SELECT CAST(count(*) AS DOUBLE) AS s FROM nodes
                   WHERE name LIKE 'customer:%'),
            outdeg AS (SELECT subj, CAST(count(*) AS DOUBLE) AS od
                       FROM t GROUP BY subj),
            contrib AS (
              SELECT t.obj AS name,
                     sum((1.0 / (SELECT s FROM ns)) / o.od) AS c
              FROM t JOIN outdeg o ON t.subj = o.subj
              WHERE t.subj LIKE 'customer:%'
              GROUP BY t.obj
            )
            SELECT nodes.name AS name,
                   0.85 * coalesce(contrib.c, 0)
                   + CASE WHEN nodes.name LIKE 'customer:%'
                          THEN 0.15 * (1.0 / (SELECT s FROM ns))
                          ELSE 0.0 END AS ppr
            FROM nodes LEFT JOIN contrib ON nodes.name = contrib.name
        """,
        "pagerank_iter1": _TRIPLES_CTE + """
            , t AS (SELECT DISTINCT subj, obj FROM triples),
            nodes AS (SELECT subj AS name FROM t UNION SELECT obj AS name FROM t),
            nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM nodes),
            outdeg AS (SELECT subj, CAST(count(*) AS DOUBLE) AS od FROM t GROUP BY subj),
            contrib AS (
              SELECT t.obj AS name, sum(1.0 / ((SELECT n FROM nn) * o.od)) AS c
              FROM t JOIN outdeg o ON t.subj = o.subj GROUP BY t.obj
            ),
            dang AS (
              SELECT count(*) / (SELECT n FROM nn) AS dm
              FROM nodes WHERE name NOT IN (SELECT subj FROM t)
            )
            SELECT nodes.name AS name,
                   0.85 * coalesce(contrib.c, 0)
                   + (0.85 * (SELECT dm FROM dang) + 0.15) / (SELECT n FROM nn)
                     AS pagerank
            FROM nodes LEFT JOIN contrib ON nodes.name = contrib.name
        """,
        "w2v_vocab": """
            WITH c AS (
              SELECT c_custkey, c_nationkey FROM customer
              WHERE c_custkey IN (
                SELECT c_custkey FROM customer ORDER BY c_custkey LIMIT 200
              )
            ), toks AS (
              SELECT 'customer:' || c_custkey AS token FROM c
              UNION ALL SELECT 'in_nation' FROM c
              UNION ALL SELECT 'nation:' || c_nationkey FROM c
            )
            SELECT token, count(*) AS n FROM toks GROUP BY token
        """,
        "construct_doc_mentions": """
            SELECT DISTINCT 'http://pyRDF2Vec#doc_' || doc_id AS subj,
                   'http://pyRDF2Vec#mentions' AS pred,
                   'kind:' || w AS obj
            FROM documents,
                 (VALUES ('customer'),('part'),('order'),('supplier'),
                         ('query'),('table')) words(w)
            WHERE contains(' ' || text || ' ', ' ' || w || ' ')
        """,
        "construct_mentions_checkpointed": """
            SELECT DISTINCT 'http://pyRDF2Vec#doc_' || doc_id AS subj,
                   'http://pyRDF2Vec#mentions' AS pred,
                   'kind:' || w AS obj
            FROM documents,
                 (VALUES ('customer'),('part'),('order'),('supplier'),
                         ('query'),('table')) words(w)
            WHERE contains(' ' || text || ' ', ' ' || w || ' ')
        """,
        "walks_wide_exhausted": """
            WITH c100 AS (
              SELECT c_custkey, c_nationkey FROM customer
              WHERE c_custkey IN (
                SELECT c_custkey FROM customer ORDER BY c_custkey LIMIT 100
              )
            )
            SELECT 'customer:' || c_custkey AS entity,
                   'customer:' || c_custkey || ' in_nation nation:' || c_nationkey AS walk
            FROM c100
            UNION ALL
            SELECT 'customer:' || c_custkey, 'customer:' || c_custkey
            FROM c100
        """,
        "fasttext_buckets": """
            WITH toks AS (
              SELECT DISTINCT substr(lower(n_name), 1, 3) AS token FROM nation
              UNION
              SELECT DISTINCT 'n' || n_nationkey FROM nation
            )
            SELECT token, token AS ngram,
              CAST(list_reduce(
                 list_prepend(CAST(2166136261 AS HUGEINT),
                              list_transform(string_split(token, ''),
                                             c -> CAST(unicode(c) AS HUGEINT))),
                 (h, b) -> xor(h, b) * 16777619
              ) % 99991 AS BIGINT) AS bucket
            FROM toks
        """,
        "walks_community_noteleport": """
            SELECT 'customer:' || c_custkey AS entity,
                   'customer:' || c_custkey || ' in_nation nation:' || c_nationkey
                   || ' in_region region:' || n_regionkey AS walk
            FROM customer JOIN nation ON c_nationkey = n_nationkey
            WHERE c_custkey IN (
              SELECT c_custkey FROM customer ORDER BY c_custkey LIMIT 100
            )
        """,
        "walks_wl_sample": """
            WITH c100 AS (
              SELECT c_custkey, c_nationkey FROM customer
              WHERE c_custkey IN (
                SELECT c_custkey FROM customer ORDER BY c_custkey LIMIT 100
              )
            ), j AS (
              SELECT c_custkey, c_nationkey, n_regionkey
              FROM c100 JOIN nation ON c_nationkey = n_nationkey
            )
            SELECT 'customer:' || c_custkey AS entity,
                   'customer:' || c_custkey || ' in_nation nation:' || c_nationkey
                   || ' in_region region:' || n_regionkey AS walk
            FROM j
            UNION ALL
            SELECT 'customer:' || c_custkey,
                   'customer:' || c_custkey
                   || ' in_nation nation:' || c_nationkey || '-in_nation'
                   || ' in_region region:' || n_regionkey || '-in_region'
            FROM j
        """,
        "walks_halk": """
            WITH c100 AS (
              SELECT c_custkey, c_nationkey FROM customer
              WHERE c_custkey IN (
                SELECT c_custkey FROM customer ORDER BY c_custkey LIMIT 100
              )
            )
            SELECT 'customer:' || c_custkey AS entity, 0.01 AS threshold,
                   'customer:' || c_custkey || ' in_nation nation:' || c_nationkey
                   || ' in_region region:' || n_regionkey AS walk
            FROM c100 JOIN nation ON c_nationkey = n_nationkey
            UNION ALL
            SELECT 'customer:' || c_custkey, 1.5,
                   'customer:' || c_custkey
            FROM c100
        """,
        "walks_split": """
            SELECT 'customer:' || c_custkey AS entity,
                   CASE WHEN c_nationkey = n_regionkey
                     THEN 'in_nation nation ' || c_nationkey || ' in_region region'
                     ELSE 'in_nation nation ' || c_nationkey
                          || ' in_region region ' || n_regionkey
                   END AS walk
            FROM customer JOIN nation ON c_nationkey = n_nationkey
            WHERE c_custkey IN (
              SELECT c_custkey FROM customer ORDER BY c_custkey LIMIT 100
            )
        """,
        "walks_anonymous": """
            SELECT 'customer:' || c_custkey AS entity,
                   'customer:' || c_custkey || ' 1 2 3 4' AS walk
            FROM customer
            WHERE c_custkey IN (
              SELECT c_custkey FROM customer ORDER BY c_custkey LIMIT 100
            )
        """,
        "events_sessions": """
            WITH d AS (
              SELECT user_id, ts,
                     CASE WHEN lag(ts) OVER w IS NULL
                          OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS brk
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            ), s AS (
              SELECT user_id, ts,
                     SUM(brk) OVER (PARTITION BY user_id ORDER BY ts
                                    ROWS UNBOUNDED PRECEDING) AS sid
              FROM d
            )
            SELECT user_id, min(ts) AS session_start, max(ts) AS session_end,
                   CAST(count(*) AS BIGINT) AS n_events
            FROM s GROUP BY user_id, sid
        """,
        "knn_ivf_exhaustive": """
            SELECT query_id, neighbor_id FROM (
              SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
                     row_number() OVER (
                       PARTITION BY q.vec_id
                       ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC,
                                e.vec_id ASC
                     ) AS rn
              FROM embeddings q CROSS JOIN embeddings e
              WHERE q.vec_id < 5
            ) WHERE rn <= 5
        """,
        "knn_bruteforce": """
            SELECT query_id, neighbor_id FROM (
              SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
                     row_number() OVER (
                       PARTITION BY q.vec_id
                       ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC,
                                e.vec_id ASC
                     ) AS rn
              FROM embeddings q CROSS JOIN embeddings e
              WHERE q.vec_id < 5
            ) WHERE rn <= 5
        """,
    }
    # the SPARQL-text query is semantically identical to kg_bgp_match
    # (same algebra, parsed from text) — one shared oracle definition
    oracles["kg_sparql_text"] = oracles["kg_bgp_match"]
    # the import-gated image codec must reproduce the stdlib PGM
    # pipeline's checksums on EITHER branch (Pillow reads PGM too)
    oracles["media_any_image"] = oracles["media_pgm_real"]
    return oracles
