"""KG construction: documents → mentions → linked triples → dedup.

Ray-Data-native replacement for the reference's KG.__attrs_post_init__
file parse + add_walk loop (graphs/kg.py:142-216).  Every stage is a
Dataset transform; the only shuffle is the triple dedup
(groupby(subj,pred,obj)).  The materialized graph is the sharded CSR
that ``state/sharded_graph.ShardedGraphIndex.build`` makes of the
triples, by task splits with no exchange.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from pyrdf2vec_ray.stages.extract import MentionExtractor
from pyrdf2vec_ray.stages.link import CandidateIndex, EntityLinker


def extract_mentions(docs: ray.data.Dataset, pattern: str | None = None) -> ray.data.Dataset:
    # stateless tasks on pre-started workers: pattern compilation is cheap
    # and an actor pool would add seconds of spin-up latency per run
    extractor = MentionExtractor(pattern)
    return docs.map_batches(
        extractor, batch_format="pyarrow", batch_size=2048
    )


_LINKER_CACHE: dict = {}


def link_mentions(
    mentions: ray.data.Dataset,
    index: CandidateIndex,
    skip_predicates: frozenset[str] = frozenset(),
    min_score: float = 0.0,
) -> ray.data.Dataset:
    """Stateless-task form of the linker: the sharded index is broadcast
    via the object store and materialized ONCE PER WORKER PROCESS (module
    cache keyed by the shard refs and the filters), so tasks on warm
    workers pay a dict lookup, not an actor spin-up.  The EntityLinker
    actor class remains for linkers with heavyweight state (models)."""
    key = (tuple(str(r) for r in index.shard_refs), skip_predicates,
           min_score)

    def link(batch: pa.Table) -> pa.Table:
        linker = _LINKER_CACHE.get(key)
        if linker is None:
            linker = EntityLinker(index, skip_predicates, min_score)
            _LINKER_CACHE.clear()   # one linker per worker at a time
            _LINKER_CACHE[key] = linker
        return linker(batch)

    return mentions.map_batches(link, batch_format="pyarrow", batch_size=8192)


def dedup_triples(
    linked: ray.data.Dataset, num_buckets: int | None = None
) -> ray.data.Dataset:
    """Global exact dedup of (subj, pred, obj) — the reference's set-valued
    adjacency semantics (kg.py:177-178): per-batch combiner, then ONE
    hash-bucket shuffle with vectorized per-bucket dedup (shuffle.py;
    ~10x faster than the sort-based multi-string-key groupby)."""
    from pyrdf2vec_ray.shuffle import distinct

    return distinct(
        linked.select_columns(["subj", "pred", "obj"]),
        ["subj", "pred", "obj"],
        num_buckets=num_buckets,
    )


def construct_kg(
    docs: ray.data.Dataset,
    candidates: dict[str, str],
    skip_predicates: frozenset[str] = frozenset(),
    min_score: float = 0.0,
    pattern: str | None = None,
) -> ray.data.Dataset:
    """documents → deduplicated `triples` Dataset (lazy; one shuffle)."""
    index = CandidateIndex.build(candidates)
    mentions = extract_mentions(docs, pattern=pattern)
    linked = link_mentions(mentions, index, skip_predicates, min_score)
    return dedup_triples(linked)


def comention_edges(
    mentions: ray.data.Dataset,
    id_col: str = "doc_id",
    ent_col: str = "ent",
    max_per_doc: int | None = None,
) -> ray.data.Dataset:
    """(ent_a, ent_b, n_docs): the entity co-occurrence graph — an
    undirected edge per pair of distinct entities mentioned in the same
    document, weighted by the number of co-mentioning documents.  The
    standard KG-enrichment step after entity linking (relatedness
    edges, "people also mention" signals); the reference's KG has only
    asserted triples, co-mention adds the corpus-derived layer.

    Two bucket shuffles, both small: (1) mention rows co-locate by doc
    hash (a doc's mentions must meet to form pairs — batch boundaries
    give no such guarantee after re-blocking), then pairs generate
    vectorized per bucket via ONE self-merge on doc keeping the a < b
    half, with per-bucket partial counts; (2) the shrunken (pair, cnt)
    partials collapse in ONE pair-bucket count.  Skew: a doc
    mentioning m entities emits m(m-1)/2 pairs — ``max_per_doc`` drops
    the pathological long tail (press-release pages naming hundreds of
    entities) BEFORE the quadratic step; the cap is deterministic
    (keeps the lexicographically first m entities)."""
    import numpy as np
    import pandas as pd

    from pyrdf2vec_ray.shuffle import bucket_agg, bucket_apply

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        m = batch[[id_col, ent_col]].drop_duplicates()
        if max_per_doc is not None:
            m = m.sort_values([id_col, ent_col])
            m = m.groupby(id_col, sort=False).head(max_per_doc)
        j = m.merge(m, on=id_col, suffixes=("_a", "_b"))
        j = j[j[f"{ent_col}_a"] < j[f"{ent_col}_b"]]
        out = j.rename(columns={f"{ent_col}_a": "ent_a",
                                f"{ent_col}_b": "ent_b"})
        return (out.groupby(["ent_a", "ent_b"], as_index=False)
                .agg(cnt=(id_col, "size")))

    parts = bucket_apply(
        mentions.select_columns([id_col, ent_col]), [id_col], pairs,
        batch_format="pandas",
    )
    out = bucket_agg(parts, ["ent_a", "ent_b"],
                     {"n_docs": ("cnt", "sum")}, pre=False)

    def as_int(batch: pd.DataFrame) -> pd.DataFrame:
        batch["n_docs"] = batch["n_docs"].astype(np.int64)
        return batch

    return out.map_batches(as_int, batch_format="pandas")
