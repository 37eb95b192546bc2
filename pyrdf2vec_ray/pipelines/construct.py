"""KG construction: documents → mentions → linked triples → dedup → adjacency.

Ray-Data-native replacement for the reference's KG.__attrs_post_init__
file parse + add_walk loop (graphs/kg.py:142-216).  Every stage is a
Dataset transform; the only shuffles are the triple dedup
(groupby(subj,pred,obj)) and the adjacency materialize (groupby(subj)) —
see SURVEY.md §4's shuffle inventory.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from pyrdf2vec_ray.schemas import HOP_STRUCT
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


def materialize_adjacency(
    triples: ray.data.Dataset, max_hops_per_row: int = 100_000
) -> ray.data.Dataset:
    """`adjacency` table: one row per subject with its sorted (pred, obj)
    hop list (≡ _transition_matrix / get_hops, kg.py:445-467).  Hub
    subjects with more than `max_hops_per_row` hops are salt-split across
    several rows (`part` column) so no single Arrow row explodes a block
    (SURVEY.md §7 "very wide records")."""

    from pyrdf2vec_ray.shuffle import bucket_apply

    def bucket_rows(g: pa.Table) -> pa.Table:
        # all triples of every subject hashed to this bucket: one vectorized
        # sort + grouped list-assembly (no per-subject task churn)
        g = g.sort_by(
            [("subj", "ascending"), ("pred", "ascending"), ("obj", "ascending")]
        )
        agg = g.group_by("subj", use_threads=False).aggregate(
            [("pred", "list"), ("obj", "list")]
        )
        pred_lists = agg["pred_list"]
        obj_lists = agg["obj_list"]
        # zip the parallel lists into list<struct<pred,obj>> reusing offsets
        pl_c = pred_lists.combine_chunks()
        ol_c = obj_lists.combine_chunks()
        structs = pa.StructArray.from_arrays(
            [pl_c.flatten(), ol_c.flatten()], names=["pred", "obj"]
        )
        hop_lists = pa.ListArray.from_arrays(pl_c.offsets, structs)

        # the assembled ListArray IS the output for every subject under
        # the cap — emit it zero-copy and loop only over the (rare)
        # hot-key subjects that need salt-splitting
        import numpy as np

        hop_lists = hop_lists.cast(pa.list_(HOP_STRUCT))
        lens = np.diff(hop_lists.offsets.to_numpy())
        subj_arr = agg["subj"].combine_chunks()
        over = np.flatnonzero(lens > max_hops_per_row)
        if len(over) == 0:
            return pa.table(
                {"subj": subj_arr,
                 "part": pa.array(np.zeros(len(lens), dtype=np.int32)),
                 "out": hop_lists}
            )
        under = np.flatnonzero(lens <= max_hops_per_row)
        t_under = pa.table(
            {"subj": subj_arr.take(pa.array(under)),
             "part": pa.array(np.zeros(len(under), dtype=np.int32)),
             "out": hop_lists.take(pa.array(under))}
        )
        rows_subj, rows_part, rows_out = [], [], []
        for i in over:  # hot-key salt split (SURVEY.md §7 "very wide records")
            hops = hop_lists[int(i)].as_py()
            subj_i = subj_arr[int(i)].as_py()
            for part, lo in enumerate(range(0, len(hops), max_hops_per_row)):
                rows_subj.append(subj_i)
                rows_part.append(part)
                rows_out.append(hops[lo : lo + max_hops_per_row])
        t_over = pa.Table.from_pydict(
            {
                "subj": pa.array(rows_subj, pa.string()),
                "part": pa.array(rows_part, pa.int32()),
                "out": pa.array(rows_out, pa.list_(HOP_STRUCT)),
            }
        )
        return pa.concat_tables([t_under, t_over]).combine_chunks()

    return bucket_apply(triples, ["subj"], bucket_rows, num_buckets=None)


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
