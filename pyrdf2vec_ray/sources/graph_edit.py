"""Programmatic graph builder / editor (reference S3: add_walk /
add_vertex / add_edge / remove_edge, graphs/kg.py:166-216, 377-397).

The reference mutates in-memory sets; here the triples Dataset is the
graph, so edits are dataset algebra: add = union + dedup, remove =
vectorized anti-filter.  Rebuild the ShardedGraphIndex (or a
whole-graph GraphIndex) after a batch of edits (edits are
batch-oriented, like everything in this engine).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from pyrdf2vec_ray.pipelines.construct import dedup_triples
from pyrdf2vec_ray.schemas import TRIPLES


def from_triples(triples: list[tuple[str, str, str]]) -> ray.data.Dataset:
    """Build a triples Dataset from python tuples (tests / small graphs)."""
    s, p, o = zip(*triples) if triples else ([], [], [])
    return ray.data.from_arrow(
        pa.Table.from_pydict(
            {"subj": list(s), "pred": list(p), "obj": list(o)}, schema=TRIPLES
        )
    )


def add_walks(
    graph: ray.data.Dataset,
    new_triples: list[tuple[str, str, str]],
    skip_predicates: frozenset[str] = frozenset(),
) -> ray.data.Dataset:
    """kg.add_walk semantics (kg.py:196-216): skip-predicate filter, then
    set-union into the graph (dedup)."""
    kept = [t for t in new_triples if t[1] not in skip_predicates]
    if not kept:
        return graph
    return dedup_triples(graph.union(from_triples(kept)))


_RM_CACHE: dict = {}


def remove_edges(
    graph: ray.data.Dataset, remove: list[tuple[str, str, str]]
) -> ray.data.Dataset:
    """kg.remove_edge (kg.py:377-397) as a broadcast anti-join: the removal
    set is small → filter each batch vectorized, no shuffle.  The removal
    pa.array is built once per worker process (module cache keyed by the
    broadcast ref), not re-materialized per batch."""
    import ray

    rm = sorted(f"{s}\x1f{p}\x1f{o}" for s, p, o in remove)
    rm_ref = ray.put(rm)
    ckey = str(rm_ref)

    def drop(batch: pa.Table) -> pa.Table:
        arr = _RM_CACHE.get(ckey)
        if arr is None:
            arr = pa.array(ray.get(rm_ref), pa.string())
            _RM_CACHE.clear()
            _RM_CACHE[ckey] = arr
        keys = pc.binary_join_element_wise(
            batch["subj"], batch["pred"], batch["obj"], "\x1f"
        )
        return batch.filter(pc.invert(pc.is_in(keys, arr)))

    return graph.map_batches(drop, batch_format="pyarrow")


def read_entities(path: str, column: str = "entity") -> list[str]:
    """Entities source (reference S4: TSV/CSV roots, examples/mutag.py:17-26)."""
    from pyarrow import csv as pacsv

    opts = (
        {"parse_options": pacsv.ParseOptions(delimiter="\t")}
        if path.endswith(".tsv")
        else {}
    )
    ds = ray.data.read_csv(path, **opts)
    return [r[column] for r in ds.select_columns([column]).take_all()]
