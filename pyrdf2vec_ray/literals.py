"""Literal extraction along predicate chains (reference kg.py:258-350).

``get_pliterals``: frontier = {entity}; for each predicate name in the
chain, frontier = all objects reachable via exactly that predicate;
the final frontier's strings are cast ([] → NaN, float-or-str, >1 →
tuple — kg.py:399-426).

Ray shape: entities stream through an actor pool over the sharded graph
index; each chain hop routes every frontier name to the forward shard
that owns it, so a worker maps only the shards its chains touch (the
dataset-join formulation is k filtered hash-joins, SURVEY.md G5 —
equivalent, used by the oracle SQL).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from pyrdf2vec_ray.schemas import LITERALS
from pyrdf2vec_ray.state.sharded_graph import (
    ShardedGraphIndex,
    ShardedLocalGraph,
    require_sharded,
)


def pliterals(g: ShardedLocalGraph, entity: str, chain: list[str]) -> list[str]:
    """kg.get_pliterals (kg.py:330-350) over the name-keyed shard view:
    no global id space, no driver-side graph."""
    frontier = {entity}
    for pred in chain:
        new: set[str] = set()
        for node in frontier:
            preds, objs = g.get_hops(node)
            new.update(
                str(o) for p, o in zip(preds, objs) if str(p) == pred
            )
        frontier = new
    return sorted(frontier)


def cast_literals(entity_literals: list[list[str]]):
    """kg._cast_literals (kg.py:399-426): [] → NaN; try-float; tuples."""
    out = []
    for literal in entity_literals:
        if len(literal) == 0:
            out.append(np.nan)
        else:
            casted = []
            for value in literal:
                try:
                    casted.append(float(value))
                except Exception:
                    casted.append(value)
            if len(casted) > 1:
                out.append(tuple(casted))
            else:
                out.extend(casted)
    return out


def get_literals(gi: ShardedGraphIndex, entities: list[str],
                 chains: list[list[str]]):
    """Driver-convenience form returning the reference's ragged matrix
    (one row per entity, one cell per chain)."""
    require_sharded(gi, "get_literals")
    if len(chains) == 0:
        return []
    g = gi.local()
    return [
        cast_literals([pliterals(g, e, chain) for chain in chains])
        for e in entities
    ]


class LiteralExtractor:
    def __init__(self, chains: list[list[str]], shard_refs):
        # lazy: chain traversal touches only the shards its names
        # route to (shard-owner routing, VERDICT r4 item 2)
        self.g = ShardedLocalGraph.from_refs(*shard_refs)
        self.chains = chains

    def __call__(self, batch: pa.Table) -> pa.Table:
        ents, vals = [], []
        for e in batch["entity"].to_pylist():
            ents.append(e)
            vals.append([pliterals(self.g, e, chain) for chain in self.chains])
        return pa.Table.from_pydict(
            {"entity": ents, "values": vals}, schema=LITERALS
        )


def literals_dataset(
    gi: ShardedGraphIndex, entities: list[str], chains: list[list[str]],
    concurrency=(1, 4), batch_size: int = 256,
) -> ray.data.Dataset:
    require_sharded(gi, "literals_dataset")
    ds = ray.data.from_arrow(pa.table({"entity": pa.array(entities, pa.string())}))
    return ds.map_batches(
        LiteralExtractor,
        fn_constructor_kwargs={
            "chains": chains, "shard_refs": (gi.fwd_refs, gi.rev_refs),
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
