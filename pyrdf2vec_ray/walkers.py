"""Walk strategies as Ray Data pipelines (SURVEY.md §2.3/§2.5).

``extract_walks(gi, entities, spec)`` returns a lazy Dataset of
``(entity, walks: list<list<string>>)`` rows — one row per root entity,
exactly the reference's ``EntityWalks`` (typings.py:13).  ``gi`` is a
``ShardedGraphIndex``: root entities stream through ``map_batches``
tasks that map the graph shards their hops touch from the object store.
The graph-global fitted state (sampler statistics, WL labels, community
partition) is fitted from the index (its shards; WL from its triples
Dataset) and broadcast once via the object store.
Corpus-global strategies (HALK frequency filter, NGram id assignment)
add a barrier aggregation + a rewrite pass, per SURVEY.md A8/W4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

import ray
import ray.data

from pyrdf2vec_ray.functions import canon
from pyrdf2vec_ray.samplers import NameFittedSampler, SamplerSpec
from pyrdf2vec_ray.stages.walk import WalkCore
from pyrdf2vec_ray.state.sharded_graph import (
    ShardedGraphIndex,
    ShardedLocalGraph,
    concat_pieces,
    require_sharded,
    split_by_shard,
)

STRATEGIES = (
    "random", "anonymous", "walklet", "split", "ngram", "halk", "wl", "community",
)

# user walker plugins: name -> fn(graph, entity, spec) (see register_walker)
_CUSTOM_STRATEGIES: dict[str, object] = {}


def register_walker(name: str, fn) -> None:
    """Open extension point mirroring the reference's ``Walker`` ABC
    (reference walkers/walker.py:168-212 ``_extract``): register
    ``fn(graph, entity, spec) -> iterable[sequence[str]]`` and then use
    ``WalkerSpec(strategy=name)`` anywhere a built-in strategy goes.

    ``graph`` is a NAME-keyed hop view (:class:`NameGraphView`) over the
    sharded graph: ``get_hops(name, is_reverse=False)`` returns
    (pred_names, other_names) lists sorted by (pred, other), and
    ``contains(name)`` checks existence.  ``entity`` is the root name,
    already checked to exist.  The returned walks are deduped and sorted
    exactly like built-ins (SURVEY §4 ordering).  ``fn`` ships to
    workers via
    cloudpickle — functions from installed packages go by reference,
    locally-defined functions by value; a module-level fn in a
    driver-only module won't import on workers (define it locally or
    install the package).  Re-registering a name replaces the plugin
    for subsequent extract_walks calls."""
    if name in STRATEGIES:
        raise ValueError(f"{name!r} is a built-in strategy")
    if not callable(fn):
        raise TypeError("walker plugin must be callable")
    _CUSTOM_STRATEGIES[name] = fn


class NameGraphView:
    """Name-keyed hop access handed to plugin walkers: plain lists of
    Python strings, so a plugin never sees shard arrays."""

    def __init__(self, g: ShardedLocalGraph):
        self._g = g

    def get_hops(self, name, is_reverse: bool = False):
        """(pred_names, other_names), sorted by (pred, other)."""
        preds, others = self._g.get_hops(str(name), is_reverse)
        return preds.tolist(), others.tolist()

    def contains(self, name) -> bool:
        return self._g.contains_one(str(name))


WALKS_SCHEMA = pa.schema(
    [("entity", pa.string()), ("walks", pa.list_(pa.list_(pa.string())))]
)
HALK_SCHEMA = pa.schema(
    [
        ("entity", pa.string()),
        ("threshold", pa.float64()),
        ("walks", pa.list_(pa.list_(pa.string()))),
    ]
)


@dataclass(frozen=True)
class WalkerSpec:
    """Mirrors the reference walker constructor surface
    (walkers/walker.py:35-108 + per-walker kwargs)."""

    strategy: str = "random"
    max_depth: int = 2
    max_walks: int | None = None        # None → BFS, else DFS (random.py:120-131)
    with_reverse: bool = False
    md5_bytes: int | None = 8
    sampler: SamplerSpec = field(default_factory=SamplerSpec)
    random_state: int | None = None
    seed_mode: str = "per_entity"       # or "per_call" (reference-faithful RNG)
    wl_iterations: int = 4
    grams: int = 3
    wildcards: tuple | None = None
    freq_thresholds: tuple = (0.01,)
    hop_prob: float = 0.1
    md5_positional: bool = False   # golden-corpus compat (canon.map_random)
    frontier_cap: int | None = None  # BFS skew guard (stages/walk.WalkCore)
    # user hook (split.py:46-50): fn(walk: list[str], with_reverse) -> tuple
    # applied per raw walk instead of canon.split_walk; must be picklable
    func_split: object | None = None

    def __post_init__(self):
        if (self.strategy not in STRATEGIES
                and self.strategy not in _CUSTOM_STRATEGIES):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.max_walks is not None and self.max_walks < 0:
            raise ValueError("max_walks must be >= 0 or None")


class WalkExtractor:
    """map_batches worker state: holds the lazy shard view + fitted
    state, walks a batch of root entities per call."""

    def __init__(self, spec: WalkerSpec, entities_ref, sampler_ref,
                 shard_refs, labels_ref=None, community_ref=None,
                 custom_fn=None):
        # lazy shard-owner routing: entity batches arrive routed by
        # crc32(entity) % S (extract_walks), so this worker resolves
        # its batch's shard + the shards its hops cross on demand —
        # O(graph/S + touched) resident, not all 2·S refs
        self.g = ShardedLocalGraph.from_refs(*shard_refs)
        self.spec = spec
        if isinstance(entities_ref, tuple):   # sharded keep-set refs
            self.entities = ShardedKeepSet.from_refs(entities_ref)
        else:
            self.entities = ray.get(entities_ref)
        self.custom_fn = custom_fn
        if custom_fn is not None:
            # plugin walkers get the name-keyed view; no core/fits needed
            self.view = NameGraphView(self.g)
            self.core = None
            self.labels = None
            return
        fitted = ray.get(sampler_ref)
        self.labels = ray.get(labels_ref) if labels_ref is not None else None
        community = ray.get(community_ref) if community_ref is not None else None
        self.core = WalkCore(
            self.g,
            fitted,
            spec.max_depth,
            spec.max_walks,
            spec.with_reverse,
            spec.random_state,
            spec.seed_mode,
            community=community,
            hop_prob=spec.hop_prob,
            frontier_cap=spec.frontier_cap,
        )

    def _canonical(self, name_walks: list[tuple[str, ...]], root: str) -> list[list[str]]:
        spec = self.spec
        s = spec.strategy
        out: set[tuple] = set()
        if s in ("random", "community", "halk"):
            for w in name_walks:
                out.add(canon.map_random(
                    w, self.entities, spec.md5_bytes, spec.md5_positional
                ))
        elif s == "anonymous":
            for w in name_walks:
                out.add(canon.map_anonymous(w, root))
        elif s == "walklet":
            for w in name_walks:
                out |= canon.map_walklets(w, root, spec.with_reverse)
        elif s == "split":
            fn = spec.func_split or canon.split_walk
            for w in name_walks:
                out.add(fn(list(w), spec.with_reverse))
        elif s == "wl":
            for n in range(spec.wl_iterations + 1):
                for w in name_walks:
                    out.add(canon.map_wl(w, self.entities, self.labels, n))
        elif s == "ngram":
            # raw walks out; global two-phase id assignment happens in
            # ngram_post (deterministic ids — SURVEY.md W4 deviation note)
            out = set(tuple(w) for w in name_walks)
        # sorted: corpus order must not depend on per-process string-hash
        # seeds (the reference's set order is process-dependent; we are
        # deterministic under any parallelism, SURVEY.md §4 Ordering)
        return [list(t) for t in sorted(out)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ents, walk_lists = [], []
        for entity in batch["entity"].to_pylist():
            # existence (kg.is_exist, kg.py:352-375; raise semantics
            # rdf2vec.py:166-172) is checked here, on the owner shard
            if not self.g.contains_one(entity):
                raise ValueError(
                    f"The entity {entity!r} is not in the Knowledge Graph."
                )
            ents.append(entity)
            if self.custom_fn is not None:
                ws = self.custom_fn(self.view, entity, self.spec)
                walk_lists.append(
                    [list(t) for t in
                     sorted({tuple(str(x) for x in w) for w in ws})]
                )
            else:
                walk_lists.append(
                    self._canonical(self.core.extract_walks(entity), entity)
                )
        return pa.Table.from_pydict(
            {"entity": ents, "walks": walk_lists}, schema=WALKS_SCHEMA
        )


class ShardedKeepSet:
    """Membership over a root-entity name set hash-sharded by crc32 —
    the md5 keep-set for DATASET-scale root lists ("walk every vertex of
    the KG" jobs), replacing the driver-built broadcast ``frozenset``:
    each shard is a sorted fixed-width (U-dtype) name array living in
    the object store; lookup = crc32 route + one searchsorted.  Workers
    map shards zero-copy, the driver only ever holds refs.  Built only
    by :meth:`from_refs`."""

    @classmethod
    def from_refs(cls, refs) -> "ShardedKeepSet":
        """Lazy form: shard name arrays resolve from the object store on
        first touch — under shard-routed walk batches a worker maps only
        the keep shards its walks actually reference."""
        self = cls.__new__(cls)
        self.shards = [None] * len(refs)
        self.num_shards = len(refs)
        self._refs = list(refs)
        return self

    def __contains__(self, name) -> bool:
        import zlib

        s = zlib.crc32(str(name).encode()) % self.num_shards
        a = self.shards[s]
        if a is None:
            a = self.shards[s] = ray.get(self._refs[s])
        i = int(np.searchsorted(a, name))
        return i < len(a) and a[i] == name


@ray.remote(num_returns=2)
def _build_keep_shard(*pieces: pa.Table) -> tuple:
    """One shard's root pieces → (its sorted distinct names, its roots
    as one table)."""
    t = concat_pieces(pieces, ["entity"])
    s = t["entity"].to_pandas().drop_duplicates().sort_values()
    return s.to_numpy().astype(np.str_), t       # U-dtype: zero-copy put


def build_keepset_refs(
    entities_ds: "ray.data.Dataset",
    num_shards: int = 8,
) -> tuple:
    """Roots Dataset → (tuple of per-shard sorted-name array refs — the
    ShardedKeepSet halves — , list of per-shard root table refs), via
    the same task split the sharded graph is built with: one split task
    per block by crc32(entity), one build task per shard — the driver
    holds refs and never the root list.  The tables are the SHARD-ROUTED
    walk input: each holds one shard's roots only."""
    (pieces,) = split_by_shard(entities_ds, ["entity"], ("entity",),
                               num_shards)
    names, tables = zip(*(_build_keep_shard.remote(*p) for p in pieces))
    ray.wait(list(names), num_returns=num_shards, fetch_local=False)
    return names, list(tables)


_EXTRACTOR_CACHE: dict = {}


def _fit_cached(gi, key, builder):
    """Graph-global fitted state (sampler stats, WL labels, community
    partition) cached on the index object itself — repeated
    ``extract_walks`` calls against one graph (multi-walker pipelines,
    the driver's query gate) fit once and reuse the broadcast ref.  A
    new/edited graph is a new index object, so staleness is impossible."""
    cache = getattr(gi, "_fit_cache", None)
    if cache is None:
        cache = gi._fit_cache = {}
    if key not in cache:
        cache[key] = builder()
    return cache[key]


def extract_walks(
    gi: ShardedGraphIndex,
    entities,
    spec: WalkerSpec,
    concurrency: int | tuple | None = None,
    batch_size: int = 256,
) -> ray.data.Dataset:
    """Entities → per-entity canonical walks Dataset over a
    ``ShardedGraphIndex`` (state/sharded_graph.py — no driver-side graph
    materialization).  Existence is checked inside the walk tasks: an
    unknown root fails the Dataset with "The entity ... is not in the
    Knowledge Graph."

    ``entities`` is a list of root names (reference API,
    rdf2vec.py:141-166) OR a Dataset with an ``entity`` column — the
    scale form for "walk every vertex of the KG" jobs: roots stream,
    and the md5 keep-set becomes a crc32-sharded sorted-name index
    (``ShardedKeepSet``) instead of a driver-built broadcast frozenset.

    ``concurrency`` caps the concurrent walk tasks (the reference's
    walker n_jobs, walker.py:106-108); None schedules them elastically."""
    require_sharded(gi, "extract_walks")
    custom_fn = _CUSTOM_STRATEGIES.get(spec.strategy)
    if isinstance(entities, ray.data.Dataset):
        # the keep-set build splits the roots by crc32(entity) % S with
        # Ray tasks, and the walk input is one block per shard — so every
        # walk batch arrives already routed to its owner shard: the lazy
        # ShardedLocalGraph in each task resolves its batch's owner
        # shard plus the shards its hops cross — O(graph/S + touched)
        # resident per worker, not all 2·S shard arrays.
        entities_ref, tables = build_keepset_refs(
            entities.select_columns(["entity"]), num_shards=gi.num_shards
        )
        ents_ds = ray.data.from_arrow_refs(tables)
    else:
        entities_ref = ray.put(frozenset(entities))
        ents_ds = ray.data.from_arrow(
            pa.table({"entity": pa.array(entities, pa.string())})
        )
        n_blocks = max(1, min(len(entities) // max(1, batch_size), 64))
        ents_ds = ents_ds.repartition(n_blocks)

    sampler_ref = None if custom_fn is not None else _fit_cached(
        gi, ("sampler", spec.sampler),
        lambda: ray.put(NameFittedSampler.fit(spec.sampler, gi)),
    )
    labels_ref = None
    community_ref = None
    if spec.strategy == "wl":
        from pyrdf2vec_ray.stages.wl import wl_labels_from_dataset

        labels_ref = _fit_cached(
            gi, ("wl", spec.wl_iterations, spec.md5_bytes),
            lambda: ray.put(wl_labels_from_dataset(
                gi.triples_dataset(), spec.wl_iterations, spec.md5_bytes
            )),
        )
    if spec.strategy == "community":
        from pyrdf2vec_ray.stages.community import detect_communities_from_index

        community_ref = _fit_cached(
            gi, ("community",),
            lambda: ray.put(detect_communities_from_index(gi)),
        )

    shard_refs = (gi.fwd_refs, gi.rev_refs)
    # stateless tasks + per-worker-process extractor cache (keyed by the
    # broadcast refs): warm Ray workers skip both actor-pool spin-up and
    # re-deserialization of the fitted state; elastic scheduling
    key = (str(shard_refs), str(entities_ref), str(sampler_ref),
           str(labels_ref), str(community_ref), spec, id(custom_fn))
    kwargs = {
        "shard_refs": shard_refs,
        "spec": spec,
        "entities_ref": entities_ref,
        "sampler_ref": sampler_ref,
        "labels_ref": labels_ref,
        "community_ref": community_ref,
        "custom_fn": custom_fn,
    }

    def walk_batch(batch: pa.Table) -> pa.Table:
        extractor = _EXTRACTOR_CACHE.get(key)
        if extractor is None:
            extractor = WalkExtractor(**kwargs)
            _EXTRACTOR_CACHE.clear()   # one graph per worker at a time
            _EXTRACTOR_CACHE[key] = extractor
        return extractor(batch)

    # an int caps the concurrent walk tasks so co-running stages keep
    # their share of the cluster; (min, max) actor-pool tuples take the
    # max — the walk UDF is a cached plain function, not an actor class
    cap = max(concurrency) if isinstance(concurrency, tuple) else concurrency
    ds = ents_ds.map_batches(
        walk_batch, batch_format="pyarrow", batch_size=batch_size,
        concurrency=cap,
    )
    if spec.strategy == "halk":
        ds = halk_post(ds, spec)
    elif spec.strategy == "ngram":
        ds = ngram_post(ds, spec)
    return ds


# ---- corpus-global post-processing (barrier stages) ------------------------

def halk_partial_counts(batch: pa.Table) -> pa.Table:
    """Per-batch HALK stats: for each predicate, the number of WALKS it
    appears in (distinct per walk — halk.py:127-136 counts via a
    per-walk set), plus the batch walk total under the reserved
    "\\x00TOTAL\\x00" key.  Vectorized over the whole batch: flatten the
    ragged walk lists once, mask odd (predicate) positions, distinct
    (walk, pred) pairs, grouped count — this pass scans the FULL corpus,
    so no per-walk/per-token Python loop."""
    import pandas as _pd
    import pyarrow.compute as pc

    w = batch["walks"].combine_chunks()
    walks_flat = pc.list_flatten(w)          # one entry per walk
    total = len(walks_flat)
    lens = pc.list_value_length(walks_flat).to_numpy(zero_copy_only=False).astype(np.int64)
    n_tok = int(lens.sum())
    if n_tok == 0:
        return pa.table({"pred": ["\x00TOTAL\x00"],
                         "n": pa.array([total], pa.int64())})
    toks = pc.list_flatten(walks_flat)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    pos = np.arange(n_tok) - np.repeat(starts, lens)
    odd = (pos & 1) == 1
    wid = np.repeat(np.arange(total), lens)[odd]
    preds = np.asarray(toks.to_numpy(zero_copy_only=False))[odd]
    g = (_pd.DataFrame({"wid": wid, "pred": preds})
         .drop_duplicates()
         .groupby("pred", as_index=False).size())
    return pa.table({
        "pred": list(g["pred"]) + ["\x00TOTAL\x00"],
        "n": pa.array(list(g["size"]) + [total], pa.int64()),
    })


def halk_post(walks_ds: ray.data.Dataset, spec: WalkerSpec) -> ray.data.Dataset:
    """HALK frequency filter (halk.py:118-176, SURVEY.md A8): global
    per-predicate walk-frequency stats → broadcast rare sets → rebuild.
    Partial counts per batch, then one small groupby(pred) shuffle."""

    # consumed twice (stats + rebuild): pin the extracted walks in the
    # object store instead of re-running the walk actors
    walks_ds = walks_ds.materialize()
    partial_counts = halk_partial_counts

    stats = (
        walks_ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("pred")
        .sum("n")
    )
    stats_t = stats.to_pandas()
    if len(stats_t) == 0 or "pred" not in stats_t.columns:
        # empty corpus (e.g. empty entity list): empty HALK dataset, not
        # an IndexError
        return ray.data.from_arrow(HALK_SCHEMA.empty_table())
    col = "sum(n)" if "sum(n)" in stats_t.columns else "n"
    total_rows = stats_t.loc[stats_t["pred"] == "\x00TOTAL\x00", col]
    if len(total_rows) == 0 or int(total_rows.sum()) == 0:
        return ray.data.from_arrow(HALK_SCHEMA.empty_table())
    total = int(total_rows.sum())
    freqs = {
        r["pred"]: r[col] / total
        for _, r in stats_t.iterrows()
        if r["pred"] != "\x00TOTAL\x00"
    }
    rare_sets = {
        th: frozenset(p for p, f in freqs.items() if f < th)
        for th in spec.freq_thresholds
    }
    rare_ref = ray.put(rare_sets)
    with_reverse = spec.with_reverse

    def rebuild(batch: pa.Table) -> pa.Table:
        rare = ray.get(rare_ref)
        ents, ths, outs = [], [], []
        for entity, walks in zip(
            batch["entity"].to_pylist(), batch["walks"].to_pylist()
        ):
            tuples = [tuple(w) for w in walks]
            for th, rset in rare.items():
                rebuilt = canon.halk_rebuild(tuples, set(rset), with_reverse)
                ents.append(entity)
                ths.append(float(th))
                outs.append([list(t) for t in rebuilt])
        return pa.Table.from_pydict(
            {"entity": ents, "threshold": ths, "walks": outs}, schema=HALK_SCHEMA
        )

    return walks_ds.map_batches(rebuild, batch_format="pyarrow")


def ngram_post(walks_ds: ray.data.Dataset, spec: WalkerSpec) -> ray.data.Dataset:
    """NGram two-phase deterministic id assignment (SURVEY.md W4),
    fully distributed (VERDICT r4 item 3 — no driver-resident id map):

    1. distinct n-gram keys → ``shuffle.dense_ids`` — closed-form
       hash-range ranking, ids = 0-based rank by ``(md5(key), key)``,
       bit-reproducible in SQL and independent of partitioning;
    2. walk variants explode to one row per n-gram SLOT (each carrying
       the full variant, so no skeleton stream), key-bucket join against
       the id table, regroup by entity to substitute and re-set.

    The reference's ids are mp-worker encounter-order dependent
    (ngram.py:79-81) — equivalence is a consistent bijection; the
    ``walks_ngram`` oracle pins this one with
    ``dense_rank() OVER (ORDER BY md5(k), k) - 1``.  Distinct n-grams of
    a 100-TB corpus are unbounded, so the id map is never collected."""
    import pandas as pd

    from pyrdf2vec_ray import shuffle
    from pyrdf2vec_ray.ops.join import hash_join

    grams, wildcards = spec.grams, spec.wildcards
    SEP = "\x1f"
    walks_ds = walks_ds.materialize()   # consumed twice (keys + rewrite)

    def walk_and_variants(walk: list[str]):
        yield walk
        if wildcards:
            yield from canon.wildcard_variants(walk, list(wildcards))

    def partial_keys(batch: pa.Table) -> pa.Table:
        keys = set()
        for walks in batch["walks"].to_pylist():
            for walk in walks:
                for w in walk_and_variants(walk):
                    keys.update(SEP.join(k) for k in canon.ngram_keys(w, grams))
        return pa.table({"key": pa.array(sorted(keys), pa.string())})

    ids_ds = shuffle.dense_ids(
        walks_ds.map_batches(partial_keys, batch_format="pyarrow"), "key"
    )

    def hole_rows(batch: pa.Table) -> pa.Table:
        """One row per (variant, n-gram slot); slotless variants (short
        walks the n-gram window never covers) get a slot=-1 sentinel row
        so they survive the left join unchanged."""
        ents, vjs, slots, keys = [], [], [], []
        for entity, walks in zip(
            batch["entity"].to_pylist(), batch["walks"].to_pylist()
        ):
            seen: set = set()   # entities are row-unique: dedup in-row
            for walk in walks:
                for w in walk_and_variants(walk):
                    vj = SEP.join(w)
                    if vj in seen:
                        continue
                    seen.add(vj)
                    n_slots = 0
                    for i in range(len(w)):
                        if i == 0 or i % 2 == 1 or i < grams:
                            continue
                        ents.append(entity)
                        vjs.append(vj)
                        slots.append(i)
                        keys.append(SEP.join(w[max(0, i - (grams - 1)): i + 1]))
                        n_slots += 1
                    if n_slots == 0:
                        ents.append(entity)
                        vjs.append(vj)
                        slots.append(-1)
                        keys.append("")
        return pa.table({
            "entity": pa.array(ents, pa.string()),
            "vj": pa.array(vjs, pa.string()),
            "slot": pa.array(slots, pa.int64()),
            "key": pa.array(keys, pa.string()),
        })

    holes = walks_ds.map_batches(hole_rows, batch_format="pyarrow")
    joined = hash_join(
        holes, ids_ds, on=["key"], how="left",
        lschema={"entity": "object", "vj": "object", "slot": "int64",
                 "key": "object"},
        rschema={"key": "object", "vid": "int64"},
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out_e, out_w = [], []
        for entity, sub in g.groupby("entity", sort=False):
            walks_set: set = set()
            for vj, sub2 in sub.groupby("vj", sort=False):
                toks = vj.split(SEP)
                for slot, vid in zip(
                    sub2["slot"].to_numpy(), sub2["vid"].to_numpy()
                ):
                    if slot >= 0:
                        toks[slot] = str(int(vid))
                walks_set.add(tuple(toks))
            out_e.append(entity)
            out_w.append([list(t) for t in sorted(walks_set)])
        return pd.DataFrame({"entity": out_e, "walks": out_w})

    out = shuffle.bucket_apply(
        joined, ["entity"], per_bucket, batch_format="pandas"
    )

    def to_schema(batch: pd.DataFrame) -> pa.Table:
        return pa.Table.from_pydict(
            {"entity": batch["entity"].tolist(),
             "walks": batch["walks"].tolist()}, schema=WALKS_SCHEMA
        )

    return out.map_batches(to_schema, batch_format="pandas")


def explode_walks(walks_ds: ray.data.Dataset) -> ray.data.Dataset:
    """(entity, walks) → (entity, walk) corpus rows — zero-copy Arrow
    list kernels (list_parent_indices + flatten), no Python row loop."""
    import pyarrow.compute as pc

    def explode(batch: pa.Table) -> pa.Table:
        walks = batch["walks"].combine_chunks()
        parent = pc.list_parent_indices(walks)
        return pa.table(
            {"entity": pc.take(batch["entity"].combine_chunks(), parent),
             "walk": pc.list_flatten(walks)}
        )

    return walks_ds.map_batches(explode, batch_format="pyarrow")
