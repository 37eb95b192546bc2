"""Entity linking + canonicalization (stateful actor-pool stage).

No reference analog (pyRDF2Vec receives IRIs directly); required by the
north_rule construction stage (SURVEY.md §2.3 G7).  The candidate index
(normalized surface key → canonical IRI) is hash-sharded and placed in
the object store ONCE (``ray.put`` per shard); every linker actor reads
the shards in ``__init__`` — a broadcast lookup join, never a shuffle.
At cluster scale the shards live on separate index actors and batches
are routed by key hash; on one node every linker holds all shards.
"""

from __future__ import annotations

import zlib

import pyarrow as pa
import pyarrow.compute as pc

import ray

from pyrdf2vec_ray.schemas import IRI_PREFIX, LINKED


def normalize_surface(s: str) -> str:
    """Canonicalization key: casefold + collapse separators."""
    return s.casefold().replace("_", " ").strip()


class CandidateIndex:
    """Hash-sharded candidate dictionary broadcast via the object store."""

    def __init__(self, shard_refs: list, num_shards: int):
        self.shard_refs = shard_refs
        self.num_shards = num_shards

    @staticmethod
    def shard_of(key: str, num_shards: int) -> int:
        """Stable shard routing: crc32, NOT builtin hash() — Python string
        hashing is PYTHONHASHSEED-salted per process, so hash()-based
        routing would send lookups from a different process to the wrong
        shard actor."""
        return zlib.crc32(key.encode()) % num_shards

    @staticmethod
    def build(candidates: dict[str, str], num_shards: int = 8) -> "CandidateIndex":
        """candidates: normalized surface key → canonical IRI."""
        shards: list[dict[str, str]] = [{} for _ in range(num_shards)]
        for key, iri in candidates.items():
            shards[CandidateIndex.shard_of(key, num_shards)][key] = iri
        return CandidateIndex([ray.put(s) for s in shards], num_shards)

    def load(self) -> dict[str, str]:
        merged: dict[str, str] = {}
        for ref in self.shard_refs:
            merged.update(ray.get(ref))
        return merged


class EntityLinker:
    """map_batches(EntityLinker, concurrency=N, batch_format="pyarrow",
    fn_constructor_kwargs={"index": idx, ...}).

    Scoring: exact surface match on the canonical key → 1.0; normalized
    (case/sep-folded) match → 0.9; unlinkable surfaces fall back to
    ``IRI_PREFIX + surface`` with score 0.1 (kept so downstream recall
    is a filter choice, not silent data loss).
    Predicates are trusted vocabulary: canonicalized as IRI_PREFIX+surface.
    ``skip_predicates`` filtering (reference kg.py:209) happens here.
    A batch is linked with Arrow kernels, no per-row Python.
    """

    def __init__(
        self,
        index: CandidateIndex,
        skip_predicates: frozenset[str] = frozenset(),
        min_score: float = 0.0,
    ):
        cands = index.load()               # once per actor
        self.keys = pa.array(list(cands), pa.string())
        self.iris = pa.array(list(cands.values()), pa.string())
        self.skip = pa.array(sorted(skip_predicates), pa.string())
        self.min_score = min_score

    def _link(self, surfaces: pa.Array) -> tuple[pa.Array, pa.Array]:
        """(IRI, score) of every surface."""
        idx = pc.index_in(surface_keys(surfaces), value_set=self.keys)
        own = pc.binary_join_element_wise(IRI_PREFIX, surfaces, "")
        iri = pc.coalesce(self.iris.take(idx), own)
        score = pc.if_else(pc.is_null(idx), 0.1,
                           pc.if_else(pc.equal(iri, own), 1.0, 0.9))
        return iri, score

    def __call__(self, batch: pa.Table) -> pa.Table:
        pred = pc.binary_join_element_wise(
            IRI_PREFIX, batch["surface_pred"], "")
        keep = pc.invert(pc.is_in(pred, value_set=self.skip))
        batch, pred = batch.filter(keep), pred.filter(keep)
        n = batch.num_rows
        subj_s, obj_s = batch["surface_subj"], batch["surface_obj"]
        iri, score = self._link(pa.chunked_array(
            subj_s.chunks + obj_s.chunks, subj_s.type).combine_chunks())
        sc = pc.min_element_wise(score[:n], score[n:])
        out = pa.table(
            {
                "doc_id": batch["doc_id"],
                "subj": iri[:n],
                "pred": pred,
                "obj": iri[n:],
                "score": sc,
            }
        ).filter(pc.greater_equal(sc, self.min_score))
        return out.cast(LINKED)


_PRINTABLE_ASCII = r"^[\x20-\x7e]*$"


def surface_keys(surfaces: pa.Array) -> pa.Array:
    """``normalize_surface`` of every surface.  On printable ASCII
    (0x20–0x7E) casefold is lower and ``str.strip`` removes only spaces,
    so Arrow kernels give the key; any other surface goes through
    ``normalize_surface`` itself."""
    keys = pc.utf8_trim(
        pc.replace_substring(pc.utf8_lower(surfaces), "_", " "), " ")
    other = pc.invert(pc.match_substring_regex(surfaces, _PRINTABLE_ASCII))
    if pc.any(other).as_py():
        slow = [normalize_surface(s)
                for s in surfaces.filter(other).to_pylist()]
        keys = pc.replace_with_mask(keys, other, pa.array(slow, keys.type))
    return keys
