"""Per-partition checkpoint manifest + resumable partitioned writes.

north_rule: "every partition records lineage and per-stage metrics to a
checkpoint manifest so a killed run resumes mid-pipeline without
recomputing completed fragments."

Layout (ray_guide.md "Sources & sinks"): one output directory per
partition, written to a temp dir then atomically renamed; a
``manifest.jsonl`` in the run root records (partition, input
fingerprint, rows, seconds, stage metrics) per completed partition.  On
resume, partitions whose manifest entry matches the current input
fingerprint are skipped; stale or missing ones are (re)built.  The
reference has nothing comparable — its only persistence is a whole-
transformer pickle (rdf2vec.py:238-246).
"""

from __future__ import annotations

import json
import os
import shutil
import time
from collections.abc import Callable
from dataclasses import dataclass


@dataclass
class PartitionResult:
    partition: str
    rows: int
    seconds: float
    skipped: bool


class CheckpointManifest:
    def __init__(self, root: str):
        self.root = root
        self.path = os.path.join(root, "manifest.jsonl")
        os.makedirs(root, exist_ok=True)
        self._entries: dict[str, dict] = {}
        if os.path.exists(self.path):
            with open(self.path) as f:
                for line in f:
                    line = line.strip()
                    if line:
                        e = json.loads(line)
                        self._entries[e["partition"]] = e

    def is_complete(self, partition: str, fingerprint: str) -> bool:
        e = self._entries.get(partition)
        return (
            e is not None
            and e.get("fingerprint") == fingerprint
            and os.path.isdir(os.path.join(self.root, partition))
        )

    def record(self, partition: str, fingerprint: str, rows: int,
               seconds: float, metrics: dict | None = None) -> None:
        e = {
            "partition": partition,
            "fingerprint": fingerprint,
            "rows": rows,
            "seconds": round(seconds, 3),
            "metrics": metrics or {},
        }
        self._entries[partition] = e
        with open(self.path, "a") as f:
            f.write(json.dumps(e) + "\n")

    @property
    def entries(self) -> dict[str, dict]:
        return dict(self._entries)


def run_partitioned(
    root: str,
    partitions: list[tuple[str, str]],
    build: Callable[[str], "object"],
    min_rows_per_file: int = 200_000,
) -> list[PartitionResult]:
    """Execute `build(partition_id) -> ray.data.Dataset` for every
    (partition_id, input_fingerprint) not already recorded complete;
    write each to `<root>/<partition_id>/` atomically (tmp + rename).

    A killed run leaves at most one partial tmp dir (ignored on resume);
    completed partitions are never recomputed.
    """
    manifest = CheckpointManifest(root)
    results: list[PartitionResult] = []
    for partition, fingerprint in partitions:
        if manifest.is_complete(partition, fingerprint):
            results.append(PartitionResult(partition, manifest.entries[partition]["rows"], 0.0, True))
            continue
        final_dir = os.path.join(root, partition)
        tmp_dir = os.path.join(root, f"_tmp_{partition}")
        for d in (final_dir, tmp_dir):
            if os.path.isdir(d):
                shutil.rmtree(d)
        tic = time.perf_counter()
        ds = build(partition)
        ds.write_parquet(tmp_dir, min_rows_per_file=min_rows_per_file)
        rows = _count_parquet_rows(tmp_dir)
        os.replace(tmp_dir, final_dir)
        secs = time.perf_counter() - tic
        manifest.record(partition, fingerprint, rows, secs)
        results.append(PartitionResult(partition, rows, secs, False))
    return results


def _count_parquet_rows(d: str) -> int:
    import pyarrow.parquet as pq

    total = 0
    for name in os.listdir(d):
        if name.endswith(".parquet"):
            total += pq.ParquetFile(os.path.join(d, name)).metadata.num_rows
    return total


def read_run(root: str):
    """Read all completed partitions back as one Dataset."""
    import ray.data

    manifest = CheckpointManifest(root)
    files = []
    for p in manifest.entries:
        d = os.path.join(root, p)
        if os.path.isdir(d):
            files.extend(
                os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
            )
    return ray.data.read_parquet(sorted(files))


def extract_walks_checkpointed(
    root: str,
    gi,
    entities: list[str],
    spec,
    n_partitions: int = 8,
) -> list[PartitionResult]:
    """Checkpointed walk extraction: entity-range partitions, each written
    to its own parquet dir + manifest entry, so a killed extraction resumes
    at the first incomplete range.  ``gi`` is a ``ShardedGraphIndex``.
    The fingerprint covers the ACTUAL inputs — a content hash of the
    entity slice, the graph's content fingerprint
    (``ShardedGraphIndex.fingerprint``), and the walker spec — so
    resuming into the same root after the entity list or KG changed
    rebuilds instead of silently reusing stale partitions.  Read back with `read_run(root)`."""
    import hashlib

    from pyrdf2vec_ray.walkers import explode_walks, extract_walks

    gfp = gi.fingerprint()
    step = (len(entities) + n_partitions - 1) // n_partitions
    parts = []
    for i in range(n_partitions):
        lo, hi = i * step, min((i + 1) * step, len(entities))
        if lo >= hi:
            continue
        ents_h = hashlib.md5("\x00".join(entities[lo:hi]).encode()).hexdigest()[:16]
        parts.append((f"ents-{i:05d}", f"[{lo}:{hi}){ents_h}|{gfp}|{spec}"))

    def build(partition: str):
        i = int(partition.split("-")[1])
        lo, hi = i * step, min((i + 1) * step, len(entities))
        return explode_walks(extract_walks(gi, entities[lo:hi], spec))

    return run_partitioned(root, parts, build)


def construct_kg_checkpointed(
    root: str,
    n_docs: int,
    candidates: dict[str, str],
    n_partitions: int = 8,
    seed: int = 42,
    n_entities: int = 50,
) -> list[PartitionResult]:
    """Checkpointed variant of the construction pipeline over the synth
    corpus: doc-range partitions, each extracted/linked/deduped locally
    (per-partition dedup; the global dedup happens when reading the run
    with `read_run(...).groupby(subj,pred,obj)`, or is a no-op when
    partitions are disjoint doc ranges and downstream tolerates dups)."""
    import hashlib

    from pyrdf2vec_ray import synth
    from pyrdf2vec_ray.pipelines.construct import construct_kg

    # the candidate dictionary is an input too: a changed candidate set
    # must invalidate completed partitions
    cand_h = hashlib.md5(
        "\x00".join(f"{k}\x01{v}" for k, v in sorted(candidates.items())).encode()
    ).hexdigest()[:16]
    step = (n_docs + n_partitions - 1) // n_partitions
    parts = []
    for i in range(n_partitions):
        lo, hi = i * step, min((i + 1) * step, n_docs)
        parts.append(
            (f"part-{i:05d}",
             f"docs[{lo}:{hi})seed={seed}ent={n_entities}cand={cand_h}")
        )

    def build(partition: str):
        i = int(partition.split("-")[1])
        lo, hi = i * step, min((i + 1) * step, n_docs)
        import ray.data

        import pyarrow as pa

        def gen(batch):
            idx = batch["id"] + lo
            return synth.make_documents_batch(idx, seed=seed, n_entities=n_entities)

        docs = ray.data.range(hi - lo).map_batches(gen, batch_format="numpy")
        return construct_kg(docs, candidates)

    return run_partitioned(root, parts, build)
