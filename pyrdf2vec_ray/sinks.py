"""Artifact sinks (reference K1/K2: whole-model pickle + in-memory
embedding list, rdf2vec.py:238-246 / word2vec.py:60-77).

Here artifacts are partitioned parquet tables + a json manifest — a
resumable, inspectable layout instead of one opaque pickle.  The
transformer pickle path still exists (pipelines/rdf2vec.py save/load)
for API parity.  Embeddings are written by the distributed embedders'
per-shard ``write_parquet`` (`embedders_dist`).
"""

from __future__ import annotations

import json
import os

import ray.data


def write_artifacts(
    out_dir: str,
    walks_ds: ray.data.Dataset | None = None,
    triples_ds: ray.data.Dataset | None = None,
    stats_ds: ray.data.Dataset | None = None,
    meta: dict | None = None,
) -> None:
    """Partitioned parquet per table + manifest.json describing what was
    written (row counts land in the manifest so a reader can sanity-check
    completeness without scanning)."""
    os.makedirs(out_dir, exist_ok=True)
    manifest: dict = {"tables": {}, "meta": meta or {}}
    for name, ds in (
        ("walks", walks_ds), ("triples", triples_ds), ("vertex_stats", stats_ds)
    ):
        if ds is None:
            continue
        path = os.path.join(out_dir, name)
        ds.write_parquet(path)
        manifest["tables"][name] = {"path": name, "rows": ds.count()}
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2)


def read_artifact(out_dir: str, name: str) -> ray.data.Dataset:
    with open(os.path.join(out_dir, "manifest.json")) as f:
        manifest = json.load(f)
    rel = manifest["tables"][name]["path"]
    return ray.data.read_parquet(os.path.join(out_dir, rel))


def write_table(ds: ray.data.Dataset, path: str, fmt: str = "parquet") -> None:
    """Format-dispatching sink (SURVEY §1.3 names Lance AND parquet).
    ``fmt="lance"`` uses Ray's Lance writer when the ``lance`` package
    is importable; this container does not ship it, so the Lance branch
    is import-gated with a clear error rather than stubbed silently."""
    if fmt == "parquet":
        ds.write_parquet(path)
        return
    if fmt == "lance":
        try:
            import lance  # noqa: F401
        except ImportError as e:
            raise ImportError(
                "Lance output needs the 'lance' package (not installed in "
                "this environment); use fmt='parquet' or install pylance"
            ) from e
        ds.write_lance(path)
        return
    if fmt == "jsonl":
        # the LLM-corpus interchange format: one JSON object per line,
        # one file per block (Ray's write_json emits *.json files of
        # newline-delimited objects — pandas/ray/duckdb all read them
        # back); columns must be JSON-representable (no raw binary)
        ds.write_json(path)
        return
    if fmt == "csv":
        ds.write_csv(path)
        return
    raise ValueError(
        f"unknown sink format {fmt!r} (parquet|lance|jsonl|csv)")
