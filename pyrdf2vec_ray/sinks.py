"""Table sinks (reference K1/K2: whole-model pickle + in-memory
embedding list, rdf2vec.py:238-246 / word2vec.py:60-77).

The model pickle is the transformer's own (pipelines/rdf2vec.py
save/load).  Embeddings are written by the embedders' per-shard
``write_parquet`` (`embedders`); `write_table` writes any Dataset in one
of the supported formats.
"""

from __future__ import annotations

import ray.data


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
