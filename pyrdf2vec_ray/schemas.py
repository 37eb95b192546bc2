"""Arrow schemas for every logical table in the engine (SURVEY.md §1.3).

The reference (pyrdf2vec/typings.py:1-19) has no schema system — just
type aliases over Python objects.  Here every stage boundary is a typed
Arrow table so blocks move zero-copy through the object store.
"""

import pyarrow as pa

# ---- construction inputs (BASELINE.json input_hint) ------------------------

SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),       # "text" | "image" | "audio" | ...
        ("text", pa.string()),       # non-empty iff kind == "text"
        ("media_ref", pa.string()),  # "" for text spans
        ("offset", pa.int32()),      # monotonically increasing within a doc
    ]
)

DOCUMENTS = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(SPAN_STRUCT)),
    ]
)

# ---- construction intermediates -------------------------------------------

MENTIONS = pa.schema(
    [
        ("doc_id", pa.string()),
        ("span_idx", pa.int32()),
        ("surface_subj", pa.string()),
        ("surface_pred", pa.string()),
        ("surface_obj", pa.string()),
    ]
)

# one row per (mention, linked candidate); `score` from the linker
LINKED = pa.schema(
    [
        ("doc_id", pa.string()),
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("score", pa.float32()),
    ]
)

# ---- the KG edge list (≡ the stream fed to KG.add_walk, kg.py:152-164) ----

TRIPLES = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
    ]
)

# ---- walks (≡ EntityWalks, typings.py:13) ---------------------------------

WALKS = pa.schema(
    [
        ("entity", pa.string()),
        ("walk", pa.list_(pa.string())),
    ]
)

# ---- fitted sampler state (SURVEY.md §2.4) --------------------------------

VERTEX_STATS = pa.schema(
    [
        ("name", pa.string()),
        ("in_deg", pa.int64()),
        ("out_deg", pa.int64()),
        ("pred_count", pa.int64()),
        ("pagerank", pa.float64()),
        ("community", pa.int32()),
    ]
)

# ---- literals (kg.py:399-426: [] → NaN, float-or-str, tuples) -------------

LITERALS = pa.schema(
    [
        ("entity", pa.string()),
        ("values", pa.list_(pa.list_(pa.string()))),
    ]
)

# ---- embeddings -----------------------------------------------------------

EMBEDDINGS = pa.schema(
    [
        ("entity", pa.string()),
        ("vector", pa.list_(pa.float32())),
    ]
)

IRI_PREFIX = "http://pyRDF2Vec#"
