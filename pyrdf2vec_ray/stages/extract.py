"""Triple-mention extraction over interleaved spans (stateless map_batches).

Replaces the reference's rdflib file parse (graphs/kg.py:142-164): instead
of streaming an RDF file, mentions are parsed out of the text spans of the
`documents` table.  Batch in, batch out, Arrow-native: the spans column is
flattened with ``pyarrow`` list kernels (zero-copy), only text spans are
scanned, and the mention pattern is a compiled regex applied per span.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from pyrdf2vec_ray.schemas import MENTIONS

# "<Alice> knows <BOB> ." → (subject surface, predicate surface, object surface)
MENTION_RE = re.compile(r"<([^<>]+)>\s+(\w+)\s+<([^<>]+)>")


class MentionExtractor:
    """Mention scanner.  Stateless in practice (the compiled pattern is
    cheap), so the pipeline runs it as plain map_batches TASKS on
    pre-started Ray workers — an actor pool here would only add pool
    spin-up latency.  The class form remains for heavier patterns."""

    def __init__(self, pattern: str | None = None):
        self.pattern = re.compile(pattern) if pattern else MENTION_RE

    def __call__(self, batch: pa.Table) -> pa.Table:
        spans = batch["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        flat = spans.flatten()                      # struct array, zero-copy
        parent = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
        kinds = flat.field("kind")
        texts = flat.field("text")
        is_text = pc.equal(kinds, "text").to_numpy(zero_copy_only=False)

        doc_ids = np.asarray(batch["doc_id"].to_numpy(zero_copy_only=False))
        text_strs = texts.to_numpy(zero_copy_only=False)
        # span_idx is the span's position WITHIN its document (offsets
        # subtract out the batch-flat position), so the mentions table is
        # independent of batch boundaries
        offsets = spans.offsets.to_numpy(zero_copy_only=False)

        out_doc, out_span, out_s, out_p, out_o = [], [], [], [], []
        pat = self.pattern
        for i in np.flatnonzero(is_text):
            for (s, p, o) in pat.findall(text_strs[i]):
                out_doc.append(doc_ids[parent[i]])
                out_span.append(int(i - offsets[parent[i]]))
                out_s.append(s)
                out_p.append(p)
                out_o.append(o)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out_doc, pa.string()),
                "span_idx": pa.array(out_span, pa.int32()),
                "surface_subj": pa.array(out_s, pa.string()),
                "surface_pred": pa.array(out_p, pa.string()),
                "surface_obj": pa.array(out_o, pa.string()),
            },
            schema=MENTIONS,
        )
