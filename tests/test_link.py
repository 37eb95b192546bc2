"""Entity linking: the Arrow-kernel ``EntityLinker`` against the per-row
loop it replaced, and the per-worker linker cache of ``link_mentions``."""

import itertools

import numpy as np
import pyarrow as pa
import pytest

from pyrdf2vec_ray.pipelines import construct
from pyrdf2vec_ray.schemas import IRI_PREFIX, LINKED
from pyrdf2vec_ray.stages.link import (
    CandidateIndex,
    EntityLinker,
    normalize_surface,
)

# surfaces whose key Arrow's lower/trim would get wrong (casefold and
# str.strip differ from them outside printable ASCII), next to plain ones
SURFACES = ["Straße", "ÉCOLE", "İ", "a\x1cb", "\tX ", "  a_b  ", "",
            "alice", "Alice", "Nobody", "bob_smith"]

CANDIDATES = {
    "strasse": IRI_PREFIX + "Strasse",
    "école": IRI_PREFIX + "ÉCOLE",            # exact hit
    normalize_surface("İ"): IRI_PREFIX + "I_dot",
    "a\x1cb": IRI_PREFIX + "a\x1cb",          # exact hit
    "x": IRI_PREFIX + "X",
    "a b": IRI_PREFIX + "AB",
    "alice": IRI_PREFIX + "alice",            # exact for "alice", not "Alice"
    "bob smith": IRI_PREFIX + "Bob",
}

SKIP = frozenset({IRI_PREFIX + "skipme"})


def loop_link(cands: dict, skip: frozenset, min_score: float,
              batch: pa.Table) -> pa.Table:
    """The per-row linker, kept as the oracle of the Arrow one."""
    def link(surface):
        iri = cands.get(normalize_surface(surface))
        if iri is None:
            return IRI_PREFIX + surface, 0.1
        return iri, 1.0 if iri == IRI_PREFIX + surface else 0.9

    subj_s = batch["surface_subj"].to_pylist()
    pred_s = batch["surface_pred"].to_pylist()
    obj_s = batch["surface_obj"].to_pylist()
    doc_ids = batch["doc_id"].to_pylist()
    subj, pred, obj, score, keep_doc = [], [], [], [], []
    for i in range(len(subj_s)):
        p_iri = IRI_PREFIX + pred_s[i]
        if p_iri in skip:
            continue
        s_iri, s_sc = link(subj_s[i])
        o_iri, o_sc = link(obj_s[i])
        sc = min(s_sc, o_sc)
        if sc < min_score:
            continue
        keep_doc.append(doc_ids[i])
        subj.append(s_iri)
        pred.append(p_iri)
        obj.append(o_iri)
        score.append(sc)
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(keep_doc, pa.string()),
            "subj": pa.array(subj, pa.string()),
            "pred": pa.array(pred, pa.string()),
            "obj": pa.array(obj, pa.string()),
            "score": pa.array(np.asarray(score, dtype=np.float32)),
        },
        schema=LINKED,
    )


def mentions() -> pa.Table:
    """Every (subj, obj) pair of SURFACES, the predicate alternating
    between a kept and a skipped one, in two chunks."""
    pairs = list(itertools.product(SURFACES, SURFACES))
    t = pa.table({
        "doc_id": [f"d{i}" for i in range(len(pairs))],
        "span_idx": pa.array(range(len(pairs)), pa.int32()),
        "surface_subj": [s for s, _ in pairs],
        "surface_pred": ["knows" if i % 2 else "skipme"
                         for i in range(len(pairs))],
        "surface_obj": [o for _, o in pairs],
    })
    half = t.num_rows // 2
    return pa.concat_tables([t.slice(0, half), t.slice(half)])


@pytest.mark.parametrize("skip", [frozenset(), SKIP])
@pytest.mark.parametrize("min_score", [0.0, 0.5, 0.95])
def test_linker_equals_row_loop(skip, min_score):
    batch = mentions()
    assert batch["surface_subj"].num_chunks == 2
    got = EntityLinker(CandidateIndex.build(CANDIDATES, num_shards=3),
                       skip, min_score)(batch)
    want = loop_link(CANDIDATES, skip, min_score, batch)
    assert got.equals(want)
    # the fixture reaches every score: exact, normalized and missed
    assert set(loop_link(CANDIDATES, frozenset(), 0.0, batch)[
        "score"].to_pylist()) == {np.float32(s) for s in (0.1, 0.9, 1.0)}


def test_linker_empty_batch():
    batch = mentions().slice(0, 0)
    got = EntityLinker(CandidateIndex.build(CANDIDATES))(batch)
    assert got.equals(loop_link(CANDIDATES, frozenset(), 0.0, batch))


class _Capture:
    """Stands in for the mentions Dataset: keeps the link UDF."""

    def map_batches(self, fn, **kwargs):
        self.fn = fn
        return self


def test_link_mentions_keeps_one_linker_per_worker(monkeypatch):
    """A worker keeps the linker of its latest ``link_mentions`` only,
    and a linker is reused only under the same index and filters."""
    monkeypatch.setattr(construct, "_LINKER_CACHE", {})
    batch = mentions()
    idx_a = CandidateIndex.build(CANDIDATES)
    idx_b = CandidateIndex.build({"alice": IRI_PREFIX + "A"})
    for idx, skip in [(idx_a, frozenset()), (idx_b, frozenset()),
                      (idx_a, SKIP)]:
        udf = construct.link_mentions(_Capture(), idx, skip).fn
        got = udf(batch)
        assert len(construct._LINKER_CACHE) == 1
        assert got.equals(loop_link(idx.load(), skip, 0.0, batch))
        assert udf(batch).equals(got)
