"""The benchmark's workloads: seeded inputs with their oracles, one pipeline
run through the library's public API (plain or traced), and the checks on
every output of a run.

Inputs and oracles are generated by running this file, in a process of its
own, so that their cost and whatever they leave behind in memory stay out
of every metric.  They are cached on disk under
``<work>/inputs/<workload>-<scale>-s<seed>-<source hash>``:

    python3 perfbench/workloads.py <work> <workload> <scale> <seed>
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

NUM_SHARDS = 4        # ShardedGraphIndex shards and keep-set shards
VECTOR_SIZE = 32
WL_ITERATIONS = 2

# input sizes per workload; "tiny" is the warm-up pass and the smoke test
SIZES = {
    "docs-heavy": {
        "full": {"docs": 80_000, "entities": 40_000, "roots": 256},
        "tiny": {"docs": 400, "entities": 200, "roots": 16},
    },
    "walk-heavy": {
        "full": {"docs": 2_000, "entities": 400},
        "tiny": {"docs": 200, "entities": 60},
    },
    # the table sizes of the sf0.01 TPC-H tables (see README.md)
    "kg-query": {
        "full": {"customers": 1_500, "suppliers": 100, "orders": 15_000,
                 "parts": 2_000, "lines": 60_000},
        "tiny": {"customers": 30, "suppliers": 5, "orders": 200,
                 "parts": 40, "lines": 500},
    },
}

# walk and training settings of the two pipeline workloads
WALKS = {
    "docs-heavy": {"depth": 2, "max_walks": None, "sampler": "uniform",
                   "epochs": 1},
    "walk-heavy": {"depth": 4, "max_walks": 20, "sampler": "pagerank",
                   "epochs": 3},
}

# bench.py's six-pattern star+chain+cycle BGP; the region comes from the seed
def bgp_patterns(region: int) -> list[tuple[str, str, str]]:
    return [
        ("?o", "placed_by", "?c"),
        ("?c", "in_nation", "?n"),
        ("?n", "in_region", f"region:{region}"),
        ("?o", "contains", "?p"),
        ("?p", "supplied_by", "?s"),
        ("?s", "in_nation", "?n"),
    ]


class CheckFailed(Exception):
    """An output of a run differs from its oracle."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---- inputs -----------------------------------------------------------------

@dataclass
class Inputs:
    workload: str
    dir: str
    meta: dict
    rows: int                      # input rows: docs, or source triples
    candidates: dict = field(default_factory=dict)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)


def _candidates(n_entities: int) -> dict[str, str]:
    from pyrdf2vec_ray import synth

    return {synth.entity_name(i).casefold(): synth.entity_iri(i)
            for i in range(n_entities)}


def _docs_tables(n_docs: int, n_entities: int, seed: int):
    """Interleaved text+media documents in the shape of
    ``synth.synth_documents`` (1-3 ``<Subj> pred <Obj> .`` text spans per
    doc with case-varied surfaces, a media span after 30% of them, subjects
    skewed toward low entity ids), drawn with vectorized numpy so a corpus
    of tens of thousands of docs takes well under a second.  Returns
    (documents, the closed-form distinct triples they mention)."""
    from pyrdf2vec_ray import synth
    from pyrdf2vec_ray.schemas import DOCUMENTS, IRI_PREFIX, SPAN_STRUCT, TRIPLES

    rng = np.random.RandomState(seed)
    k = rng.randint(1, 4, size=n_docs)                 # mentions per doc
    m = int(k.sum())
    doc = np.repeat(np.arange(n_docs), k)
    subj = (n_entities * rng.random_sample(m) ** 2).astype(np.int64)
    pred = rng.randint(0, len(synth.PREDICATES), size=m)
    obj = rng.randint(0, n_entities, size=m)
    obj = np.where(obj == subj, (obj + 1) % n_entities, obj)
    variant = rng.randint(0, 3, size=(2, m))
    media = rng.random_sample(m) < 0.3
    kind = np.asarray(synth.MEDIA_KINDS, dtype=object)[
        rng.randint(0, len(synth.MEDIA_KINDS), size=m)]

    names = [synth.entity_name(i) for i in range(n_entities)]
    surfaces = np.array([names, [n.lower() for n in names],
                         [n.upper() for n in names]], dtype=object)
    preds = np.asarray(synth.PREDICATES, dtype=object)
    text = ("<" + surfaces[variant[0], subj] + "> " + preds[pred] + " <"
            + surfaces[variant[1], obj] + "> .")
    text_len = np.fromiter(map(len, text), dtype=np.int64, count=m)

    # offsets restart at every doc: text span, then its media span if any
    step = text_len + 1 + media
    first = np.concatenate([[0], np.cumsum(k)[:-1]])
    before = np.cumsum(step) - step
    text_off = before - before[first][doc]
    media_off = text_off + text_len + 1

    # span rows in document order: each mention's text span, then its media
    n_spans = m + int(media.sum())
    text_pos = np.arange(m) + np.cumsum(media) - media
    media_pos = text_pos[media] + 1
    kinds = np.empty(n_spans, dtype=object)
    texts = np.empty(n_spans, dtype=object)
    refs = np.empty(n_spans, dtype=object)
    offs = np.empty(n_spans, dtype=np.int32)
    kinds[text_pos], texts[text_pos], refs[text_pos] = "text", text, ""
    offs[text_pos] = text_off
    kinds[media_pos], texts[media_pos] = kind[media], ""
    refs[media_pos] = [f"media://{kd}/{d}/{o}" for kd, d, o in
                       zip(kind[media], doc[media], media_off[media])]
    offs[media_pos] = media_off[media]
    spans = pa.StructArray.from_arrays(
        [pa.array(kinds, pa.string()), pa.array(texts, pa.string()),
         pa.array(refs, pa.string()), pa.array(offs, pa.int32())],
        fields=list(SPAN_STRUCT),
    )
    per_doc = np.bincount(doc, weights=1 + media, minlength=n_docs)
    list_off = np.concatenate([[0], np.cumsum(per_doc)]).astype(np.int32)
    doc_ids = [f"doc-{i:08d}" for i in range(n_docs)]
    docs = pa.Table.from_arrays(
        [pa.array(doc_ids, pa.string()),
         pa.ListArray.from_arrays(pa.array(list_off), spans)],
        schema=DOCUMENTS,
    )

    spo = np.unique(np.stack([subj, pred, obj], axis=1), axis=0)
    iris = np.asarray([synth.entity_iri(i) for i in range(n_entities)],
                      dtype=object)
    expected = pa.Table.from_arrays(
        [pa.array(iris[spo[:, 0]], pa.string()),
         pa.array(IRI_PREFIX + preds[spo[:, 1]], pa.string()),
         pa.array(iris[spo[:, 2]], pa.string())],
        schema=TRIPLES,
    )
    return docs, sort_triples(expected)


def sort_triples(t: pa.Table) -> pa.Table:
    return t.select(["subj", "pred", "obj"]).sort_by(
        [("subj", "ascending"), ("pred", "ascending"), ("obj", "ascending")])


def _gen_pipeline(workload: str, size: dict, seed: int, out: str) -> dict:
    docs, expected = _docs_tables(size["docs"], size["entities"], seed)
    os.makedirs(f"{out}/docs")
    n_files = 4
    step = -(-docs.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(docs.slice(i * step, step), f"{out}/docs/part-{i}.parquet")
    pq.write_table(expected, f"{out}/expected.parquet")
    subjects = pc.unique(expected["subj"]).sort()
    if "roots" in size:   # a listed, seeded sample of subjects
        pick = np.random.RandomState(seed + 1).choice(
            len(subjects), size=min(size["roots"], len(subjects)),
            replace=False)
        subjects = subjects.take(pa.array(np.sort(pick)))
    pq.write_table(pa.table({"entity": subjects}), f"{out}/roots.parquet")
    return {"docs": docs.num_rows, "entities": size["entities"],
            "triples": expected.num_rows, "roots": len(subjects)}


def _gen_kg_query(size: dict, seed: int, out: str) -> dict:
    """The key columns ``tpch_triples`` reads, drawn the way the sf0.01
    TPC-H tables draw them: 0-based keys, nation n in region n mod 5, and
    every foreign key uniform over its table (so a line item's supplier is
    independent of its part).  Also the triple count, the BGP row count
    from a DuckDB self-join and the broadcast ``wl_labels`` count, all over
    the same triples."""
    import duckdb

    from pyrdf2vec_ray.sources.tpch_kg import TRIPLES_CTE
    from pyrdf2vec_ray.stages.wl import wl_labels
    from pyrdf2vec_ray.state.graph_index import GraphIndex

    rng = np.random.RandomState(seed)
    n_c, n_s, n_o, n_p, n_l = (size[k] for k in
                               ("customers", "suppliers", "orders", "parts",
                                "lines"))
    key = lambda a: a.astype(np.int64)       # noqa: E731
    nation = lambda a: a.astype(np.int32)    # noqa: E731
    tables = {
        "nation": {"n_nationkey": nation(np.arange(25)),
                   "n_regionkey": nation(np.arange(25) % 5)},
        "customer": {"c_custkey": key(np.arange(n_c)),
                     "c_nationkey": nation(rng.randint(0, 25, n_c))},
        "supplier": {"s_suppkey": key(np.arange(n_s)),
                     "s_nationkey": nation(rng.randint(0, 25, n_s))},
        "orders": {"o_orderkey": key(np.arange(n_o)),
                   "o_custkey": key(rng.randint(0, n_c, n_o))},
        "lineitem": {"l_orderkey": key(rng.randint(0, n_o, n_l)),
                     "l_partkey": key(rng.randint(0, n_p, n_l)),
                     "l_suppkey": key(rng.randint(0, n_s, n_l))},
    }
    os.makedirs(f"{out}/sf")
    for name, cols in tables.items():
        pq.write_table(pa.table(cols), f"{out}/sf/{name}.parquet")

    region = seed % 5
    con = duckdb.connect()
    for name in tables:
        con.execute(f"CREATE VIEW {name} AS SELECT * FROM "
                    f"read_parquet('{out}/sf/{name}.parquet')")
    con.execute(f"CREATE TABLE t AS WITH {TRIPLES_CTE} SELECT * FROM triples")
    triples = con.execute("SELECT subj, pred, obj FROM t").arrow()
    bgp_rows = con.execute(f"""
        SELECT count(*) FROM t a, t b, t c, t d, t e, t f
        WHERE a.pred = 'placed_by' AND b.pred = 'in_nation'
          AND b.subj = a.obj AND c.pred = 'in_region' AND c.subj = b.obj
          AND c.obj = 'region:{region}' AND d.pred = 'contains'
          AND d.subj = a.subj AND e.pred = 'supplied_by' AND e.subj = d.obj
          AND f.pred = 'in_nation' AND f.subj = e.obj AND f.obj = b.obj
    """).fetchone()[0]
    con.close()
    labels = wl_labels(GraphIndex.from_table(triples).local(), WL_ITERATIONS, 8)
    return {"triples": triples.num_rows, "region": region,
            "bgp_rows": int(bgp_rows), "wl_labels": len(labels)}


def input_dir(work: str, workload: str, scale: str, seed: int) -> str:
    """The cache dir of one workload's inputs, keyed by this file's source
    too, so that a change to a generator or an oracle is never served
    stale inputs."""
    with open(__file__, "rb") as f:
        src = hashlib.sha1(f.read()).hexdigest()[:10]
    return os.path.join(work, "inputs", f"{workload}-{scale}-s{seed}-{src}")


def generate(work: str, workload: str, scale: str, seed: int) -> None:
    """Generate the inputs and oracles of one workload, unless cached."""
    d = input_dir(work, workload, scale, seed)
    if os.path.exists(f"{d}/meta.json"):
        return
    tmp = f"{d}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    size = SIZES[workload][scale]
    if workload == "kg-query":
        meta = _gen_kg_query(size, seed, tmp)
    else:
        meta = _gen_pipeline(workload, size, seed, tmp)
    meta["seed"] = seed
    with open(f"{tmp}/meta.json", "w") as f:
        json.dump(meta, f)
    shutil.rmtree(d, ignore_errors=True)
    os.replace(tmp, d)


def load_inputs(work: str, workload: str, scale: str, seed: int) -> Inputs:
    """Load generated inputs: their metadata, and the candidate entities
    of a pipeline workload."""
    d = input_dir(work, workload, scale, seed)
    with open(f"{d}/meta.json") as f:
        meta = json.load(f)
    if workload == "kg-query":
        return Inputs(workload, d, meta, rows=meta["triples"])
    return Inputs(workload, d, meta, rows=meta["docs"],
                  candidates=_candidates(meta["entities"]))


# ---- one run ----------------------------------------------------------------

def _layer(tr, name: str, fn, materialize: bool = False):
    """Call one layer.  A traced run records a span around the call and,
    with ``materialize``, materializes the returned Dataset inside the span
    so that the layer's work lands there."""
    if tr is None:
        return fn()
    with tr.span(name):
        out = fn()
        return out.materialize() if materialize else out


def run_pipeline(inp: Inputs, run_dir: str, tr=None) -> dict:
    """docs parquet on disk → embeddings parquet on disk.  Untraced, the
    construct chain stays lazy up to the shard build and only the walk
    corpus is materialized (``fit_dataset`` reads it twice)."""
    import ray.data

    from pyrdf2vec_ray.embedders_dist import DistributedWord2Vec
    from pyrdf2vec_ray.pipelines.construct import (
        construct_kg, dedup_triples, extract_mentions, link_mentions,
    )
    from pyrdf2vec_ray.samplers import SamplerSpec
    from pyrdf2vec_ray.stages.link import CandidateIndex
    from pyrdf2vec_ray.state.sharded_graph import ShardedGraphIndex
    from pyrdf2vec_ray.walkers import WalkerSpec, explode_walks, extract_walks

    w = WALKS[inp.workload]
    out: dict = {}
    docs = ray.data.read_parquet(inp.path("docs"))
    if tr is None:
        triples = construct_kg(docs, inp.candidates)
    else:
        mentions = out["mentions"] = _layer(
            tr, "stages.extract", lambda: extract_mentions(docs), True)
        linked = out["linked"] = _layer(
            tr, "stages.link", lambda: link_mentions(
                mentions, CandidateIndex.build(inp.candidates)), True)
        triples = out["triples"] = _layer(
            tr, "shuffle.dedup", lambda: dedup_triples(linked), True)
    gi = _layer(tr, "state.sharded_graph", lambda: (
        ShardedGraphIndex.build(triples, num_shards=NUM_SHARDS,
                                scratch_dir=f"{run_dir}/graph")))
    if inp.workload == "walk-heavy":   # Dataset roots: ShardedKeepSet path
        roots = ray.data.read_parquet(inp.path("roots.parquet"))
    else:
        roots = pq.read_table(inp.path("roots.parquet"))["entity"].to_pylist()
    spec = WalkerSpec(strategy="random", max_depth=w["depth"],
                      max_walks=w["max_walks"], random_state=inp.meta["seed"],
                      sampler=SamplerSpec(kind=w["sampler"]))
    walks = _layer(tr, "walkers.prepare", lambda: extract_walks(gi, roots, spec))
    corpus = out["corpus"] = _layer(
        tr, "walkers.walk", lambda: explode_walks(walks).materialize())
    model = out["model"] = DistributedWord2Vec(
        num_workers=1, num_ps=1, vector_size=VECTOR_SIZE,
        epochs=w["epochs"], seed=7)
    _layer(tr, "embedders_dist.fit", lambda: model.fit_dataset(corpus))
    out["sink_rows"] = _layer(
        tr, "sink", lambda: model.write_parquet(f"{run_dir}/emb"))
    return out


def run_kg_query(inp: Inputs, run_dir: str, tr=None) -> dict:
    """source parquet → BGP result rows and WL labels.  The triples are
    materialized in every run: both the BGP and the WL fit read them."""
    from pyrdf2vec_ray.ops.bgp import bgp_match
    from pyrdf2vec_ray.sources.tpch_kg import tpch_triples
    from pyrdf2vec_ray.stages.wl import wl_labels_from_dataset

    out: dict = {}
    triples = out["triples"] = _layer(
        tr, "sources.tpch_kg", lambda: tpch_triples(inp.path("sf")).materialize())
    patterns = bgp_patterns(inp.meta["region"])
    out["bgp_rows"] = _layer(
        tr, "ops.bgp", lambda: bgp_match(triples, patterns).count())
    out["wl_labels"] = len(_layer(tr, "stages.wl", lambda: (
        wl_labels_from_dataset(triples, WL_ITERATIONS, 8))))
    return out


def run(inp: Inputs, run_dir: str, tr=None) -> dict:
    if inp.workload == "kg-query":
        return run_kg_query(inp, run_dir, tr)
    return run_pipeline(inp, run_dir, tr)


# ---- checks and counts ------------------------------------------------------

REPEATED = ("walkers.walks", "walkers.tokens")


def check_repeat(first: dict, counts: dict) -> None:
    """Walk and token counts repeat exactly across the runs of one seed.
    ``first`` starts empty and keeps the first good run's counts."""
    now = {k: counts[k] for k in REPEATED if k in counts}
    if not first:
        first.update(now)
    check(now == first, f"walk/token counts {now} differ from the first "
                        f"run's {first}")

def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def check_outputs(inp: Inputs, out: dict, run_dir: str) -> dict:
    """Check every output of one run against the inputs' oracles; return
    the run's counts.  Raises CheckFailed on the first mismatch."""
    if inp.workload == "kg-query":
        m = inp.meta
        n = out["triples"].count()
        check(n == m["triples"], f"tpch triples {n} != oracle {m['triples']}")
        check(out["bgp_rows"] == m["bgp_rows"],
              f"bgp rows {out['bgp_rows']} != DuckDB {m['bgp_rows']}")
        check(out["wl_labels"] == m["wl_labels"],
              f"sharded WL labels {out['wl_labels']} != "
              f"broadcast {m['wl_labels']}")
        return {"tpch_kg.rows": n, "bgp.rows_out": out["bgp_rows"],
                "wl.labels": out["wl_labels"]}

    from pyrdf2vec_ray.util import to_table

    built = sort_triples(pq.read_table(f"{run_dir}/graph/fwd",
                                       columns=["subj", "pred", "obj"]))
    expected = pq.read_table(inp.path("expected.parquet"))
    check(built.equals(expected),
          f"constructed triples ({built.num_rows}) != oracle "
          f"({expected.num_rows})")

    depth = WALKS[inp.workload]["depth"]
    corpus = to_table(out["corpus"])
    walk = corpus["walk"].combine_chunks()
    lens = pc.list_value_length(walk)
    check(corpus.num_rows > 0, "no walks")
    check(pc.all(pc.equal(pc.list_element(walk, 0), corpus["entity"])).as_py(),
          "a walk does not start at its root")
    check(pc.max(lens).as_py() <= 2 * depth + 1,
          f"a walk is longer than {2 * depth + 1} tokens")
    walks, tokens = corpus.num_rows, pc.sum(lens).as_py()

    model = out["model"]
    emb = pq.read_table(f"{run_dir}/emb")
    vocab = len(model.vocab)
    check(out["sink_rows"] == vocab and emb.num_rows == vocab,
          f"embedding rows {emb.num_rows} != vocab {vocab}")
    roots = pq.read_table(inp.path("roots.parquet"))["entity"]
    check(pc.all(pc.is_in(roots, value_set=emb["entity"])).as_py(),
          "a root has no embedding")
    vec = pc.list_flatten(emb["vector"].combine_chunks()).to_numpy()
    check(bool(np.isfinite(vec).all()), "an embedding is not finite")

    graph_bytes = _dir_bytes(f"{run_dir}/graph")
    counts = {
        "sharded_graph.triples": built.num_rows,
        "sharded_graph.parquet_bytes": graph_bytes,
        "walkers.roots": len(roots), "walkers.walks": walks,
        "walkers.tokens": tokens, "embedders_dist.vocab": vocab,
        "embedders_dist.token_epochs": tokens * WALKS[inp.workload]["epochs"],
        "sink.rows": emb.num_rows, "sink.bytes": _dir_bytes(f"{run_dir}/emb"),
    }
    if "mentions" in out:
        counts["extract.rows_out"] = out["mentions"].count()
        counts["link.rows_out"] = out["linked"].count()
        counts["shuffle.dedup_rows_in"] = counts["link.rows_out"]
        counts["shuffle.dedup_rows_out"] = out["triples"].count()
    return counts


if __name__ == "__main__":
    generate(sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]))
