"""Round-4 extension surfaces in one script:

  1. a USER WALKER PLUGIN registered by name (the reference's open
     Walker ABC, walker.py:168-212) running through extract_walks;
  2. DATASET-native root entities ("walk every vertex" with no driver
     root list — md5 keep-set becomes the crc32-sharded name index);
  3. the breadth of RDF formats (NT / N-Quads / Turtle / n3 / TriG /
     JSON-LD / RDF-XML) parsing to one identical triple set.

Run: PYTHONPATH=.. python extensions.py
"""

import ray

ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")

import pyarrow as pa                                              # noqa: E402

import ray.data                                                   # noqa: E402
from pyrdf2vec_ray import synth                                   # noqa: E402
from pyrdf2vec_ray.shuffle import distinct                        # noqa: E402
from pyrdf2vec_ray.sources.rdf import parse_rdf_text              # noqa: E402
from pyrdf2vec_ray.state.sharded_graph import ShardedGraphIndex   # noqa: E402
from pyrdf2vec_ray.walkers import (                               # noqa: E402
    WalkerSpec,
    extract_walks,
    register_walker,
)

gi = ShardedGraphIndex.build(
    ray.data.from_arrow(synth.triples_table(synth.LONG_CHAIN + synth.LOOP)),
    num_shards=2,
)


# -- 1. plugin walker ---------------------------------------------------------
def bidi_hops(graph, entity, spec):
    """Depth-1 forward + reverse hop triples as walks."""
    out = []
    preds, objs = graph.get_hops(entity)
    out += [(entity, p, o) for p, o in zip(preds, objs)]
    rpreds, subs = graph.get_hops(entity, is_reverse=True)
    out += [(s, p, entity) for p, s in zip(rpreds, subs)]
    return out or [(entity,)]


register_walker("bidi_hops", bidi_hops)
w = extract_walks(
    gi, [synth.IRI_PREFIX + "Alice"], WalkerSpec(strategy="bidi_hops")
)
print("plugin walks:", w.take_all()[0]["walks"][:3])

# -- 2. Dataset-native roots: every vertex of the graph -----------------------
triples = ray.data.from_arrow(synth.triples_table(synth.LONG_CHAIN))
roots = distinct(
    triples.map_batches(
        lambda b: pa.table({"entity": b["subj"]}), batch_format="pyarrow"
    ).union(
        triples.map_batches(
            lambda b: pa.table({"entity": b["obj"]}), batch_format="pyarrow"
        )
    ),
    ["entity"],
)
walks = extract_walks(
    ShardedGraphIndex.build(triples, num_shards=2),
    roots,                              # a Dataset, not a list
    WalkerSpec(strategy="random", max_depth=1, md5_bytes=8),
)
print("all-vertex walk rows:", walks.count())

# -- 3. one graph, many formats -----------------------------------------------
TTL = "@prefix ex: <http://e/> . ex:a ex:p ex:b ; ex:q ex:c ."
NT = ("<http://e/a> <http://e/p> <http://e/b> .\n"
      "<http://e/a> <http://e/q> <http://e/c> .")
TRIG = "@prefix ex: <http://e/> . ex:g { ex:a ex:p ex:b . ex:a ex:q ex:c . }"
JSONLD = ('{"@id": "http://e/a", "http://e/p": {"@id": "http://e/b"},'
          ' "http://e/q": {"@id": "http://e/c"}}')
sets = {
    fmt: set(parse_rdf_text(text, fmt))
    for fmt, text in [("turtle", TTL), ("trig", TRIG), ("json-ld", JSONLD)]
}
from pyrdf2vec_ray.sources.ntriples import parse_ntriples_lines  # noqa: E402

sets["nt"] = set(parse_ntriples_lines(NT.splitlines()))
assert len({frozenset(s) for s in sets.values()}) == 1
print("format parity:", sorted(sets["nt"]))

ray.shutdown()
