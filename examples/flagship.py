"""End-to-end example mirroring the reference's examples/mutag.py flow:
build a KG, extract walks with a sampler, fit Word2Vec, get vectors +
literals.  Run: PYTHONPATH=.. python flagship.py"""

import shutil
import tempfile

import ray

ray.init(address="local", num_cpus=8, include_dashboard=False,
         logging_level="ERROR")

from pyrdf2vec_ray import synth                                  # noqa: E402
from pyrdf2vec_ray.embedders import Word2Vec                     # noqa: E402
from pyrdf2vec_ray.pipelines.construct import construct_kg       # noqa: E402
from pyrdf2vec_ray.pipelines.rdf2vec import RDF2VecTransformer   # noqa: E402
from pyrdf2vec_ray.samplers import SamplerSpec                   # noqa: E402
from pyrdf2vec_ray.state.sharded_graph import ShardedGraphIndex  # noqa: E402
from pyrdf2vec_ray.walkers import WalkerSpec                     # noqa: E402

# 1. construction: interleaved text+media docs → deduplicated triples
candidates = {synth.entity_name(i).casefold(): synth.entity_iri(i)
              for i in range(40)}
docs = synth.synth_documents(2000, seed=7, n_entities=40)
triples = construct_kg(docs, candidates)
scratch = tempfile.mkdtemp(prefix="flagship_")
gi = ShardedGraphIndex.build(triples, num_shards=2, scratch_dir=scratch)

# 2. RDF2Vec: walks (pagerank-sampled DFS) → Word2Vec → vectors + literals
entities = [synth.entity_iri(i) for i in range(10)]
transformer = RDF2VecTransformer(
    embedder=Word2Vec(vector_size=64, epochs=5, seed=42),
    walkers=[WalkerSpec(strategy="random", max_depth=4, max_walks=10,
                        sampler=SamplerSpec(kind="pagerank"),
                        random_state=42)],
    literals=[[synth.IRI_PREFIX + "knows"]],
    verbose=1,
)
embeddings, literals = transformer.fit_transform(gi, entities)
print("vector dim:", embeddings[0].shape, "| literals[0]:", literals[0][:1])

shutil.rmtree(scratch, ignore_errors=True)
ray.shutdown()
