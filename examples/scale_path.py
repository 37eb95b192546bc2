"""The 100-TB-shaped pipeline end to end, with NO driver-side
materialization of corpus, graph, or weights:

  docs → construct_kg (one dedup shuffle)
       → ShardedGraphIndex.build (crc32 block split, one CSR task
         per (direction, shard): the materialized graph)
       → extract_walks (name-routed hop lookups) → explode to a corpus
       → DistributedWord2Vec.fit_dataset (vocab-sharded parameter
         shards, corpus splits cut from the block refs)
       → per-shard parquet embeddings sink.

Run: PYTHONPATH=.. python scale_path.py
"""

import shutil
import tempfile

import ray

ray.init(address="local", num_cpus=8, include_dashboard=False,
         logging_level="ERROR")

from pyrdf2vec_ray import synth                                   # noqa: E402
from pyrdf2vec_ray.embedders_dist import DistributedWord2Vec      # noqa: E402
from pyrdf2vec_ray.pipelines.construct import construct_kg        # noqa: E402
from pyrdf2vec_ray.state.sharded_graph import ShardedGraphIndex   # noqa: E402
from pyrdf2vec_ray.walkers import (                               # noqa: E402
    WalkerSpec,
    explode_walks,
    extract_walks,
)

scratch = tempfile.mkdtemp(prefix="scale_path_")

# 1. construction: interleaved docs → deduplicated triples (lazy Dataset)
candidates = {synth.entity_name(i).casefold(): synth.entity_iri(i)
              for i in range(60)}
docs = synth.synth_documents(4000, seed=11, n_entities=60)
triples = construct_kg(docs, candidates)

# 2. sharded graph: one split task per triple block + one CSR task per
#    shard — the driver holds object refs, never the triples
gi = ShardedGraphIndex.build(triples, num_shards=4, scratch_dir=scratch)

# 3. walks as a streaming Dataset (name-routed hops, per-worker caches)
entities = [synth.entity_iri(i) for i in range(30)]
spec = WalkerSpec(strategy="random", max_depth=3, max_walks=8,
                  random_state=11)
corpus = explode_walks(extract_walks(gi, entities, spec, batch_size=8))

# 4. distributed training: one task per corpus split and epoch; the
#    parameters are vocab-sharded object-store shards the model holds as
#    refs (sparse row copies out, sparse deltas back, one apply task per
#    shard)
model = DistributedWord2Vec(num_workers=2, num_ps=2, vector_size=32,
                            epochs=3, seed=11).fit_dataset(corpus)

# 5. embeddings: one task per parameter shard writes its own parquet
rows = model.write_parquet(f"{scratch}/embeddings")
vecs = model.transform(entities[:5])
print(f"wrote {rows} embedding rows; sample vector dim={len(vecs[0])}")
print("first entity:", entities[0], "->", [round(float(x), 4) for x in vecs[0][:4]])

shutil.rmtree(scratch, ignore_errors=True)
ray.shutdown()
