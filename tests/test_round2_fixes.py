"""Round-2 fixes: stable shard routing, HALK empty guard, knn tie-break
determinism, checkpoint input fingerprints."""

import subprocess
import sys
import zlib

import numpy as np
import pyarrow as pa
import ray.data

from pyrdf2vec_ray import synth
from pyrdf2vec_ray.stages.link import CandidateIndex
from pyrdf2vec_ray.util import to_table
from pyrdf2vec_ray.walkers import WalkerSpec, extract_walks

IRI = synth.IRI_PREFIX


def test_shard_routing_stable_across_hashseed():
    keys = ["alice smith", "bob", "dean jones", "ångström"]
    # in-process: the documented stable function
    ours = [CandidateIndex.shard_of(k, 8) for k in keys]
    assert ours == [zlib.crc32(k.encode()) % 8 for k in keys]
    # across processes with different PYTHONHASHSEED (builtin hash() would
    # diverge here and route lookups to the wrong index shard)
    prog = (
        "from pyrdf2vec_ray.stages.link import CandidateIndex;"
        f"print([CandidateIndex.shard_of(k, 8) for k in {keys!r}])"
    )
    outs = set()
    for seed in ("1", "2"):
        r = subprocess.run(
            [sys.executable, "-c", prog], capture_output=True, text=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin:/usr/local/bin"},
            cwd="/root/repo", check=True,
        )
        outs.add(r.stdout.strip())
    assert outs == {repr(ours)}


def test_halk_empty_entities(sharded_index):
    gi = sharded_index(synth.LOOP)
    spec = WalkerSpec(strategy="halk", max_depth=2, freq_thresholds=(0.01,))
    out = to_table(extract_walks(gi, [], spec))
    assert out.num_rows == 0


def test_knn_tie_break_with_duplicate_vectors():
    from pyrdf2vec_ray.ops.similarity import knn_bruteforce

    # 30 identical vectors + 2 distinct: ties straddle every k boundary;
    # deterministic (-cos, neighbor_id) order must keep the SMALLEST ids
    vec = [1.0, 0.0]
    rows = [{"vec_id": i, "embedding": vec} for i in range(30)]
    rows += [{"vec_id": 100, "embedding": [0.0, 1.0]}]
    emb = ray.data.from_items(rows).repartition(4)
    out = knn_bruteforce(
        emb, np.array([vec]), np.array([7]), k=5
    )
    assert out["neighbor_id"].to_pylist() == [0, 1, 2, 3, 4]


def test_checkpoint_fingerprints_cover_inputs(tmp_path, sharded_index):
    from pyrdf2vec_ray.checkpoint import extract_walks_checkpointed

    gi = sharded_index(synth.LONG_CHAIN)
    ents = [IRI + n for n in ["Alice", "Bob", "Mathilde", "Emma"]]
    spec = WalkerSpec(strategy="random", max_depth=2, max_walks=None,
                      md5_bytes=None)
    root = str(tmp_path / "walks")
    r1 = extract_walks_checkpointed(root, gi, ents, spec, n_partitions=2)
    assert [r.skipped for r in r1] == [False, False]
    # identical inputs → all partitions skipped
    r2 = extract_walks_checkpointed(root, gi, ents, spec, n_partitions=2)
    assert [r.skipped for r in r2] == [True, True]
    # same count/ranges but different entity CONTENT in partition 1 →
    # partition 1 rebuilds (round-1 bug: only the index range was hashed)
    ents2 = ents[:2] + [IRI + "Alfy", IRI + "Emma"]
    r3 = extract_walks_checkpointed(root, gi, ents2, spec, n_partitions=2)
    assert [r.skipped for r in r3] == [True, False]
    # the same triples built again in another scratch dir → skipped
    r_same = extract_walks_checkpointed(
        root, sharded_index(synth.LONG_CHAIN), ents2, spec, n_partitions=2
    )
    assert [r.skipped for r in r_same] == [True, True]
    # different GRAPH, same entities → rebuild too
    gi2 = sharded_index(synth.LOOP)
    r4 = extract_walks_checkpointed(
        root, gi2, [IRI + n for n in ["Alice", "Bob"]], spec, n_partitions=1
    )
    assert [r.skipped for r in r4] == [False]


def test_construct_checkpoint_candidates_in_fingerprint(tmp_path):
    from pyrdf2vec_ray.checkpoint import construct_kg_checkpointed

    root = str(tmp_path / "kg")
    cands = {synth.entity_name(i).casefold(): synth.entity_iri(i) for i in range(10)}
    r1 = construct_kg_checkpointed(root, 24, cands, n_partitions=2, n_entities=10)
    assert not any(r.skipped for r in r1)
    r2 = construct_kg_checkpointed(root, 24, cands, n_partitions=2, n_entities=10)
    assert all(r.skipped for r in r2)
    # a changed candidate dictionary invalidates completed partitions
    cands2 = dict(cands)
    cands2["extra key"] = IRI + "Extra"
    r3 = construct_kg_checkpointed(root, 24, cands2, n_partitions=2, n_entities=10)
    assert not any(r.skipped for r in r3)
