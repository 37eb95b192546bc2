"""Sampling strategies (reference: pyrdf2vec/samplers/*, SURVEY.md §2.4).

A sampler is (1) a global fit over the whole graph and (2) a per-hop
weight function used inside DFS walk tasks.  The fit statistics are
grouped counts of the triples keyed by vertex and predicate NAME, one
task per graph shard (``ShardedGraphIndex.counts``, ``entity_edges``)
merged on the driver into vocabulary-scale sorted arrays broadcast to
the walk tasks.  The Dataset/groupby formulations of the same counts
are the oracle-checked ``sampler_*`` registry queries.  Weight
semantics are faithful to the reference per-sampler docstrings below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pyrdf2vec_ray.state.graph_index import LocalGraph, distinct_edges
from pyrdf2vec_ray.state.sharded_graph import pair_key

SAMPLER_KINDS = ("uniform", "objfreq", "predfreq", "objpredfreq", "pagerank", "wide")


@dataclass(frozen=True)
class SamplerSpec:
    """Configuration mirroring Sampler(inverse, split) + per-kind params
    (samplers/sampler.py:44-48, pagerank.py:42-48)."""

    kind: str = "uniform"
    inverse: bool = False
    split: bool = False
    alpha: float = 0.85          # PageRank damping
    random_state: int | None = None

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")


def _pagerank_from_pairs(
    src_u: np.ndarray, dst_u: np.ndarray, is_entity: np.ndarray, nv: int,
    alpha: float = 0.85, tol: float = 1e-6, max_iter: int = 100,
    personalization: np.ndarray | None = None,
) -> np.ndarray:
    """Shared power-iteration core over UNIQUE SORTED (src, dst) id pairs:
    the sampler fit (``ShardedGraphIndex.entity_edges``) and
    ``pagerank_scores`` (one CSR) pass the same pairs over the same
    sorted vocabulary, so their scores are bit-identical.

    ``personalization`` (optional, length = #entity nodes, summing to 1)
    is the restart vector of PERSONALIZED PageRank (nx semantics: start,
    teleport and dangling mass all use it); None is the uniform vector."""
    nodes = np.flatnonzero(is_entity)
    n = len(nodes)
    if n == 0:
        return np.zeros(nv)
    pos = np.full(nv, -1, dtype=np.int64)
    pos[nodes] = np.arange(n)
    s, d = pos[src_u], pos[dst_u]
    out_deg = np.zeros(n)
    np.add.at(out_deg, s, 1.0)

    if personalization is None:
        p = np.full(n, 1.0 / n)
    else:
        p = np.asarray(personalization, dtype=np.float64)
        if p.shape != (n,):
            raise ValueError("personalization length must equal node count")
    x = p.copy()
    dangling = out_deg == 0
    for _ in range(max_iter):
        x_last = x
        contrib = np.where(out_deg > 0, x_last / np.maximum(out_deg, 1), 0.0)
        x = np.zeros(n)
        np.add.at(x, d, contrib[s])
        x = alpha * x + (alpha * x_last[dangling].sum() + (1 - alpha)) * p
        if np.abs(x - x_last).sum() < n * tol:
            break
    out = np.zeros(nv)
    out[nodes] = x
    return out


def pagerank_scores(g: LocalGraph, alpha: float = 0.85, tol: float = 1e-6,
                    max_iter: int = 100) -> np.ndarray:
    """PageRank over the entity-only digraph with parallel (subj, obj)
    edges collapsed — the graph the reference builds for networkx
    (samplers/pagerank.py:59-67) — with networkx.pagerank semantics;
    non-entity ids get score 0.  Serves ``stats.vertex_stats`` on graphs
    whose distinct edge list fits one process, and equals the pagerank
    sampler's scores bit for bit; ``ops/graph.pagerank_rounds`` is the
    cluster-scale form (SURVEY.md A5), pytest-matched at 1e-12."""
    a = g.a
    return _pagerank_from_pairs(*distinct_edges(a.fwd_indptr, a.fwd_obj),
                                a.is_entity, g.num_vertices, alpha, tol,
                                max_iter)


def _finalize_weights(
    spec: SamplerSpec, w: np.ndarray, in_deg: np.ndarray | None
):
    """get_weights pipeline tail (sampler.py:111-136): inverse → split
    (divide by the target's in-degree, dropping zero-in-degree targets)
    → normalize to sum 1.  ``in_deg`` is read only when ``spec.split``
    is set."""
    keep = np.arange(len(w))
    if spec.inverse and len(w):
        w = w.max() - (w - w.min())
    if spec.split:
        mask = in_deg != 0
        keep, w, deg = keep[mask], w[mask], in_deg[mask]
        w = w / deg
    total = w.sum()
    if total == 0 or len(w) == 0:
        return keep, np.array([])
    return keep, w / total


def _sorted_lookup(keys: np.ndarray, vals: np.ndarray, queries) -> np.ndarray:
    """Vectorized name → value lookup via binary search over the sorted
    fixed-width key array; missing keys map to 0."""
    q = np.asarray(queries)
    if len(keys) == 0 or len(q) == 0:
        return np.zeros(len(q))
    idx = np.clip(np.searchsorted(keys, q), 0, len(keys) - 1)
    return np.where(keys[idx] == q, vals[idx], 0.0)


@dataclass
class NameFittedSampler:
    """Sampler state keyed by vertex NAME (the sharded index has no
    global id space): vocabulary-scale sorted arrays, the broadcast
    fitted state like the reference's driver-side sampler.fit
    (samplers/sampler.py:69-109).  ``hop_probabilities`` is the
    reference's get_weights (sampler.py:111-136)."""

    spec: SamplerSpec
    node_keys: np.ndarray | None = None
    node_w: np.ndarray | None = None
    pred_keys: np.ndarray | None = None
    pred_w: np.ndarray | None = None
    pair_keys: np.ndarray | None = None
    pair_w: np.ndarray | None = None
    in_keys: np.ndarray | None = None
    in_deg: np.ndarray | None = None
    out_keys: np.ndarray | None = None
    out_deg: np.ndarray | None = None

    @staticmethod
    def fit(spec: SamplerSpec, gi) -> "NameFittedSampler":
        """Fit from the shards of ``gi`` (a ``ShardedGraphIndex``) by its
        ``counts`` and ``entity_edges``; a kind reads only what it needs,
        so ``uniform`` without ``split`` starts no task."""
        fs = NameFittedSampler(spec=spec)
        # only the split divisor and the objfreq weights read in-degree
        if spec.split or spec.kind == "objfreq":
            fs.in_keys, fs.in_deg = gi.counts("obj")
        if spec.kind == "objfreq":
            # in-degree of the target entity (frequency.py:46-81)
            fs.node_keys, fs.node_w = fs.in_keys, fs.in_deg
        elif spec.kind == "predfreq":
            # occurrences of the predicate name (frequency.py:116-152)
            fs.pred_keys, fs.pred_w = gi.counts("pred")
        elif spec.kind == "objpredfreq":
            # occurrences of each (pred, obj) pair (frequency.py:188-227)
            fs.pair_keys, fs.pair_w = gi.counts("pred", "obj")
        elif spec.kind == "wide":
            # (nc[pred]+nc[obj]) * ((pred_deg[pred]+obj_deg[obj])/2), where —
            # per the reference's per-vertex loop (wide.py:50-96) — nc of a
            # predicate name resolves to 1 (each predicate instance has
            # exactly one parent), nc of an entity is its out-degree, and
            # obj_deg of an entity is 1 (vertices are unique by name).
            fs.pred_keys, fs.pred_w = gi.counts("pred")
            fs.out_keys, fs.out_deg = gi.counts("subj")
        elif spec.kind == "pagerank":
            # unique entity→entity edges, collapsed like the reference's
            # nx.DiGraph, collected as E×2 ids
            fs.node_keys, src, dst = gi.entity_edges()
            n = len(fs.node_keys)
            fs.node_w = _pagerank_from_pairs(
                src, dst, np.ones(n, dtype=bool), n, alpha=spec.alpha)
        return fs

    def hop_probabilities(self, preds, others):
        """Returns (kept_candidate_positions, probabilities).  Positions
        shrink only under split=True when a target has in-degree 0
        (sampler.py:128-133 silently drops those hops)."""
        k = self.spec.kind
        preds = np.asarray(preds, dtype=np.str_)
        others = np.asarray(others, dtype=np.str_)
        if k == "uniform":
            w = np.ones(len(preds))
        elif k in ("objfreq", "pagerank"):
            w = _sorted_lookup(self.node_keys, self.node_w, others)
        elif k == "predfreq":
            w = _sorted_lookup(self.pred_keys, self.pred_w, preds)
        elif k == "objpredfreq":
            w = _sorted_lookup(self.pair_keys, self.pair_w,
                               pair_key(preds, others))
        elif k == "wide":
            nc = 1.0 + _sorted_lookup(self.out_keys, self.out_deg, others)
            w = nc * ((_sorted_lookup(self.pred_keys, self.pred_w, preds) + 1.0) / 2.0)
        else:
            raise AssertionError(k)
        in_deg = (_sorted_lookup(self.in_keys, self.in_deg, others)
                  if self.spec.split else None)
        return _finalize_weights(self.spec, w.astype(np.float64), in_deg)
