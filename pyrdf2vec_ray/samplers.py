"""Sampling strategies (reference: pyrdf2vec/samplers/*, SURVEY.md §2.4).

A sampler is (1) a global fit over the whole graph and (2) a per-hop
weight function used inside DFS walk tasks.  The fit statistics are
plain grouped counts over the triples Dataset (``NameFittedSampler.fit``
runs them as bucket-shuffle counts, keyed by vertex and predicate NAME),
collected as vocabulary-scale sorted arrays and broadcast to the walk
tasks.  The Dataset/groupby formulations of the same counts are the
oracle-checked ``sampler_*`` registry queries.  Weight semantics are
faithful to the reference per-sampler docstrings below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pyrdf2vec_ray.state.graph_index import LocalGraph

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
    """Shared power-iteration core over UNIQUE SORTED (src, dst) id pairs.
    The sampler fit (names from the triples Dataset) and
    ``pagerank_scores`` (ids of one CSR) reduce their edges to the same
    sorted pair list over the same sorted vocabulary, so their scores
    are bit-identical.

    ``personalization`` (optional, length = #entity nodes, must sum to
    1): the restart/teleport vector of PERSONALIZED PageRank (nx
    semantics: start, teleport and dangling mass all use it).  None →
    the uniform vector, i.e. classic PageRank — the default path is
    bit-identical to before the parameter existed."""
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
    edges collapsed — exactly the graph the reference builds for
    networkx (samplers/pagerank.py:59-67: nx.DiGraph add_edge dedups).
    Power iteration with uniform personalization and dangling-mass
    redistribution, matching networkx.pagerank semantics.  Non-entity
    ids get score 0.  At cluster scale this is k rounds of
    edges-join-scores + groupby(dst).sum() (SURVEY.md A5) — implemented
    as ops/graph.pagerank_rounds (round 5), which never pulls the edge
    list to the driver and matches this form at 1e-12 (pytest-pinned);
    the vectorized single-pass form here serves ``stats.vertex_stats``
    on graphs whose DISTINCT EDGE LIST fits one process, and equals the
    pagerank sampler's scores bit for bit."""
    a = g.a
    # unique entity→entity edges
    key = a.fwd_obj.astype(np.int64)
    src = np.repeat(np.arange(g.num_vertices), np.diff(a.fwd_indptr)).astype(np.int64)
    pair = np.unique(src * g.num_vertices + key)
    src_u = (pair // g.num_vertices).astype(np.int64)
    dst_u = (pair % g.num_vertices).astype(np.int64)
    return _pagerank_from_pairs(
        src_u, dst_u, a.is_entity, g.num_vertices, alpha, tol, max_iter
    )


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
    """Sampler state keyed by vertex NAME, fitted from the triples
    Dataset with grouped-count shuffles (SURVEY.md §2.4 "→ Ray Data") —
    the sharded graph index has no global id space.  The collected
    statistics are vocabulary-scale (one row per distinct vertex /
    predicate / pair), NOT corpus-scale: they are the broadcast fitted
    state, exactly like the reference's driver-side sampler.fit
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
    def fit(spec: SamplerSpec, triples) -> "NameFittedSampler":
        """``triples`` is a zero-arg callable returning the triples
        Dataset, called only by the branches that count over it: a
        parquet-backed Dataset starts Ray tasks to sample its files as
        soon as it is built, and e.g. ``uniform`` without ``split``
        reads nothing."""
        from pyrdf2vec_ray.shuffle import bucket_count, distinct
        from pyrdf2vec_ray.util import to_table

        def counts(cols: list[str]):
            t = to_table(bucket_count(triples(), cols, "n"))
            if len(cols) == 1:
                keys = np.asarray(t[cols[0]].to_numpy(zero_copy_only=False))
            else:
                parts = [
                    np.asarray(t[c].to_numpy(zero_copy_only=False)).astype(object)
                    for c in cols
                ]
                joined = parts[0]
                for p in parts[1:]:
                    joined = joined + "\x1f" + p
                keys = joined
            keys = keys.astype(np.str_)
            vals = t["n"].to_numpy().astype(np.float64)
            order = np.argsort(keys)
            return keys[order], vals[order]

        fs = NameFittedSampler(spec=spec)
        # in-degree is a full exchange over the triples; only the split
        # divisor and the objfreq weights read it
        if spec.split or spec.kind == "objfreq":
            fs.in_keys, fs.in_deg = counts(["obj"])
        if spec.kind == "objfreq":
            # in-degree of the target entity (frequency.py:46-81)
            fs.node_keys, fs.node_w = fs.in_keys, fs.in_deg
        elif spec.kind == "predfreq":
            # occurrences of the predicate name (frequency.py:116-152)
            fs.pred_keys, fs.pred_w = counts(["pred"])
        elif spec.kind == "objpredfreq":
            # occurrences of each (pred, obj) pair (frequency.py:188-227)
            fs.pair_keys, fs.pair_w = counts(["pred", "obj"])
        elif spec.kind == "wide":
            # (nc[pred]+nc[obj]) * ((pred_deg[pred]+obj_deg[obj])/2), where —
            # per the reference's per-vertex loop (wide.py:50-96) — nc of a
            # predicate name resolves to 1 (each predicate instance has
            # exactly one parent), nc of an entity is its out-degree, and
            # obj_deg of an entity is 1 (vertices are unique by name).
            fs.pred_keys, fs.pred_w = counts(["pred"])
            fs.out_keys, fs.out_deg = counts(["subj"])
        elif spec.kind == "pagerank":
            # unique entity→entity edges, collapsed like the reference's
            # nx.DiGraph; the collected pair list is E×2 ids, far smaller
            # than the triple strings, and the score vector is the
            # broadcast fitted state either way
            pairs = to_table(distinct(triples(), ["subj", "obj"]))
            src = np.asarray(pairs["subj"].to_numpy(zero_copy_only=False))
            dst = np.asarray(pairs["obj"].to_numpy(zero_copy_only=False))
            # factorize(sort=True), not np.unique: comparison-sorting
            # millions of object strings is ~30x slower (measured)
            import pandas as _pd

            codes, uniq = _pd.factorize(np.concatenate([src, dst]), sort=True)
            ents = np.asarray(uniq).astype(np.str_)
            n = len(ents)
            s_id = codes[: len(src)].astype(np.int64)
            d_id = codes[len(src):].astype(np.int64)
            pair_key = np.unique(s_id.astype(np.int64) * n + d_id.astype(np.int64))
            fs.node_keys = ents
            fs.node_w = _pagerank_from_pairs(
                (pair_key // n).astype(np.int64),
                (pair_key % n).astype(np.int64),
                np.ones(n, dtype=bool), n, alpha=spec.alpha,
            )
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
            q = np.asarray(
                [f"{p}\x1f{o}" for p, o in zip(preds, others)], dtype=np.str_
            )
            w = _sorted_lookup(self.pair_keys, self.pair_w, q)
        elif k == "wide":
            nc = 1.0 + _sorted_lookup(self.out_keys, self.out_deg, others)
            w = nc * ((_sorted_lookup(self.pred_keys, self.pred_w, preds) + 1.0) / 2.0)
        else:
            raise AssertionError(k)
        in_deg = (_sorted_lookup(self.in_keys, self.in_deg, others)
                  if self.spec.split else None)
        return _finalize_weights(self.spec, w.astype(np.float64), in_deg)
