"""Community detection for CommunityWalker (reference community.py:99-138).

The reference runs python-louvain's ``best_partition(resolution)`` on
the undirected entity graph (one edge per hop).  ``method="louvain"``
(default) is a from-scratch multi-level modularity-greedy Louvain with
DETERMINISTIC node order and tie-breaking — python-louvain itself
randomizes node order per run, so exact partition parity is impossible
even against the reference; the reference tests pin walk-shape
invariants only, which hold under any partition.

``method="lpa"`` keeps the label-propagation substitute: Louvain's
aggregation levels are inherently sequential/global, while LPA is k
sweeps of (node, neighbor-label) grouped counts — the formulation that
distributes as iterative bucket shuffles at web scale (SURVEY.md A10).
"""

from __future__ import annotations

import numpy as np

from pyrdf2vec_ray.stages.walk import CommunityState
from pyrdf2vec_ray.state.graph_index import LocalGraph, distinct_edges


def _undirected(u: np.ndarray, v: np.ndarray, n: int):
    """The unique undirected edges (lo, hi) of the id pairs (u, v)."""
    pair = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
    return pair // n, pair % n


def _entity_edges(g: LocalGraph):
    """Unique undirected entity-entity edges (weight 1 each)."""
    return _undirected(*distinct_edges(g.a.fwd_indptr, g.a.fwd_obj),
                       g.num_vertices)


def _csr_sym(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray):
    """Symmetric weighted adjacency CSR (self-loops kept once)."""
    not_self = u != v
    uu = np.concatenate([u, v[not_self]])
    vv = np.concatenate([v, u[not_self]])
    ww = np.concatenate([w, w[not_self]])
    order = np.argsort(uu, kind="stable")
    uu, vv, ww = uu[order], vv[order], ww[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, uu + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, vv, ww.astype(np.float64)


def _one_level(indptr, nbr, w, resolution: float):
    """Louvain local-move phase over one graph level; deterministic:
    nodes in index order, candidate communities in sorted order, strict
    improvement required."""
    n = len(indptr) - 1
    # k[i] = weighted degree (self-loop weight counts twice) — segment
    # sums via the cumsum trick, no per-node Python loop
    csum = np.concatenate([[0.0], np.cumsum(w)])
    k = csum[indptr[1:]] - csum[indptr[:-1]]
    row_of_edge = np.repeat(np.arange(n), np.diff(indptr))
    wself = np.where(nbr == row_of_edge, w, 0.0)
    csum_s = np.concatenate([[0.0], np.cumsum(wself)])
    self_w = csum_s[indptr[1:]] - csum_s[indptr[:-1]]
    k = k + self_w  # count self-loops twice
    m2 = k.sum()
    if m2 == 0:
        return np.arange(n), False
    comm = np.arange(n)
    comm_tot = k.copy()
    moved_any = False
    movable = np.flatnonzero(np.diff(indptr) > 0)  # isolated nodes never move
    for _ in range(50):
        moved = False
        for node in movable:
            c_old = comm[node]
            links: dict[int, float] = {}
            for e in range(indptr[node], indptr[node + 1]):
                j = nbr[e]
                if j == node:
                    continue
                c = comm[j]
                links[c] = links.get(c, 0.0) + w[e]
            comm_tot[c_old] -= k[node]
            best_c = c_old
            best_gain = links.get(c_old, 0.0) - resolution * comm_tot[c_old] * k[node] / m2
            for c in sorted(links):
                if c == c_old:
                    continue
                gain = links[c] - resolution * comm_tot[c] * k[node] / m2
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_c = c
            comm_tot[best_c] += k[node]
            if best_c != c_old:
                comm[node] = best_c
                moved = True
                moved_any = True
        if not moved:
            break
    return comm, moved_any


def _aggregate(comm, u, v, w):
    """Collapse communities into super-nodes; sum parallel edge weights."""
    uniq, inv = np.unique(comm, return_inverse=True)
    cu, cv = inv[u], inv[v]
    lo = np.minimum(cu, cv)
    hi = np.maximum(cu, cv)
    n2 = len(uniq)
    key = lo * n2 + hi
    order = np.argsort(key, kind="stable")
    key_s, w_s = key[order], w[order]
    bounds = np.flatnonzero(np.r_[True, key_s[1:] != key_s[:-1]])
    sums = np.add.reduceat(w_s, bounds)
    uk = key_s[bounds]
    return inv, (uk // n2), (uk % n2), sums, n2


def louvain_labels(
    u: np.ndarray, v: np.ndarray, n: int,
    resolution: float = 1.0, max_levels: int = 10,
) -> np.ndarray:
    """Deterministic Louvain over unique undirected edges → community id
    per node (ids are arbitrary but stable)."""
    w = np.ones(len(u), dtype=np.float64)
    mapping = np.arange(n)
    cur_u, cur_v, cur_n = u, v, n
    for _ in range(max_levels):
        indptr, nbr, ww = _csr_sym(cur_n, cur_u, cur_v, w)
        comm, moved = _one_level(indptr, nbr, ww, resolution)
        inv, cur_u, cur_v, w, n2 = _aggregate(comm, cur_u, cur_v, w)
        # inv: current node -> compacted community id = its super-node at
        # the next level; compose into the original-node mapping
        mapping = inv[mapping]
        if not moved or n2 == cur_n:
            cur_n = n2
            break
        cur_n = n2
    return mapping


def detect_communities(
    g: LocalGraph, max_sweeps: int = 20, resolution: float = 1.0,
    method: str = "louvain",
) -> CommunityState:
    nv = g.num_vertices
    active = np.flatnonzero(g.a.is_entity)
    inv, k = _partition(*_entity_edges(g), nv, active, method, resolution,
                        max_sweeps)
    community_of = np.full(nv, -1, dtype=np.int32)
    community_of[active] = inv
    return CommunityState(community_of, [active[inv == c] for c in range(k)])


def _partition(u, v, nv, active, method, resolution, max_sweeps):
    """(compact community id of each ``active`` node, community count)
    over unique undirected edges (u, v)."""
    if method == "louvain":
        labels = louvain_labels(u, v, nv, resolution=resolution)
    elif method == "lpa":
        labels = _lpa_labels(u, v, nv, active, max_sweeps)
    else:
        raise ValueError(f"unknown community method {method!r}")
    uniq, inv = np.unique(labels[active], return_inverse=True)
    return inv, len(uniq)


def _lpa_labels(u, v, nv, active, max_sweeps):
    """Deterministic label propagation, fully vectorized — the shuffle-
    friendly scale substitute (SURVEY.md A10).  Each SYNCHRONOUS sweep
    computes every node's most common neighbor label (ties → smallest)
    from the previous sweep's labels via one sort + reduceat passes —
    exactly the grouped-count shape that distributes as an iterative
    bucket shuffle, with no O(E) or O(V) Python loop.  Synchronous
    sweeps can 2-cycle on bipartite structure; a detected cycle breaks
    deterministically by taking the elementwise min of the two
    oscillating states.  (``active`` is implicit: only edge endpoints
    ever update, and edges connect entity nodes only.)"""
    del active
    src = np.concatenate([u, v]).astype(np.int64)
    dst = np.concatenate([v, u]).astype(np.int64)
    labels = np.arange(nv, dtype=np.int64)
    if len(src) == 0:
        return labels
    prev = None
    for _ in range(max_sweeps):
        # packed (node, neighbor-label) key; nv^2 must fit int64
        ks = np.sort(src * nv + labels[dst])
        bounds = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
        counts = np.diff(np.r_[bounds, len(ks)])
        grp_src = ks[bounds] // nv
        grp_lab = ks[bounds] % nv
        seg_starts = np.flatnonzero(np.r_[True, grp_src[1:] != grp_src[:-1]])
        seg_len = np.diff(np.r_[seg_starts, len(grp_src)])
        seg_id = np.repeat(np.arange(len(seg_starts)), seg_len)
        maxc = np.maximum.reduceat(counts, seg_starts)
        # groups are (node, label)-sorted, so the FIRST count==max per
        # node segment is the smallest label among the modes
        pos = np.flatnonzero(counts == maxc[seg_id])
        first = pos[np.unique(seg_id[pos], return_index=True)[1]]
        new = labels.copy()
        new[grp_src[seg_starts]] = grp_lab[first]
        if np.array_equal(new, labels):
            break
        if prev is not None and np.array_equal(new, prev):
            labels = np.minimum(new, labels)
            break
        prev = labels
        labels = new
    return labels


class _NameCommunityMap:
    """dict-backed ``community_of`` with the array contract WalkCore
    expects: missing names → -1."""

    def __init__(self, mapping: dict):
        self._m = mapping

    def __getitem__(self, name) -> int:
        return self._m.get(name, -1)


def detect_communities_from_index(
    gi, resolution: float = 1.0, method: str = "louvain",
    max_sweeps: int = 20,
) -> CommunityState:
    """Community state (the community walks' broadcast fit) over the
    distinct edges of ``gi`` (a ``ShardedGraphIndex``), collected as ids
    by ``entity_edges``.  Identical partition, compact community ids
    and member ORDER as ``detect_communities`` over one whole-graph CSR
    (entity order is name-sorted in both)."""
    ents, u, v = gi.entity_edges()
    n = len(ents)
    inv, k = _partition(*_undirected(u, v, n), n, np.arange(n), method,
                        resolution, max_sweeps)
    mapping = {str(name): int(c) for name, c in zip(ents, inv)}
    return CommunityState(_NameCommunityMap(mapping),
                          [ents[inv == c] for c in range(k)])
