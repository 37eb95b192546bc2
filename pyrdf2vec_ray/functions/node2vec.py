"""node2vec-style biased second-order walks, built ON the engine's open
walker surface (`walkers.register_walker`) rather than inside WalkCore —
demonstrating that a famous strategy the reference never shipped
(Grover & Leskovec 2016) plugs in through the same extension point the
reference's ``Walker`` ABC offers (walker.py:168-212).

Second-order rule: stepping from ``t`` (previous) through ``v``
(current) to candidate ``x``, the unnormalized weight is ``1/p`` when
``x == t`` (return), ``1`` when ``x`` is a neighbor of ``t`` (stay at
distance 1), else ``1/q`` (explore outward).  Low ``q`` → DFS-like
outward drift; low ``p`` → BFS-like backtracking — the interpolation
the paper is about.  The neighborhood test uses BOTH hop directions
(the paper's graphs are undirected; a KG is not, so this is the
documented undirected approximation).

Determinism contract (engine-wide discipline): every (entity, walk
index) pair seeds its own ``numpy`` generator from a stable md5 hash —
no RNG stream crosses rows, so output is identical under any
partitioning, batch size, or resume, like splitmix-based samplers.
"""
from __future__ import annotations

import hashlib

import numpy as np


def _walk_rng(entity: str, wi: int, seed: int) -> np.random.Generator:
    h = hashlib.md5(f"{entity}|{wi}|{seed}".encode()).hexdigest()
    return np.random.default_rng(int(h[:16], 16))


def make_node2vec_walker(
    p: float = 1.0,
    q: float = 1.0,
    n_walks: int = 8,
    depth: int = 4,
    seed: int = 0,
):
    """Build a `register_walker`-compatible plugin:
    ``fn(graph, entity, spec) -> iterable of walk tuples`` emitting
    ``(entity, pred, obj, pred, obj, ...)`` node2vec walks.  State per
    step: ONE hop lookup for the current node plus one (cached) lookup
    for the previous node's neighborhood — the same per-entity access
    pattern as the built-in DFS, so the sharded graph serves it
    shard-locally."""
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")

    def node2vec_walker(graph, entity, spec):
        # per-entity caches: forward hop lists (each node's hops fetch
        # ONCE across all n_walks — each get_hops is a shard lookup) and the undirected neighborhoods
        hop_cache: dict[str, tuple] = {}
        nbr_cache: dict[str, frozenset] = {}

        def hops(name: str) -> tuple:
            got = hop_cache.get(name)
            if got is None:
                got = graph.get_hops(name)
                hop_cache[name] = got
            return got

        def neighborhood(name: str) -> frozenset:
            got = nbr_cache.get(name)
            if got is None:
                _, out = hops(name)
                _, rev = graph.get_hops(name, is_reverse=True)
                got = frozenset(out) | frozenset(rev)
                nbr_cache[name] = got
            return got

        # WalkerSpec.max_depth wins over the factory default, so a
        # registered strategy behaves like built-ins under the spec
        steps = getattr(spec, "max_depth", None) or depth
        walks = set()
        for wi in range(n_walks):
            rng = _walk_rng(str(entity), wi, seed)
            walk = [str(entity)]
            prev = None
            cur = str(entity)
            for _ in range(steps):
                preds, objs = hops(cur)
                if not preds:
                    break
                if prev is None:
                    j = int(rng.integers(len(objs)))
                else:
                    t_nbrs = neighborhood(prev)
                    w = np.empty(len(objs), dtype=np.float64)
                    for k, x in enumerate(objs):
                        if x == prev:
                            w[k] = 1.0 / p
                        elif x in t_nbrs:
                            w[k] = 1.0
                        else:
                            w[k] = 1.0 / q
                    w /= w.sum()
                    j = int(rng.choice(len(objs), p=w))
                walk.append(str(preds[j]))
                walk.append(str(objs[j]))
                prev = cur
                cur = str(objs[j])
            walks.add(tuple(walk))
        return walks

    return node2vec_walker


def register_node2vec(
    name: str = "node2vec",
    p: float = 1.0,
    q: float = 1.0,
    n_walks: int = 8,
    depth: int = 4,
    seed: int = 0,
) -> str:
    """Register (or re-register) a node2vec plugin under ``name`` and
    return the name, ready for ``WalkerSpec(strategy=name)``."""
    from pyrdf2vec_ray.walkers import register_walker

    register_walker(name, make_node2vec_walker(
        p=p, q=q, n_walks=n_walks, depth=depth, seed=seed))
    return name


def make_metapath_walker(preds: list[str]):
    """Exhaustive metapath walker (metapath2vec's path constraint,
    Dong et al. 2017, with exhaustive enumeration instead of sampling):
    from each root, follow ONLY edges whose predicate matches the next
    element of ``preds``, branching over all matches; emit every
    complete-length path ``(root, p1, e1, ..., pk, ek)``.  Heterogeneous
    KGs use this to keep walk corpora semantically typed (e.g.
    order→part→supplier→nation) — and because it is RNG-free it is
    exactly reproducible as a chain of relational joins, giving the
    walk family one more SQL-oracled member.  Roots with no complete
    match emit the bare root (the engine's dead-end retention
    convention); callers wanting full paths only filter by length."""
    preds = [str(p) for p in preds]

    def metapath_walker(graph, entity, spec):
        paths = [(str(entity),)]
        for pred in preds:
            nxt = []
            for path in paths:
                ps, os_ = graph.get_hops(path[-1])
                for p, o in zip(ps, os_):
                    if p == pred:
                        nxt.append(path + (p, o))
            if not nxt:
                return [(str(entity),)]
            paths = nxt
        return paths

    return metapath_walker


def register_metapath(name: str, preds: list[str]) -> str:
    """Register an exhaustive metapath plugin under ``name``."""
    from pyrdf2vec_ray.walkers import register_walker

    register_walker(name, make_metapath_walker(preds))
    return name
