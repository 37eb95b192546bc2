"""Walk extraction core: one entity's walks over the sharded graph.

Faithful re-expression of the reference's traversal semantics
(walkers/random.py:50-118, samplers/sampler.py:138-180,
walkers/community.py:140-250) over the name-keyed hop view of
``state/sharded_graph.ShardedLocalGraph``:

- BFS (max_walks=None): depth-synchronous frontier; every walk extends
  by ALL hops of its tail; a parent walk is dropped iff it had ≥1 hop
  (dead ends survive); reverse mode prepends (obj, pred).
- DFS (max_walks=k): exactly k walks appended (duplicates allowed);
  each step samples one weighted unvisited hop; the visited set holds
  ((pred, other), depth) pairs with dead-end back-propagation.
- with_reverse: cartesian r_walk[:-1] + walk per entity
  (random.py:134-139) — generated per entity inside the walk task,
  never as a dataset-level cross join.

Parallelism: ``walkers.extract_walks`` streams root entities through
``map_batches`` tasks, routed by the shard that owns each root; each
task maps only the graph shards its hops touch, zero-copy from the
object store — the reference instead forks the whole KG into every
mp.Pool worker (walker.py:187-195).

Determinism: the reference re-seeds ``np.random.RandomState
(random_state)`` at every sample_hop call (sampler.py:173-176), which
is only reproducible per-process.  With ``seed_mode="per_call"`` we
reproduce that exactly; the default ``"per_entity"`` derives a seed
from (random_state, entity) so results are identical under ANY
parallelism / batch split / shard count — strictly stronger
(SURVEY.md §4).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from pyrdf2vec_ray.samplers import NameFittedSampler
from pyrdf2vec_ray.state.sharded_graph import ShardedLocalGraph


@dataclass
class CommunityState:
    """Fitted community structure for CommunityWalker teleports
    (community.py:99-138): vertex → community id, plus member lists."""

    community_of: np.ndarray                  # vertex key → id, -1 = none
    members: list[np.ndarray] = field(default_factory=list)


def _entity_seed(random_state: int | None, entity: str) -> int:
    base = 0 if random_state is None else int(random_state)
    return (base * 0x9E3779B1 + zlib.crc32(entity.encode())) % (2**31 - 1)


class WalkCore:
    """Per-entity traversal over a name-keyed graph with one sampler."""

    def __init__(
        self,
        g: ShardedLocalGraph,
        sampler: NameFittedSampler,
        max_depth: int,
        max_walks: int | None,
        with_reverse: bool = False,
        random_state: int | None = None,
        seed_mode: str = "per_entity",
        community: CommunityState | None = None,
        hop_prob: float = 0.1,
        frontier_cap: int | None = None,
    ):
        self.g = g
        self.sampler = sampler
        self.max_depth = max_depth
        self.max_walks = max_walks
        self.with_reverse = with_reverse
        self.random_state = random_state
        self.seed_mode = seed_mode
        self.community = community
        self.hop_prob = hop_prob
        # skew guard for scale runs: BFS frontiers are exponential in hub
        # out-degree (README.rst:306-308 "hours, days"); when set, a
        # frontier exceeding the cap is downsampled DETERMINISTICALLY
        # (hash-ordered) to `frontier_cap` walks per level.  None (default)
        # = exact exhaustive reference semantics.
        self.frontier_cap = frontier_cap

    # -- BFS (random.py:50-81; community teleports community.py:140-185) ----

    def _hops(self, name: str, is_reverse: bool) -> tuple[list, list]:
        """(pred_names, other_names) of one vertex as Python strings."""
        preds, others = self.g.get_hops(name, is_reverse)
        return preds.tolist(), others.tolist()

    def _bfs(self, root: str, is_reverse: bool, rng) -> list[tuple[str, ...]]:
        walks: set[tuple[str, ...]] = {(root,)}
        comm = self.community
        for _ in range(self.max_depth):
            if self.frontier_cap is not None and len(walks) > self.frontier_cap:
                walks = set(
                    sorted(walks, key=lambda w: zlib.crc32(repr(w).encode()))[
                        : self.frontier_cap
                    ]
                )
            for walk in list(walks):
                tail = walk[0] if is_reverse else walk[-1]
                preds, others = self._hops(tail, is_reverse)
                if preds:
                    walks.remove(walk)
                    for p, o in zip(preds, others):
                        walks.add((o, p) + walk if is_reverse else walk + (p, o))
                        if comm is not None:
                            self._bfs_teleport(walks, walk, o, rng, is_reverse)
        return list(walks)

    def _bfs_teleport(self, walks, walk, other, rng, is_reverse):
        comm = self.community
        c = comm.community_of[other]
        if c >= 0 and rng.random_sample() < self.hop_prob:
            m = comm.members[c]
            pick = str(m[rng.randint(0, len(m))])
            # reference appends the community member WITHOUT a predicate
            # (community.py:163-185) — faithful, including the broken
            # alternation that creates
            walks.add((pick,) + walk if is_reverse else walk + (pick,))

    # -- DFS + sample_hop (random.py:83-118, sampler.py:138-180) ------------

    def _sample_hop(self, walk, is_last, is_reverse, visited, rng_factory):
        tail = walk[0] if is_reverse else walk[-1]
        depth = len(walk)
        cand = [
            po for po in zip(*self._hops(tail, is_reverse))
            if (po, depth) not in visited
        ]
        if not cand:
            if len(walk) > 2:
                po = (walk[1], walk[0]) if is_reverse else (walk[-2], walk[-1])
                visited.add((po, len(walk) - 2))
            return None
        keep, probs = self.sampler.hop_probabilities(
            [c[0] for c in cand], [c[1] for c in cand]
        )
        if len(probs) == 0:
            return None
        pos = int(keep[rng_factory().choice(len(probs), p=probs)])
        chosen = cand[pos]
        if is_last:
            visited.add((chosen, depth))
        return chosen

    def _dfs(self, entity: str, is_reverse: bool, comm_rng) -> list[tuple[str, ...]]:
        assert self.max_walks is not None
        visited: set = set()
        if self.seed_mode == "per_call" and self.random_state is not None:
            rng_factory = lambda: np.random.RandomState(self.random_state)  # noqa: E731
        else:
            stream = np.random.RandomState(_entity_seed(self.random_state, entity))
            rng_factory = lambda: stream  # noqa: E731
        comm = self.community
        walks: list[tuple[str, ...]] = []
        while len(walks) < self.max_walks:
            sub: tuple[str, ...] = (entity,)
            d = 1
            while d // 2 < self.max_depth:
                hop = self._sample_hop(
                    sub, d // 2 == self.max_depth - 1, is_reverse, visited, rng_factory
                )
                if hop is None:
                    break
                p, o = hop
                if comm is not None:
                    c = comm.community_of[o]
                    if c >= 0 and comm_rng.random_sample() < self.hop_prob:
                        m = comm.members[c]
                        o = str(m[comm_rng.randint(0, len(m))])
                sub = (o, p) + sub if is_reverse else sub + (p, o)
                d = len(sub) - 1
            walks.append(sub)
        return walks

    # -- entry (random.py:120-139) ------------------------------------------

    def extract_walks(self, entity: str) -> list[tuple[str, ...]]:
        comm_rng = np.random.RandomState(
            self.random_state
            if self.random_state is not None
            else _entity_seed(None, entity)
        )
        if self.max_walks is None:
            fwd = self._bfs(entity, False, comm_rng)
            if not self.with_reverse:
                return fwd
            rev = self._bfs(entity, True, comm_rng)
        else:
            fwd = self._dfs(entity, False, comm_rng)
            if not self.with_reverse:
                return fwd
            rev = self._dfs(entity, True, comm_rng)
        # r_walk[:-1] + walk, root centered (random.py:134-139)
        return [r[:-1] + w for w in fwd for r in rev]
