"""RDF2VecTransformer-equivalent orchestration (reference rdf2vec.py).

fit → walk extraction per walker over a ``ShardedGraphIndex`` (Dataset
pipelines, corpora unioned in walker order like rdf2vec.py:178-181) →
embedder fit; transform → vectors in entity order + literal matrix;
online ``_update`` semantics (rdf2vec.py:248-272): re-fitting with
already-seen entities replaces their stored walks; save/load pickles
the whole transformer (rdf2vec.py:238-246).
"""

from __future__ import annotations

import pickle
import time

from pyrdf2vec_ray.embedders import Word2Vec
from pyrdf2vec_ray.literals import get_literals
from pyrdf2vec_ray.state.sharded_graph import ShardedGraphIndex
from pyrdf2vec_ray.util import to_table
from pyrdf2vec_ray.walkers import WalkerSpec, extract_walks


class RDF2VecTransformer:
    def __init__(
        self,
        embedder=None,
        walkers: list[WalkerSpec] | None = None,
        literals: list[list[str]] | None = None,
        verbose: int = 0,
    ):
        self.embedder = embedder if embedder is not None else Word2Vec()
        self.walkers = walkers if walkers is not None else [WalkerSpec()]
        self.literals = literals or []
        self.verbose = verbose
        # accumulated state (rdf2vec.py:80-86)
        self._entities: list[str] = []
        self._walks: list[list[list[str]]] = []   # per (walker, entity) rows
        self._pos: dict[str, list[int]] = {}      # entity → row indices

    # -- walks ---------------------------------------------------------------

    def get_walks(self, gi: ShardedGraphIndex, entities: list[str]) -> list[list[list[str]]]:
        """One corpus row per (walker, entity): List[List[SWalk]].  Raises
        ValueError on the driver for entities not in the graph, like the
        reference (rdf2vec.py:166-172), before any walk task runs."""
        g = gi.local()
        missing = [e for e in entities if not g.contains_one(e)]
        if missing:
            raise ValueError(
                f"The provided entities must be in the Knowledge Graph: {missing}"
            )
        tic = time.perf_counter()
        rows: list[list[list[str]]] = []
        for spec in self.walkers:
            ds = extract_walks(gi, entities, spec)
            t = to_table(ds)
            by_entity: dict[str, list] = {}
            for e, walks in zip(t["entity"].to_pylist(), t["walks"].to_pylist()):
                by_entity.setdefault(e, []).extend(tuple(w) for w in walks)
            rows.extend([by_entity.get(e, []) for e in entities])
        if self.verbose:
            n = sum(len(r) for r in rows)
            print(f"Extracted {n} walks for {len(entities)} entities "
                  f"({time.perf_counter() - tic:.4f}s)")
        return rows

    def fit(self, gi: ShardedGraphIndex, entities: list[str], is_update: bool = False):
        walks = self.get_walks(gi, entities)
        self._update(entities, walks)
        tic = time.perf_counter()
        self.embedder.fit(walks, is_update)
        if self.verbose:
            print(f"Fitted walks ({time.perf_counter() - tic:.4f}s)")
        return self

    def _update(self, entities: list[str], walks: list[list[list[str]]]):
        """Online bookkeeping (rdf2vec.py:248-272): walks of re-seen
        entities replace the stored rows."""
        n_walkers = len(self.walkers)
        for i, e in enumerate(entities):
            rows = [walks[w * len(entities) + i] for w in range(n_walkers)]
            if e in self._pos:
                for pos, row in zip(self._pos[e], rows):
                    self._walks[pos] = row
            else:
                idxs = []
                for row in rows:
                    idxs.append(len(self._walks))
                    self._walks.append(row)
                self._pos[e] = idxs
                self._entities.append(e)

    # -- transform -----------------------------------------------------------

    def transform(self, gi: ShardedGraphIndex, entities: list[str]):
        embeddings = self.embedder.transform(entities)
        literals = get_literals(gi, entities, self.literals)
        if self.verbose and self.literals:
            print(f"Extracted {len(literals)} literals for {len(entities)} entities")
        return embeddings, literals

    def fit_transform(self, gi: ShardedGraphIndex, entities: list[str], is_update: bool = False):
        self.fit(gi, entities, is_update)
        return self.transform(gi, entities)

    # -- persistence (rdf2vec.py:238-246, 274-292) ---------------------------

    def save(self, filename: str = "transformer_data") -> None:
        with open(filename, "wb") as f:
            pickle.dump(self, f)

    @staticmethod
    def load(filename: str = "transformer_data") -> "RDF2VecTransformer":
        with open(filename, "rb") as f:
            obj = pickle.load(f)
        if not isinstance(obj, RDF2VecTransformer):
            raise ValueError("Failed to load the RDF2VecTransformer object")
        return obj
