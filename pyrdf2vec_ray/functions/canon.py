"""Per-walk canonicalizers (SURVEY.md §2.5) — pure functions over name
walks, applied inside map_batches / the walk actor.  Each mirrors one
reference walker's rewrite rule; citations inline."""

from __future__ import annotations

import itertools
import math
import re
from hashlib import md5


def md5_token(name: str, md5_bytes: int) -> str:
    """str(md5(name).digest()[:b]) — the reference's memory-saving vertex
    token (random.py:142-163); reproduces Python's bytes repr exactly
    (golden corpora in tests/embedders/test_word2vec.py:8-77)."""
    return str(md5(name.encode()).digest()[:md5_bytes])


def map_random(
    walk: list[str], entities: frozenset, md5_bytes: int | None,
    positional: bool = False,
) -> tuple:
    """RandomWalker._map_vertex (random.py:142-163): entities of interest
    and odd (predicate) positions keep the IRI; other even positions hash.

    positional=True reproduces the older rule baked into the reference's
    golden corpora (tests/embedders/test_word2vec.py:8-77): keep ONLY the
    root position and predicates; hash every other even position even when
    it is an entity of interest."""
    if md5_bytes is None:
        return tuple(walk)
    if positional:
        return tuple(
            name if i == 0 or i % 2 == 1 else md5_token(name, md5_bytes)
            for i, name in enumerate(walk)
        )
    return tuple(
        name
        if name in entities or i % 2 == 1
        else md5_token(name, md5_bytes)
        for i, name in enumerate(walk)
    )


def map_anonymous(walk: list[str], root: str) -> tuple:
    """AnonymousWalker (anonymous.py:38-60): non-root names → str(index of
    first occurrence in the walk's name list)."""
    return tuple(
        name if name == root else str(walk.index(name)) for name in walk
    )


def map_walklets(walk: list[str], root: str, with_reverse: bool) -> set[tuple]:
    """WalkletWalker (walklet.py:38-59): 1-/2-token walklets."""
    out: set[tuple] = set()
    if len(walk) == 1:
        out.add((walk[0],))
    for i in range(1, len(walk)):
        out.add((walk[i], root) if with_reverse else (root, walk[i]))
    return out


def split_walk(walk: list[str], with_reverse: bool) -> tuple:
    """SplitWalker.basic_split (split.py:53-125): strip IRI prefix at '#',
    CamelCase split, numeric normalization str(float(x)) for objects,
    lowercase, order-preserving dedup of the token sequence."""
    tmp_vertices: list[list[str]] = []
    canonical: list[str] = [walk[0]] if with_reverse else []
    for i in range(1, len(walk)):
        raw = walk[i]
        if "http" in raw:
            parts = " ".join(re.split("[#]", raw)).split()
            name = parts[-1] if parts else raw
        else:
            name = raw
        vertices = [s for s in re.split(r"([A-Z][a-z]*)", name) if s]
        if i % 2 != 1:  # object positions
            try:
                vertices = [str(float(name))]
            except ValueError:
                vertices = re.sub("[^A-Za-z0-9]+", " ", name).split()
                if len(vertices) == 1:
                    m = re.match(r"([a-z]+)([0-9]+)", vertices[0], re.I)
                    if m:
                        vertices = list(m.groups())
        if with_reverse:
            if tmp_vertices:
                tmp_vertices.append(vertices)
                tmp_vertices.reverse()
                for v in tmp_vertices:
                    for vertex in v:
                        canonical.append(vertex.lower())
                tmp_vertices = []
            else:
                tmp_vertices.append(vertices)
        else:
            for vertex in vertices:
                canonical.append(vertex.lower())
    if with_reverse:
        canonical.append(walk[0])
    # order-preserving dedup (split.py:122-124: dict(zip(w, w)))
    return tuple(dict(zip(canonical, canonical)))


def ngram_keys(walk: list[str], grams: int) -> list[tuple]:
    """The distinct n-gram keys a walk will request (for the global
    deterministic id-assignment pass)."""
    return [
        tuple(walk[max(0, i - (grams - 1)) : i + 1])
        for i in range(len(walk))
        if not (i == 0 or i % 2 == 1 or i < grams)
    ]


def wildcard_variants(walk: list[str], wildcards: list[int]) -> list[list[str]]:
    """NGram wildcard substitutions (ngram.py:101-112)."""
    out = []
    for wildcard in wildcards:
        for idx in itertools.combinations(range(1, len(walk)), wildcard):
            new_walk = list(walk)
            for ix in idx:
                new_walk[ix] = "*"
            out.append(new_walk)
    return out


def map_wl(walk: list[str], entities: frozenset, labels: dict[str, list[str]], n: int) -> tuple:
    """WLWalker._map_wl (weisfeiler_lehman.py:155-173): entities of interest
    and predicates keep names; other even positions take the WL label at
    iteration n."""
    return tuple(
        name
        if name in entities or i % 2 == 1
        else labels[name][n]
        for i, name in enumerate(walk)
    )


def halk_rebuild(
    entity_walks: list[tuple],
    rare_predicates: set[str],
    with_reverse: bool,
) -> list[tuple]:
    """HALKWalker._post_extract inner rebuild (halk.py:146-176), including
    the reference's literal obj-index arithmetic for the non-reverse path
    (`walk[i] if i % 2 == 0 else walk[i+1]`, halk.py:163 — for the 3rd+ hop
    this re-reads an earlier object; reproduced for parity)."""
    if not entity_walks:
        return []
    if not with_reverse:
        curr_entity = entity_walks[0][0]
    else:
        w0 = list(entity_walks[0])
        curr_entity = w0[math.trunc(len(w0) / 2)]
    canonical_walks = []
    for walk in entity_walks:
        canonical = [curr_entity] if not with_reverse else [walk[0]]
        j = 0
        for i, vertex in enumerate(walk[1::2], 2):
            if vertex not in rare_predicates:
                if with_reverse:
                    obj = walk[i + j]
                    j += 1
                else:
                    obj = walk[i] if i % 2 == 0 else walk[i + 1]
                canonical += [vertex, obj]
        if len(canonical) >= 3:
            canonical_walks.append(tuple(canonical))
    return canonical_walks if canonical_walks else [(curr_entity,)]
