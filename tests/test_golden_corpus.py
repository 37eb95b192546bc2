"""Byte-for-byte parity with the reference's golden md5-hashed corpora
(tests/embedders/test_word2vec.py:8-77: CORPUS_LOOP / CORPUS_CHAIN).

Those constants are RandomWalker BFS depth-2 walks with md5_bytes=8,
extracted per root (so non-root entities are hashed).  Our engine must
emit EXACTLY those walk sets, including Python's bytes-repr token
format."""

from pyrdf2vec_ray import synth
from pyrdf2vec_ray.util import to_table
from pyrdf2vec_ray.walkers import WalkerSpec, extract_walks

URL = "http://pyRDF2Vec"

CORPUS_LOOP = {
    f"{URL}#Alice": {
        (f"{URL}#Alice", f"{URL}#knows", "b'\\x8b\\x93\\x8dx\\x1c\\xc7\\xd3\\xc9'",
         f"{URL}#loves", "b'\\x94\\xefX\\x0c\\x04l4E'"),
        (f"{URL}#Alice", f"{URL}#knows", "b'\\x1eK\\xad\\xc6\\xb6\\x1cu:'",
         f"{URL}#knows", "b'\\x8b\\x93\\x8dx\\x1c\\xc7\\xd3\\xc9'"),
    },
    f"{URL}#Bob": {
        (f"{URL}#Bob", f"{URL}#knows", "b'\\x8b\\x93\\x8dx\\x1c\\xc7\\xd3\\xc9'",
         f"{URL}#loves", "b'\\x94\\xefX\\x0c\\x04l4E'"),
    },
    f"{URL}#Dean": {
        (f"{URL}#Dean", f"{URL}#loves", "b'\\x94\\xefX\\x0c\\x04l4E'",
         f"{URL}#knows", "b'\\x1eK\\xad\\xc6\\xb6\\x1cu:'"),
        (f"{URL}#Dean", f"{URL}#loves", "b'\\x94\\xefX\\x0c\\x04l4E'",
         f"{URL}#knows", "b'\\x8b\\x93\\x8dx\\x1c\\xc7\\xd3\\xc9'"),
    },
}

CORPUS_CHAIN = {
    f"{URL}#Dean": {(f"{URL}#Dean",)},
    f"{URL}#Alice": {
        (f"{URL}#Alice", f"{URL}#knows", "b'\\x8b\\x93\\x8dx\\x1c\\xc7\\xd3\\xc9'"),
        (f"{URL}#Alice", f"{URL}#knows", "b'\\x1eK\\xad\\xc6\\xb6\\x1cu:'",
         f"{URL}#knows", "b'1\\xa1\\x90\\xf2e\\x8a%\\x17'"),
    },
    f"{URL}#Bob": {
        (f"{URL}#Bob", f"{URL}#knows", "b'1\\xa1\\x90\\xf2e\\x8a%\\x17'",
         f"{URL}#knows", "b'\\x87)K\\xbf5!\\x13\\x00'"),
    },
}


def corpus_for(gi, root):
    spec = WalkerSpec(
        strategy="random", max_depth=2, max_walks=None, md5_bytes=8,
        md5_positional=True,
    )
    t = to_table(extract_walks(gi, [root], spec, concurrency=1))
    out = set()
    for walks in t["walks"].to_pylist():
        out |= {tuple(w) for w in walks}
    return out


def test_golden_corpus_loop(sharded_index):
    gi = sharded_index(synth.LOOP)
    for root, want in CORPUS_LOOP.items():
        assert corpus_for(gi, root) == want, root


def test_golden_corpus_chain(sharded_index):
    gi = sharded_index(synth.LONG_CHAIN)
    for root, want in CORPUS_CHAIN.items():
        assert corpus_for(gi, root) == want, root
