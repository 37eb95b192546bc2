"""The embedders under their distributed names (north_star: "fits
Word2Vec skip-gram embeddings on parameter-server actors"; the parameter
servers are object-store shards, see `embedders`).

`DistributedWord2Vec` and `DistributedFastText` are `embedders.Word2Vec`
and `embedders.FastText`, the one trainer class of each model, with four
corpus splits over two parameter shards by default instead of one over
one.
"""

from __future__ import annotations

from pyrdf2vec_ray.embedders import FastText, Word2Vec


class DistributedWord2Vec(Word2Vec):
    def __init__(self, num_workers: int = 4, num_ps: int = 2, **kwargs):
        super().__init__(num_workers=num_workers, num_ps=num_ps, **kwargs)


class DistributedFastText(FastText):
    def __init__(self, bucket: int = 2_000_000, func_computing_ngrams=None,
                 num_workers: int = 4, num_ps: int = 2, **kwargs):
        super().__init__(bucket, func_computing_ngrams,
                         num_workers=num_workers, num_ps=num_ps, **kwargs)
