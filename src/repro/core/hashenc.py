"""Multi-segment hash encoding of table/column identifiers (Appendix B.1).

Standard one-hot encodings explode with MaxCompute's table/column counts, and
a single hash bucket collides quickly.  LOAM encodes each identifier into a
``n_segments × segment_dim`` binary vector: segment *i* sets position
``f_i(T) mod segment_dim`` using an independent hash function ``f_i``.  With
5 segments of 10 dims, ~10^5 identifiers are reliably distinguishable while
the encoding stays 50-dimensional.  Multiple identifiers (e.g. all columns in
a filter) are encoded as the union (logical OR) of their encodings.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.utils import stable_hash

__all__ = ["MultiSegmentHashEncoder"]


class MultiSegmentHashEncoder:
    """Deterministic multi-hash identifier encoder.

    Encodings are memoized per identifier: catalogs are bounded (thousands of
    tables/columns), while plan encoding touches the same identifiers on every
    candidate of every query, so the amortized cost of :meth:`encode` drops to
    a dict lookup on the online serving path.
    """

    def __init__(self, n_segments: int = 5, segment_dim: int = 10) -> None:
        if n_segments < 1 or segment_dim < 1:
            raise ValueError("n_segments and segment_dim must be >= 1")
        self.n_segments = n_segments
        self.segment_dim = segment_dim
        self._memo: dict[str, np.ndarray] = {}

    @property
    def dim(self) -> int:
        return self.n_segments * self.segment_dim

    def encode(self, identifier: str) -> np.ndarray:
        """Encode one identifier into a {0,1}^dim vector.

        The returned array is a shared memoized buffer — callers must not
        mutate it in place (copy first, or assign into a destination slice).
        """
        cached = self._memo.get(identifier)
        if cached is not None:
            return cached
        out = np.zeros(self.dim)
        for segment in range(self.n_segments):
            bucket = stable_hash((segment, identifier), self.segment_dim)
            out[segment * self.segment_dim + bucket] = 1.0
        out.setflags(write=False)
        self._memo[identifier] = out
        return out

    def encode_many(self, identifiers: Iterable[str]) -> np.ndarray:
        """Union encoding of several identifiers (e.g. filter columns)."""
        out = np.zeros(self.dim)
        for identifier in identifiers:
            np.maximum(out, self.encode(identifier), out=out)
        return out
