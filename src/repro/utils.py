"""Shared small utilities: seeding, normalization, and math helpers."""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "spawn_rng",
    "log_minmax_normalize",
    "stable_hash",
    "harmonic_number",
    "zipf_pmf",
    "zipf_cdf",
]


def spawn_rng(rng: np.random.Generator, *keys: object) -> np.random.Generator:
    """Derive a child generator deterministically from ``rng`` and ``keys``.

    The parent generator is not consumed; the child is seeded from a stable
    hash of the keys combined with one draw from a seed sequence spawned off
    the parent's bit generator state.  This keeps independent subsystems
    (cluster load, data generation, workload sampling) reproducible and
    decoupled: adding draws in one subsystem does not shift another.
    """
    base = rng.bit_generator.seed_seq  # type: ignore[attr-defined]
    entropy = getattr(base, "entropy", 0) or 0
    mixed = stable_hash((entropy, *keys))
    return np.random.default_rng(np.random.SeedSequence(mixed))


def stable_hash(key: object, n_buckets: int | None = None) -> int:
    """A deterministic, process-independent hash for identifiers.

    Python's builtin ``hash`` is salted per process for strings; this uses
    FNV-1a over the repr so that encodings are stable across runs.
    """
    data = repr(key).encode("utf-8")
    acc = 0xCBF29CE484222325
    for byte in data:
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    # splitmix64-style avalanche: plain FNV-1a leaves similar keys with
    # correlated low bits, which matters when bucketing hash encodings.
    acc = (acc ^ (acc >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    acc = (acc ^ (acc >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    acc ^= acc >> 31
    if n_buckets is not None:
        return acc % n_buckets
    return acc


def log_minmax_normalize(
    value: float, low: float, high: float, *, eps: float = 1e-9
) -> float:
    """Min-max normalize ``log(1 + value)`` into [0, 1].

    The paper log-normalizes numerical plan features such as the number of
    partitions and columns (Section 4) and the LOAD5 metric (Appendix B.2).
    ``low``/``high`` are bounds on the raw value, not its logarithm.
    """
    if value < 0:
        raise ValueError(f"log_minmax_normalize expects value >= 0, got {value}")
    lo = math.log1p(max(low, 0.0))
    hi = math.log1p(max(high, low + eps))
    x = math.log1p(value)
    return float(min(1.0, max(0.0, (x - lo) / max(hi - lo, eps))))


@functools.lru_cache(maxsize=4096)
def harmonic_number(n: int, s: float) -> float:
    """Generalized harmonic number ``H(n, s) = sum_{k=1..n} k^-s``.

    Memoized (bounded): every selectivity lookup on a Zipf column asks for
    ``H(ndv, skew)`` again, and the sum is over ``ndv`` terms.
    """
    if n <= 0:
        raise ValueError("harmonic_number requires n >= 1")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float(np.sum(ranks**-s))


def zipf_pmf(rank: int, ndv: int, s: float) -> float:
    """Probability of the ``rank``-th most frequent value of a Zipf(s) column."""
    if not 1 <= rank <= ndv:
        raise ValueError(f"rank {rank} out of range [1, {ndv}]")
    if s <= 1e-9:
        return 1.0 / ndv
    return rank**-s / harmonic_number(ndv, s)


def zipf_cdf(rank: int, ndv: int, s: float) -> float:
    """Cumulative probability mass of the top-``rank`` values of a Zipf(s) column."""
    if rank <= 0:
        return 0.0
    rank = min(rank, ndv)
    if s <= 1e-9:
        return rank / ndv
    return harmonic_number(rank, s) / harmonic_number(ndv, s)
