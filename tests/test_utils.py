"""Tests for repro.utils."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils import (
    harmonic_number,
    log_minmax_normalize,
    spawn_rng,
    stable_hash,
    zipf_cdf,
    zipf_pmf,
)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("table_a") == stable_hash("table_a")

    def test_distinct_keys_differ(self):
        assert stable_hash("table_a") != stable_hash("table_b")

    def test_bucketed_range(self):
        for key in ("x", "y", ("t", 1), 42):
            assert 0 <= stable_hash(key, 10) < 10

    def test_tuple_keys(self):
        assert stable_hash((1, "a")) != stable_hash((1, "b"))

    @given(st.text(max_size=50), st.integers(min_value=1, max_value=1000))
    def test_bucket_always_in_range(self, key, n):
        assert 0 <= stable_hash(key, n) < n


class TestSpawnRng:
    def test_reproducible(self):
        a = spawn_rng(np.random.default_rng(1), "x")
        b = spawn_rng(np.random.default_rng(1), "x")
        assert a.random() == b.random()

    def test_keys_decouple(self):
        a = spawn_rng(np.random.default_rng(1), "x")
        b = spawn_rng(np.random.default_rng(1), "y")
        assert a.random() != b.random()

    def test_parent_not_consumed(self):
        parent = np.random.default_rng(1)
        before = parent.bit_generator.state["state"]["state"]
        spawn_rng(parent, "x")
        assert parent.bit_generator.state["state"]["state"] == before


class TestLogMinMaxNormalize:
    def test_bounds(self):
        assert log_minmax_normalize(1.0, 1.0, 100.0) == 0.0
        assert log_minmax_normalize(100.0, 1.0, 100.0) == pytest.approx(1.0)

    def test_clipped_above(self):
        assert log_minmax_normalize(1e9, 1.0, 100.0) == 1.0

    def test_monotone(self):
        values = [log_minmax_normalize(v, 0.0, 1000.0) for v in (0, 1, 10, 100, 1000)]
        assert values == sorted(values)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_minmax_normalize(-1.0, 0.0, 10.0)

    @given(st.floats(min_value=0.0, max_value=1e12))
    def test_always_in_unit_interval(self, v):
        assert 0.0 <= log_minmax_normalize(v, 0.0, 1e6) <= 1.0


class TestZipf:
    def test_uniform_when_skew_zero(self):
        assert zipf_pmf(1, 10, 0.0) == pytest.approx(0.1)
        assert zipf_pmf(10, 10, 0.0) == pytest.approx(0.1)

    def test_pmf_sums_to_one(self):
        total = sum(zipf_pmf(r, 50, 1.2) for r in range(1, 51))
        assert total == pytest.approx(1.0)

    def test_skew_concentrates_mass(self):
        assert zipf_pmf(1, 100, 1.5) > zipf_pmf(1, 100, 0.5) > zipf_pmf(1, 100, 0.0)

    def test_cdf_monotone_and_complete(self):
        cdf = [zipf_cdf(r, 20, 0.8) for r in range(0, 21)]
        assert cdf[0] == 0.0
        assert cdf[-1] == pytest.approx(1.0)
        assert all(a <= b for a, b in zip(cdf, cdf[1:]))

    def test_cdf_clamps_rank(self):
        assert zipf_cdf(100, 20, 0.8) == pytest.approx(1.0)

    def test_harmonic_rejects_nonpositive(self):
        for _ in range(2):  # an error is never served from the memo
            with pytest.raises(ValueError):
                harmonic_number(0, 1.0)
        with pytest.raises(ValueError):
            harmonic_number(-3, 0.5)

    def test_harmonic_memo_returns_the_fresh_sum(self):
        for n in (1, 2, 7, 100, 4096, 250_000):
            for s in (0.0, 0.3, 1.0, 1.1, 2.5):
                fresh = float(np.sum(np.arange(1, n + 1, dtype=np.float64) ** -s))
                assert harmonic_number(n, s) == fresh  # first call
                assert harmonic_number(n, s) == fresh  # from the memo

    def test_harmonic_memo_is_bounded(self):
        maxsize = harmonic_number.cache_info().maxsize
        assert maxsize is not None
        for n in range(1, maxsize + 200):
            harmonic_number(n, 0.75)
        assert harmonic_number.cache_info().currsize <= maxsize

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=0.0, max_value=3.0),
    )
    def test_pmf_bounded(self, rank, ndv, skew):
        if rank <= ndv:
            assert 0.0 < zipf_pmf(rank, ndv, skew) <= 1.0
