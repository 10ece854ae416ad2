"""Unit tests for the parallel-map substrate."""

import os
import threading

import pytest

from repro.parallel import (
    ParallelExecutor,
    WORKERS_ENV_VAR,
    resolve_workers,
)


class TestParallelExecutor:
    def test_sequential_preserves_order(self):
        executor = ParallelExecutor(1)
        assert executor.map(lambda x: x * 2, range(5)) == [0, 2, 4, 6, 8]
        assert not executor.is_parallel

    def test_parallel_preserves_order(self):
        executor = ParallelExecutor(4)
        assert executor.is_parallel
        assert executor.map(lambda x: x * 2, range(20)) == [x * 2 for x in range(20)]

    def test_parallel_actually_uses_threads(self):
        executor = ParallelExecutor(4)
        seen = set()

        def record(x):
            seen.add(threading.get_ident())
            return x

        executor.map(record, range(50))
        # At least the work ran; thread count may be 1 on a 1-core box but
        # the pool path must not crash or reorder.
        assert len(seen) >= 1

    def test_zero_workers_is_sequential(self):
        executor = ParallelExecutor(0)
        assert not executor.is_parallel
        assert executor.map(str, [1]) == ["1"]

    def test_none_picks_paper_default(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        executor = ParallelExecutor(None)
        assert executor.num_workers == min(10, os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(-1)

    def test_same_result_sequential_vs_parallel(self):
        items = list(range(37))
        sequential = ParallelExecutor(1).map(lambda x: x**2 % 7, items)
        parallel = ParallelExecutor(4).map(lambda x: x**2 % 7, items)
        assert sequential == parallel


class TestPersistentPool:
    def test_pool_created_lazily_and_reused(self):
        with ParallelExecutor(4) as executor:
            assert executor._pool is None
            executor.map(lambda x: x, range(8))
            pool = executor._pool
            assert pool is not None
            executor.map(lambda x: x, range(8))
            assert executor._pool is pool

    def test_close_releases_pool_and_is_idempotent(self):
        executor = ParallelExecutor(4)
        executor.map(lambda x: x, range(8))
        executor.close()
        assert executor._pool is None
        executor.close()
        # A closed executor stays usable; it just re-creates the pool.
        assert executor.map(lambda x: x + 1, range(4)) == [1, 2, 3, 4]
        executor.close()

    def test_context_manager_closes(self):
        with ParallelExecutor(4) as executor:
            assert executor.map(str, range(4)) == ["0", "1", "2", "3"]
            assert executor._pool is not None
        assert executor._pool is None

    def test_sequential_never_creates_pool(self):
        with ParallelExecutor(1) as executor:
            executor.map(lambda x: x, range(10))
            assert executor._pool is None

    def test_single_item_stays_sequential(self):
        with ParallelExecutor(4) as executor:
            assert executor.map(lambda x: x * 3, [2]) == [6]
            assert executor._pool is None


class TestResolveWorkers:
    def test_explicit_count_never_consults_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        assert resolve_workers(3) == (3, False)

    def test_none_honors_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "6")
        assert resolve_workers(None) == (6, True)

    def test_none_without_env_uses_paper_default(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(None) == (min(10, os.cpu_count() or 1), False)

    def test_blank_env_falls_through(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "  ")
        assert resolve_workers(None) == (min(10, os.cpu_count() or 1), False)

    @pytest.mark.parametrize("raw", ["four", "-2", "2.5"])
    def test_malformed_env_raises(self, monkeypatch, raw):
        monkeypatch.setenv(WORKERS_ENV_VAR, raw)
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
            resolve_workers(None)

    def test_env_zero_means_sequential(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        assert resolve_workers(None) == (0, True)
        executor = ParallelExecutor(None)
        assert not executor.is_parallel
        assert executor.workers_from_env

    def test_executor_records_provenance(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        assert ParallelExecutor(None).workers_from_env is True
        assert ParallelExecutor(2).workers_from_env is False
