"""Warm-artifact layer: keys, LRU bounds, build dedup, warm==cold.

The cache's contract (docs/serving.md): a warm request is bit-identical
to a cold one — artifacts only skip recomputation, never change results
— and the key covers everything the artifacts depend on (case digest,
pricing knobs, epoch), so over-sharing is structurally impossible.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import (
    ArtifactCache,
    RouteRequest,
    RouterConfig,
    build_artifacts,
    route_request,
)
from repro.benchgen import load_case
from repro.core.artifacts import PRICING_FIELDS, artifact_key, case_digest
from repro.timing import DelayModel


@pytest.fixture(scope="module")
def tiny_case():
    case = load_case("case02")
    return case.system, case.netlist, DelayModel()


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
class TestArtifactKey:
    def test_digest_is_stable(self, tiny_case):
        system, netlist, dm = tiny_case
        assert case_digest(system, netlist, dm) == case_digest(system, netlist, dm)

    def test_epoch_partitions_the_key(self, tiny_case):
        system, netlist, dm = tiny_case
        config = RouterConfig()
        k0 = artifact_key(system, netlist, dm, config, epoch=0)
        k1 = artifact_key(system, netlist, dm, config, epoch=1)
        assert k0 != k1

    def test_pricing_knobs_partition_the_key(self, tiny_case):
        system, netlist, dm = tiny_case
        base = artifact_key(system, netlist, dm, RouterConfig(), epoch=0)
        bumped = artifact_key(
            system, netlist, dm, RouterConfig(mu_shared=0.75), epoch=0
        )
        assert base != bumped
        assert "mu_shared" in PRICING_FIELDS

    def test_irrelevant_knobs_share_the_key(self, tiny_case):
        # Phase II knobs never touch the phase I artifacts: same key.
        system, netlist, dm = tiny_case
        a = artifact_key(system, netlist, dm, RouterConfig(), epoch=0)
        b = artifact_key(
            system, netlist, dm, RouterConfig(lr_max_iterations=8), epoch=0
        )
        assert a == b


class TestBuildArtifacts:
    def test_build_is_deterministic(self, tiny_case):
        system, netlist, dm = tiny_case
        one = build_artifacts(system, netlist, dm)
        two = build_artifacts(system, netlist, dm)
        assert one.order == two.order
        assert one.weight_mode == two.weight_mode
        assert one.nbytes == two.nbytes > 0


# ----------------------------------------------------------------------
# LRU mechanics
# ----------------------------------------------------------------------
class TestCacheBasics:
    def test_hit_miss_accounting(self):
        cache = ArtifactCache(max_entries=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_contains_probe_does_not_count(self):
        cache = ArtifactCache()
        cache.put("a", 1)
        assert "a" in cache and "b" not in cache
        assert cache.stats.hits == 0 and cache.stats.misses == 0

    def test_entry_bound_evicts_least_recently_used(self):
        cache = ArtifactCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.keys() == ["a", "c"]
        assert cache.stats.evictions == 1

    def test_byte_bound_evicts_by_nbytes(self):
        class Blob:
            def __init__(self, nbytes):
                self.nbytes = nbytes

        cache = ArtifactCache(max_entries=None, max_bytes=100)
        cache.put("a", Blob(60))
        cache.put("b", Blob(60))  # 120 > 100: a goes
        assert cache.keys() == ["b"]
        assert cache.stats.evictions == 1

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_entries=0)
        with pytest.raises(ValueError):
            ArtifactCache(max_bytes=0)


class TestInFlightDedup:
    def test_concurrent_misses_build_once(self):
        cache = ArtifactCache()
        release = threading.Event()
        builds = []

        def slow_build():
            release.wait(5)
            builds.append(1)
            return "value"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    cache.get_or_build("k", slow_build)
                )
            )
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        # Let the losers park on the in-flight event before releasing.
        deadline = threading.Event()
        deadline.wait(0.05)
        release.set()
        for t in threads:
            t.join(5)
        assert results == ["value"] * 3
        assert len(builds) == 1
        assert cache.stats.misses == 1
        assert cache.stats.in_flight_waits == 2

    def test_failed_build_releases_and_allows_retry(self):
        cache = ArtifactCache()

        def broken():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            cache.get_or_build("k", broken)
        assert cache.get_or_build("k", lambda: 42) == 42
        assert "k" in cache


# ----------------------------------------------------------------------
# Warm == cold
# ----------------------------------------------------------------------
class TestWarmVsCold:
    def test_warm_fingerprint_is_bit_identical(self):
        cache = ArtifactCache()
        request = RouteRequest(contest_case="case02")
        cold_run = route_request(
            RouteRequest(contest_case="case02", warm_cache=False)
        )
        first = route_request(request, cache=cache)
        second = route_request(request, cache=cache)
        assert first.cache["artifacts"] == "miss"
        assert second.cache["artifacts"] == "hit"
        assert first.fingerprint == second.fingerprint == cold_run.fingerprint
        assert cold_run.cache == {"artifacts": "off"}
