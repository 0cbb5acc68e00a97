"""SingleFlight: duplicate concurrent calls collapse into one execution,
on its own and behind the serving app's ``/reverse``."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.geo.reverse import ReverseGeocoder
from repro.geocode.backend import DirectBackend
from repro.geocode.service import GeocodeService
from repro.serving import AsyncServerThread, ServingApp, SingleFlight, SnapshotStore
from tests.serving.wire import WireClient


def _wait_until(predicate, timeout: float = 5.0) -> None:
    """Poll ``predicate`` until true (tests only; fails loudly on timeout)."""
    deadline = threading.Event()
    import time

    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return
        deadline.wait(0.002)
    raise AssertionError("condition not reached within timeout")


class TestSerialCalls:
    def test_each_serial_call_executes(self):
        flight = SingleFlight()
        calls = []
        for i in range(3):
            result = flight.do("key", lambda i=i: calls.append(i) or i)
            assert result == i
        assert calls == [0, 1, 2]
        stats = flight.stats()
        assert stats.leaders == 3
        assert stats.followers == 0
        assert flight.in_flight() == 0

    def test_distinct_keys_are_independent(self):
        flight = SingleFlight()
        assert flight.do("a", lambda: 1) == 1
        assert flight.do("b", lambda: 2) == 2
        assert flight.stats().leaders == 2


class TestCoalescing:
    def test_concurrent_duplicates_share_one_execution(self):
        flight = SingleFlight()
        release = threading.Event()
        executions = []

        def slow():
            executions.append(1)
            release.wait(5.0)
            return "shared"

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(flight.do, "cell", slow) for _ in range(8)]
            # Wait until the leader is inside `slow` and every other caller
            # is registered as a follower, then let the flight land.
            _wait_until(lambda: flight.stats().followers == 7)
            release.set()
            results = [f.result(timeout=5.0) for f in futures]

        assert results == ["shared"] * 8
        assert executions == [1]
        stats = flight.stats()
        assert stats.leaders == 1
        assert stats.followers == 7
        assert flight.in_flight() == 0

    def test_next_burst_starts_a_fresh_flight(self):
        """Results are not cached across flights — caching is the tier
        cache's job, not the coalescer's."""
        flight = SingleFlight()
        values = iter(["first", "second"])
        assert flight.do("k", lambda: next(values)) == "first"
        assert flight.do("k", lambda: next(values)) == "second"


class TestFailures:
    def test_leader_exception_reaches_every_follower(self):
        flight = SingleFlight()
        release = threading.Event()

        def boom():
            release.wait(5.0)
            raise ValueError("backend down")

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(flight.do, "cell", boom) for _ in range(4)]
            _wait_until(lambda: flight.stats().followers == 3)
            release.set()
            for future in futures:
                with pytest.raises(ValueError, match="backend down"):
                    future.result(timeout=5.0)

        stats = flight.stats()
        assert stats.failures == 1
        assert flight.in_flight() == 0

    def test_failed_flight_does_not_poison_the_key(self):
        flight = SingleFlight()

        def boom():
            raise RuntimeError("once")

        with pytest.raises(RuntimeError):
            flight.do("k", boom)
        assert flight.do("k", lambda: "recovered") == "recovered"

    def test_stats_as_dict(self):
        flight = SingleFlight()
        flight.do("k", lambda: None)
        assert flight.stats().as_dict() == {
            "leaders": 1,
            "followers": 0,
            "failures": 0,
        }


class TestServingPath:
    """``ServingApp`` enables single-flight on its geocode service, so
    concurrent cold ``/reverse`` requests for one cell cost one backend
    lookup, in-process and over the asyncio server alike."""

    REQUESTS = 6  # within the asyncio server's executor width

    @pytest.mark.parametrize("transport", ["dispatch", "asyncio"])
    def test_concurrent_cold_reverse_costs_one_lookup(
        self, small_ctx, korean_snapshot, transport
    ):
        release = threading.Event()
        lookups = []

        class GatedBackend:
            """Counts lookups and holds each until the test releases it."""

            def __init__(self, inner):
                self._inner = inner

            def lookup(self, point):
                lookups.append(point)
                release.wait(10.0)
                return self._inner.lookup(point)

        geocoder = GeocodeService(
            GatedBackend(
                DirectBackend(ReverseGeocoder(small_ctx.korean_dataset.gazetteer))
            )
        )
        app = ServingApp(SnapshotStore(korean_snapshot), geocoder)
        target = "/reverse?lat=37.5&lon=127.0"
        server = AsyncServerThread(app).start() if transport == "asyncio" else None

        def request():
            if server is None:
                return app.dispatch("GET", target)
            with WireClient(server.port) as client:
                return client.get(target)

        try:
            with ThreadPoolExecutor(max_workers=self.REQUESTS) as pool:
                futures = [pool.submit(request) for _ in range(self.REQUESTS)]
                try:
                    # Every request has arrived once it is in the backend
                    # or registered as a follower; then let the flight land.
                    _wait_until(
                        lambda: len(lookups) + app.flight.stats().followers
                        >= self.REQUESTS
                    )
                finally:
                    release.set()
                responses = [future.result(timeout=10.0) for future in futures]
        finally:
            if server is not None:
                server.shutdown()

        assert len(lookups) == 1
        assert app.flight.stats().followers == self.REQUESTS - 1
        assert [status for status, _ in responses] == [200] * self.REQUESTS
        assert len({body for _, body in responses}) == 1
