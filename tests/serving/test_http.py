"""ServingApp dispatch: routing, admission, metrics, reload, real HTTP."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.serialization import save_study
from repro.errors import StorageError
from repro.serving import StudyServer, TokenBucket, encode_body, load_snapshot
from tests.analysis.test_serialization import BAD_STUDY_NAMES, write_bad_studies
from tests.serving.test_ratelimit import FakeClock


def body_of(response: tuple[int, bytes]) -> dict:
    return json.loads(response[1])


class TestRouting:
    def test_all_endpoints_answer(self, make_app, korean_snapshot):
        app = make_app()
        user_id = next(iter(korean_snapshot.users))
        state = next(iter(korean_snapshot.regions))
        for target in (
            "/",
            "/healthz",
            "/metrics",
            "/regions",
            "/stats",
            f"/lookup?user={user_id}",
            f"/region?state={state}",
            "/reverse?lat=37.5&lon=127.0",
        ):
            status, payload = app.dispatch("GET", target)
            assert status == 200, target
            json.loads(payload)  # every body is valid JSON

    def test_unknown_endpoint_is_404(self, make_app):
        status, payload = make_app().dispatch("GET", "/nope")
        assert status == 404
        assert "unknown endpoint" in body_of((status, payload))["error"]

    def test_trailing_slash_is_normalised(self, make_app):
        app = make_app()
        assert app.dispatch("GET", "/healthz/") == app.dispatch("GET", "/healthz")

    def test_non_get_on_data_endpoint_is_405(self, make_app):
        assert make_app().dispatch("POST", "/regions")[0] == 405

    def test_bodies_are_canonical_json(self, make_app):
        """Keys are sorted and UTF-8 is unescaped — the byte-identity
        contract's encoding half."""
        status, payload = make_app().dispatch("GET", "/stats")
        assert payload == encode_body(json.loads(payload))


class TestAdmission:
    def test_data_requests_shed_with_429(self, make_app, korean_snapshot):
        clock = FakeClock()
        app = make_app(bucket=TokenBucket(rate=1.0, burst=2, clock=clock))
        user_id = next(iter(korean_snapshot.users))
        target = f"/lookup?user={user_id}"
        assert app.dispatch("GET", target)[0] == 200
        assert app.dispatch("GET", target)[0] == 200
        status, payload = app.dispatch("GET", target)
        assert status == 429
        assert "rate limited" in body_of((status, payload))["error"]
        assert app.metrics.snapshot()["serving.shed"] == 1

    def test_operational_endpoints_never_shed(self, make_app):
        clock = FakeClock()
        app = make_app(bucket=TokenBucket(rate=1.0, burst=1, clock=clock))
        app.dispatch("GET", "/regions")  # drains the only token
        for target in ("/healthz", "/metrics", "/"):
            assert app.dispatch("GET", target)[0] == 200
        assert app.dispatch("GET", "/regions")[0] == 429

    def test_tokens_refill_after_shedding(self, make_app):
        clock = FakeClock()
        app = make_app(bucket=TokenBucket(rate=10.0, burst=1, clock=clock))
        assert app.dispatch("GET", "/regions")[0] == 200
        assert app.dispatch("GET", "/regions")[0] == 429
        clock.advance(0.1)
        assert app.dispatch("GET", "/regions")[0] == 200


class TestMetrics:
    def test_latency_histograms_per_endpoint(self, make_app, korean_snapshot):
        app = make_app()
        user_id = next(iter(korean_snapshot.users))
        for _ in range(5):
            app.dispatch("GET", f"/lookup?user={user_id}")
        app.dispatch("GET", "/regions")
        metrics = body_of(app.dispatch("GET", "/metrics"))["metrics"]
        assert metrics["serving.latency.lookup.count"] == 5
        assert metrics["serving.latency.regions.count"] == 1
        for quantile in ("p50", "p95", "p99"):
            assert metrics[f"serving.latency.lookup.{quantile}"] >= 0.0
        assert metrics["serving.requests"] >= 6

    def test_flight_and_geocode_sources_registered(self, make_app):
        app = make_app()
        app.dispatch("GET", "/reverse?lat=37.5&lon=127.0")
        metrics = body_of(app.dispatch("GET", "/metrics"))["metrics"]
        assert metrics["serving.flight.leaders"] == 1
        assert metrics["serving.geocode.backend.lookups"] == 1
        assert metrics["serving.snapshot.generation"] == 1

    def test_duplicate_reverse_hits_the_cache_not_the_backend(self, make_app):
        app = make_app()
        for _ in range(4):
            app.dispatch("GET", "/reverse?lat=37.5&lon=127.0")
        metrics = body_of(app.dispatch("GET", "/metrics"))["metrics"]
        assert metrics["serving.geocode.backend.lookups"] == 1
        assert metrics["serving.geocode.l1.hits"] == 3

    def test_snapshot_age_and_generation_surface_everywhere(
        self, small_ctx, korean_snapshot, ladygaga_snapshot
    ):
        """/metrics and /healthz expose snapshot age + generation, driven
        by the store's injected clock so freshness is testable."""
        from repro.geo.reverse import ReverseGeocoder
        from repro.geocode.backend import DirectBackend
        from repro.geocode.service import GeocodeService
        from repro.serving import ServingApp, SnapshotStore

        clock = FakeClock()
        store = SnapshotStore(korean_snapshot, clock=clock)
        geocoder = GeocodeService(
            DirectBackend(ReverseGeocoder(small_ctx.korean_dataset.gazetteer))
        )
        app = ServingApp(store, geocoder)
        clock.advance(30.25)
        metrics = body_of(app.dispatch("GET", "/metrics"))["metrics"]
        assert metrics["serving.snapshot.age_seconds"] == 30.25
        assert metrics["serving.snapshot.generation"] == 1
        health = body_of(app.dispatch("GET", "/healthz"))
        assert health["age_seconds"] == 30.25
        assert health["generation"] == 1
        store.swap(ladygaga_snapshot)
        health = body_of(app.dispatch("GET", "/healthz"))
        assert health["age_seconds"] == 0.0
        assert health["generation"] == 2


class TestReload:
    def test_reload_not_configured_is_400(self, make_app):
        assert make_app().dispatch("POST", "/admin/reload")[0] == 400

    def test_reload_requires_post(self, make_app, korean_snapshot):
        app = make_app(reloader=lambda: korean_snapshot)
        assert app.dispatch("GET", "/admin/reload")[0] == 405

    def test_reload_swaps_the_snapshot(
        self, make_app, korean_snapshot, ladygaga_snapshot
    ):
        app = make_app(reloader=lambda: ladygaga_snapshot)
        status, payload = app.dispatch("POST", "/admin/reload")
        assert status == 200
        body = json.loads(payload)
        assert body["previous"] == korean_snapshot.version
        assert body["current"] == ladygaga_snapshot.version
        assert body["changed"] is True
        assert body["generation"] == 2
        health = body_of(app.dispatch("GET", "/healthz"))
        assert health["version"] == ladygaga_snapshot.version

    def test_reload_to_equal_snapshot_reports_unchanged(
        self, make_app, small_ctx, korean_snapshot
    ):
        from repro.serving import ServingSnapshot

        app = make_app(
            reloader=lambda: ServingSnapshot.from_study(small_ctx.korean_study)
        )
        body = body_of(app.dispatch("POST", "/admin/reload"))
        assert body["changed"] is False
        assert body["current"] == korean_snapshot.version

    def test_failed_reload_keeps_the_old_snapshot(self, make_app, korean_snapshot):
        def broken():
            raise StorageError("study.json is torn")

        app = make_app(reloader=broken)
        status, payload = app.dispatch("POST", "/admin/reload")
        assert status == 500
        assert "study.json is torn" in json.loads(payload)["error"]
        health = body_of(app.dispatch("GET", "/healthz"))
        assert health["version"] == korean_snapshot.version
        assert health["generation"] == 1
        metrics = body_of(app.dispatch("GET", "/metrics"))["metrics"]
        assert metrics["serving.reload_failures"] == 1

    @pytest.mark.parametrize("name", BAD_STUDY_NAMES)
    def test_reload_of_bad_study_file_keeps_the_old_snapshot(
        self, make_app, small_ctx, korean_snapshot, tmp_path, name
    ):
        gazetteer = small_ctx.korean_dataset.gazetteer
        path = write_bad_studies(tmp_path)[name]
        app = make_app(snapshot_loader=lambda target: load_snapshot(target, gazetteer))
        status, payload = app.dispatch("POST", f"/admin/reload?snapshot={path}")
        assert status == 500
        assert json.loads(payload)["error"].startswith("reload failed:")
        health = body_of(app.dispatch("GET", "/healthz"))
        assert health["version"] == korean_snapshot.version
        assert health["generation"] == 1
        metrics = body_of(app.dispatch("GET", "/metrics"))["metrics"]
        assert metrics["serving.reload_failures"] == 1


class TestLatencyEpochAcrossReload:
    def test_window_resets_on_swap_lifetime_survives(
        self, small_ctx, make_app, tmp_path
    ):
        path = tmp_path / "korean.json"
        save_study(small_ctx.korean_study, path)
        app = make_app(
            reloader=lambda: load_snapshot(path, small_ctx.korean_dataset.gazetteer)
        )
        user_id = next(iter(app.store.current().users))
        target = f"/lookup?user={user_id}"
        for _ in range(5):
            app.dispatch("GET", target)
        histogram = app.metrics.histogram("serving.latency.lookup")
        assert histogram.count == 5
        assert histogram.epoch == 1
        assert len(histogram._ring) == 5

        app.dispatch("POST", "/admin/reload")
        app.dispatch("GET", target)
        assert histogram.epoch == 2
        # Window holds only the post-swap sample; lifetime spans both.
        assert len(histogram._ring) == 1
        assert histogram.count == 6


class TestHttpServer:
    @pytest.fixture
    def server(self, make_app, korean_snapshot, ladygaga_snapshot):
        app = make_app(reloader=lambda: ladygaga_snapshot)
        server = StudyServer(app, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

    def _get(self, server: StudyServer, path: str) -> tuple[int, dict]:
        url = f"http://127.0.0.1:{server.port}{path}"
        try:
            with urllib.request.urlopen(url) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_healthz_and_lookup_over_real_sockets(self, server, korean_snapshot):
        status, body = self._get(server, "/healthz")
        assert status == 200
        assert body["version"] == korean_snapshot.version
        user_id = next(iter(korean_snapshot.users))
        status, body = self._get(server, f"/lookup?user={user_id}")
        assert status == 200
        assert body["user_id"] == user_id

    def test_error_statuses_cross_the_wire(self, server):
        assert self._get(server, "/lookup?user=zzz")[0] == 400
        assert self._get(server, "/nope")[0] == 404

    def test_admin_reload_over_post(self, server, ladygaga_snapshot):
        url = f"http://127.0.0.1:{server.port}/admin/reload"
        request = urllib.request.Request(url, method="POST", data=b"")
        with urllib.request.urlopen(request) as response:
            body = json.loads(response.read())
        assert body["current"] == ladygaga_snapshot.version
        status, health = self._get(server, "/healthz")
        assert health["version"] == ladygaga_snapshot.version


class TestInternalErrors:
    """Unexpected handler exceptions answer 500 instead of tearing the
    connection down (the missing-500 bug)."""

    def test_dispatch_maps_unexpected_exceptions_to_500(self, make_app, monkeypatch):
        from repro.serving import http as http_module

        def broken(snapshot):
            raise ValueError("handler bug")

        monkeypatch.setattr(http_module.handlers, "handle_stats", broken)
        app = make_app()
        status, payload = app.dispatch("GET", "/stats")
        assert status == 500
        body = json.loads(payload)
        assert body == {"error": "internal server error: ValueError"}
        assert payload == encode_body(body)  # canonical even on the 500 path
        assert app.metrics.snapshot()["serving.errors"] == 1
        # The app survives: the next request is unaffected.
        assert app.dispatch("GET", "/healthz")[0] == 200

    def test_500_crosses_the_wire_and_keeps_the_connection(
        self, make_app, monkeypatch
    ):
        """Before the fix a raising handler killed the socket with no
        response; now the client reads a 500 and can keep pipelining."""
        from tests.serving.wire import WireClient

        from repro.serving import http as http_module

        def broken(snapshot):
            raise RuntimeError("boom")

        monkeypatch.setattr(http_module.handlers, "handle_stats", broken)
        app = make_app()
        server = StudyServer(app, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with WireClient(server.port) as client:
                status, body = client.get("/stats")
                assert status == 500
                assert json.loads(body)["error"].startswith("internal server error")
                status, body = client.get("/healthz")  # same connection
                assert status == 200
                assert json.loads(body)["status"] == "ok"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)


class TestKeepAliveBodyDrain:
    """POST bodies are drained, so pipelined requests behind them parse
    (the keep-alive corruption bug)."""

    @pytest.fixture
    def server(self, make_app, ladygaga_snapshot):
        app = make_app(reloader=lambda: ladygaga_snapshot)
        server = StudyServer(app, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

    def test_pipelined_request_after_post_body(self, server, ladygaga_snapshot):
        """Two requests in one write: a POST with a body, then a GET.

        Before the fix the body bytes stayed buffered in ``rfile`` and
        were parsed as the second request's request line, corrupting the
        connection; both responses must now come back well-formed and
        the second must really be the ``/healthz`` answer.
        """
        from tests.serving.wire import WireClient, request_bytes

        with WireClient(server.port) as client:
            client.send_raw(
                request_bytes("POST", "/admin/reload", body=b"ignored body bytes")
                + request_bytes("GET", "/healthz")
            )
            status, _, body = client.read_response()
            assert status == 200
            assert json.loads(body)["current"] == ladygaga_snapshot.version
            status, _, body = client.read_response()
            assert status == 200
            assert json.loads(body)["status"] == "ok"

    def test_large_body_is_drained_in_chunks(self, server):
        from tests.serving.wire import WireClient, request_bytes

        with WireClient(server.port) as client:
            client.send_raw(
                request_bytes("POST", "/admin/reload", body=b"x" * 300_000)
                + request_bytes("GET", "/healthz")
            )
            assert client.read_response()[0] == 200
            status, _, body = client.read_response()
            assert status == 200
            assert json.loads(body)["status"] == "ok"

    def test_malformed_content_length_is_400(self, server):
        from tests.serving.wire import WireClient

        with WireClient(server.port) as client:
            client.send(
                "POST", "/admin/reload", headers={"Content-Length": "banana"}
            )
            status, _, body = client.read_response()
            assert status == 400
            assert "Content-Length" in json.loads(body)["error"]


class TestClientDisconnects:
    """A client hanging up is counted, not splattered as a traceback."""

    def test_reset_during_response_write_is_counted(self, make_app):
        from tests.serving.wire import WireClient

        app = make_app()
        gate = threading.Event()
        inner = app.dispatch

        def gated_dispatch(method, target):
            gate.wait(5.0)
            return inner(method, target)

        app.dispatch = gated_dispatch
        server = StudyServer(app, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = WireClient(server.port)
            client.send("GET", "/regions")
            client.rst_close()  # hard reset before the response is written
            gate.set()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if app.metrics.snapshot().get("serving.client_disconnects", 0) >= 1:
                    break
                time.sleep(0.01)
            assert app.metrics.snapshot()["serving.client_disconnects"] >= 1
        finally:
            gate.set()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)


class TestDispatchBlocks:
    """The cold-``/reverse`` hint the asyncio front end routes on."""

    def test_cold_reverse_blocks_then_warm_does_not(self, make_app):
        app = make_app()
        target = "/reverse?lat=37.5&lon=127.0"
        assert app.dispatch_blocks("GET", target) is True
        status, _ = app.dispatch("GET", target)
        assert status == 200
        assert app.dispatch_blocks("GET", target) is False

    def test_non_reverse_and_malformed_never_block(self, make_app):
        app = make_app()
        for target in (
            "/lookup?user=1",
            "/healthz",
            "/reverse",  # missing params fail fast in the handler
            "/reverse?lat=oops&lon=127.0",
            "/reverse?lat=91.0&lon=127.0",  # out of range
        ):
            assert app.dispatch_blocks("GET", target) is False

    def test_probe_leaves_tier_stats_untouched(self, make_app):
        app = make_app()
        before = app.geocoder.stats.l1_misses
        app.dispatch_blocks("GET", "/reverse?lat=37.5&lon=127.0")
        assert app.geocoder.stats.l1_misses == before


class TestSighup:
    def test_install_and_fire(self, make_app, ladygaga_snapshot):
        import os
        import signal
        import time

        from repro.serving import install_reload_signal

        if not hasattr(signal, "SIGHUP"):
            pytest.skip("platform has no SIGHUP")
        app = make_app(reloader=lambda: ladygaga_snapshot)
        previous = signal.getsignal(signal.SIGHUP)
        try:
            assert install_reload_signal(app) is True
            os.kill(os.getpid(), signal.SIGHUP)
            deadline = time.monotonic() + 5.0
            while app.store.generation == 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert app.store.generation == 2
            assert app.store.current() is ladygaga_snapshot
        finally:
            signal.signal(signal.SIGHUP, previous)

    def test_not_installed_off_main_thread(self, make_app, korean_snapshot):
        import signal

        from repro.serving import install_reload_signal

        if not hasattr(signal, "SIGHUP"):
            pytest.skip("platform has no SIGHUP")
        app = make_app(reloader=lambda: korean_snapshot)
        outcome = []
        thread = threading.Thread(
            target=lambda: outcome.append(install_reload_signal(app))
        )
        thread.start()
        thread.join()
        assert outcome == [False]
