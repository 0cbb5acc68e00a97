"""Online serving of study results (`repro serve`).

The batch/streaming pipelines answer "what did the study find?"; this
package answers it *per query, online*: load a saved
:class:`~repro.analysis.correlation.StudyResult` into an immutable,
versioned :class:`ServingSnapshot` and serve per-user match lookups,
per-region reliability stats, and reverse-geocoding over a stdlib-only
JSON HTTP API — with the production machinery a long-lived query server
needs: single-flight coalescing of duplicate geocode lookups
(:class:`SingleFlight`), token-bucket load shedding
(:class:`TokenBucket`), per-endpoint latency histograms, and atomic
hot-swap of snapshots (``SIGHUP`` / ``POST /admin/reload``) without
dropping in-flight requests.

Layer map:

* :mod:`repro.serving.state` — :class:`ServingSnapshot` (immutable,
  content-versioned), :class:`SnapshotStore` (atomic swap),
  :func:`load_snapshot`.
* :mod:`repro.serving.batcher` — :class:`SingleFlight` /
  :class:`FlightStats`.
* :mod:`repro.serving.ratelimit` — :class:`TokenBucket`.
* :mod:`repro.serving.handlers` — pure ``(snapshot, params) -> (status,
  body)`` endpoint functions.
* :mod:`repro.serving.http` — :class:`ServingApp` (dispatch, admission,
  metrics), :class:`StudyServer` (threaded HTTP), reload plumbing.
* :mod:`repro.serving.aio` — :class:`AsyncStudyServer` (the same app on
  one asyncio event loop: keep-alive, pipelining, executor off-load for
  cold ``/reverse``), :class:`AsyncServerThread` /
  :class:`ThreadedServerHandle` background harnesses,
  :func:`start_background_server`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "aio": (
        "AsyncServerThread", "AsyncStudyServer", "ThreadedServerHandle",
        "start_background_server",
    ),
    "batcher": ("FlightStats", "SingleFlight"),
    "handlers": (
        "handle_healthz", "handle_lookup", "handle_overview", "handle_region",
        "handle_regions", "handle_reverse", "handle_stats",
    ),
    "http": (
        "ServingApp", "StudyServer", "encode_body", "install_reload_signal",
        "render_serving_summary",
    ),
    "ratelimit": ("TokenBucket",),
    "state": ("ServingSnapshot", "SnapshotStore", "load_snapshot"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
