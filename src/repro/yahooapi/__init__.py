"""Simulated Yahoo PlaceFinder API (XML reverse geocoding).

The paper resolved GPS coordinates to administrative districts through the
Yahoo Open API (Fig. 5).  This package reproduces that dependency: the
same XML document shape, a client with cache/quota/latency accounting, and
deterministic transient-failure injection for exercising retry paths.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "client": ("ERROR_NO_RESULT", "ClientStats", "FailurePlan", "PlaceFinderClient"),
    "xml": ("PlaceFinderResponse", "parse_response", "render_error", "render_success"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
