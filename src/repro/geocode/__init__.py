"""Tiered, order-insensitive geocoding service layer.

Public surface of :mod:`repro.geocode`:

* :class:`GeocodeService` / :class:`TierStats` — the tiered cache every
  geocoding consumer goes through (L1 LRU over a persistent cell store
  over a backend), with canonical-representative cell semantics
* :class:`GeocodeBackend` — the resolver protocol, implemented by
  :class:`DirectBackend` (in-process) and :class:`PlaceFinderBackend`
  (simulated API, XML round-trip)
* :class:`CellStore` — the append-only on-disk cell tier
* :class:`FailurePlan` / :class:`RetryPolicy` /
  :func:`resolve_with_retries` — the shared lookup policy
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "backend": ("DirectBackend", "GeocodeBackend", "PlaceFinderBackend"),
    "cellstore": ("Cell", "CellStore"),
    "policy": ("FailurePlan", "RetryPolicy", "resolve_with_retries"),
    "service": (
        "CELL_CACHE_FILENAME", "DEFAULT_L1_CAPACITY", "DEFAULT_QUANTUM_DEG",
        "GeocodeService", "TierStats", "cell_cache_path", "simulated_latency",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
