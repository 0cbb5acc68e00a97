"""Simulated Yahoo PlaceFinder client.

Wraps the library's :class:`~repro.geo.reverse.ReverseGeocoder` in the
shape of the remote service the paper called for every GPS-tagged tweet:
requests are serialised to XML, a daily quota is enforced (the real API
capped requests per app id per day), results are cached, latency is
accounted, and transient failures can be injected to exercise retry
logic in the collection pipeline.

The client never sleeps — simulated latency is accumulated in
:class:`ClientStats` so experiments can report "API time" without slowing
the test suite down.

Cache semantics are **order-insensitive**: coordinates quantise to 0.001°
cells and a cache miss is resolved at the cell's *canonical
representative point* (its grid anchor), never at the particular
coordinates that happened to arrive first.  The cached response — and
therefore every answer the client gives — is a pure function of the cell
key, matching the tiered :class:`~repro.geocode.service.GeocodeService`
cell for cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    GeocodingError,
    RateLimitExceededError,
    ServiceUnavailableError,
)
from repro.geo.point import GeoPoint
from repro.geo.region import AdminPath
from repro.geo.reverse import ReverseGeocoder
from repro.geocode.policy import FailurePlan, RetryPolicy, resolve_with_retries
from repro.yahooapi.xml import (
    PlaceFinderResponse,
    parse_response,
    render_error,
    render_success,
)

__all__ = [
    "ERROR_NO_RESULT",
    "ClientStats",
    "FailurePlan",  # moved to repro.geocode.policy; re-exported here
    "PlaceFinderClient",
]

#: Error code the real PlaceFinder used for "no result".
ERROR_NO_RESULT = 100


@dataclass
class ClientStats:
    """Usage accounting for a simulated PlaceFinder client.

    Attributes:
        requests: Uncached lookups issued (each consumes quota).
        cache_hits: Lookups served from the response cache.
        failures_injected: Transient 503s the failure plan raised.
        no_result: Error-100 responses (coordinates nobody can resolve).
        retries: Retry attempts :meth:`PlaceFinderClient.resolve_admin_path`
            issued after a transient failure.
        retry_exhausted: Lookups abandoned after the retry budget ran out
            — give-ups, counted separately from genuine ``no_result``
            responses.
        simulated_latency_s: Accumulated virtual API time.
    """

    requests: int = 0
    cache_hits: int = 0
    failures_injected: int = 0
    no_result: int = 0
    retries: int = 0
    retry_exhausted: int = 0
    simulated_latency_s: float = 0.0

    def snapshot(self) -> dict[str, float]:
        """Plain-dict view for reports."""
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "failures_injected": self.failures_injected,
            "no_result": self.no_result,
            "retries": self.retries,
            "retry_exhausted": self.retry_exhausted,
            "simulated_latency_s": round(self.simulated_latency_s, 3),
        }


class PlaceFinderClient:
    """Reverse-geocoding client with cache, quota, and failure injection.

    Args:
        geocoder: Backing resolver.
        daily_quota: Maximum uncached lookups before the client raises
            :class:`RateLimitExceededError` (the real API enforced a
            per-day cap; 50 000 was the documented limit).
        latency_s: Simulated per-request latency, accumulated in stats.
        failure_plan: Optional deterministic transient-failure schedule.
        cache_quantum_deg: Coordinates are rounded to this grid for the
            cache key, mirroring how the study deduplicated lookups.
    """

    def __init__(
        self,
        geocoder: ReverseGeocoder,
        daily_quota: int = 50_000,
        latency_s: float = 0.05,
        failure_plan: FailurePlan | None = None,
        cache_quantum_deg: float = 0.001,
    ):
        self._geocoder = geocoder
        self._daily_quota = daily_quota
        self._latency_s = latency_s
        self._failure_plan = failure_plan or FailurePlan()
        self._cache_quantum_deg = cache_quantum_deg
        self._cache: dict[tuple[int, int], str] = {}
        self.stats = ClientStats()

    # ---------------------------------------------------------------- public
    def reverse_geocode_xml(self, point: GeoPoint) -> str:
        """Perform a lookup and return the raw XML document.

        A cache miss resolves the cell's canonical representative point
        (the quantisation-grid anchor), not ``point`` itself — the
        response is a pure function of the cache cell, so arrival order
        can never change what a cell answers.

        Raises:
            RateLimitExceededError: once the daily quota is exhausted.
            ServiceUnavailableError: when the failure plan fires.
        """
        key = self._cache_key(point)
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached

        if self.stats.requests >= self._daily_quota:
            raise RateLimitExceededError(retry_after_s=86_400.0, message="daily quota reached")
        self.stats.requests += 1
        self.stats.simulated_latency_s += self._latency_s

        if self._failure_plan.should_fail(self.stats.requests):
            self.stats.failures_injected += 1
            raise ServiceUnavailableError("simulated transient 503")

        rep = GeoPoint(key[0] * self._cache_quantum_deg, key[1] * self._cache_quantum_deg)
        try:
            result = self._geocoder.resolve(rep)
        except GeocodingError:
            self.stats.no_result += 1
            document = render_error(ERROR_NO_RESULT, "No result for coordinates")
        else:
            document = render_success(rep, result.path, result.quality)
        self._cache[key] = document
        return document

    def reverse_geocode(self, point: GeoPoint) -> PlaceFinderResponse:
        """Lookup returning the parsed response (XML round-trip included)."""
        return parse_response(self.reverse_geocode_xml(point))

    def resolve_admin_path(
        self, point: GeoPoint, max_retries: int = 2
    ) -> AdminPath | None:
        """Convenience: lookup with retry-on-503, ``None`` when unresolvable.

        This is the call the collection pipeline uses per tweet: transient
        failures are retried up to ``max_retries`` times; a no-result
        response or exhausted retries yield ``None``.  Every retry is
        counted in ``stats.retries``; a lookup abandoned with its retry
        budget spent is counted in ``stats.retry_exhausted`` (distinct
        from ``no_result``, which means the service answered "nowhere").
        Each attempt — including retries — consumes quota, exactly as the
        real 503s did; :class:`RateLimitExceededError` raised mid-retry
        propagates.  The loop itself is the shared service-level policy
        (:func:`~repro.geocode.policy.resolve_with_retries`), so the
        client and the tiered service cannot drift apart.
        """

        def attempt() -> AdminPath | None:
            response = self.reverse_geocode(point)
            return response.path if response.ok else None

        return resolve_with_retries(
            attempt, RetryPolicy(max_retries=max_retries), self.stats
        )

    @property
    def cache_size(self) -> int:
        """Number of distinct cached coordinate cells."""
        return len(self._cache)

    def clear_cache(self) -> None:
        """Drop the response cache (quota accounting is kept)."""
        self._cache.clear()

    # -------------------------------------------------------------- internals
    def _cache_key(self, point: GeoPoint) -> tuple[int, int]:
        q = self._cache_quantum_deg
        return (round(point.lat / q), round(point.lon / q))
