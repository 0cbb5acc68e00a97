"""Exception hierarchy shared across the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GeoError(ReproError):
    """Base class for errors in the :mod:`repro.geo` subsystem."""


class InvalidCoordinateError(GeoError):
    """A latitude/longitude pair is outside the valid WGS-84 range."""


class UnknownRegionError(GeoError):
    """A gazetteer lookup referenced a region that does not exist."""


class GeocodingError(GeoError):
    """Forward or reverse geocoding could not resolve a location."""


class ApiError(ReproError):
    """Base class for simulated remote-API failures."""


class RateLimitExceededError(ApiError):
    """A simulated API rejected a request because the quota was exhausted."""

    def __init__(self, retry_after_s: float, message: str = "rate limit exceeded"):
        super().__init__(f"{message} (retry after {retry_after_s:.1f}s)")
        self.retry_after_s = retry_after_s


class ServiceUnavailableError(ApiError):
    """A simulated API returned a transient 5xx-style failure."""


class MalformedResponseError(ApiError):
    """A simulated API response could not be parsed."""


class StorageError(ReproError):
    """Base class for errors in the :mod:`repro.storage` subsystem."""


class DuplicateKeyError(StorageError):
    """An insert collided with an existing primary key."""


class NotFoundError(StorageError):
    """A lookup referenced a record that is not in the store."""


class AnalysisError(ReproError):
    """Base class for errors in the grouping/analysis subsystems."""


class InsufficientDataError(AnalysisError):
    """An analysis step received too little data to produce a result."""


class ConfigurationError(ReproError):
    """A configuration object failed validation."""


class FleetError(ReproError):
    """Base class for errors in the :mod:`repro.fleet` subsystem."""


class ReplicaUnreachableError(FleetError):
    """A replica could not be reached over its admin/data socket.

    Connection-level only: refused, reset, or timed out.  A replica that
    *answers* with an error status is reachable and is reported through
    the status code instead.
    """


class ReplicaBootError(FleetError):
    """A subprocess replica failed to start or report a bound port."""


class RolloutInProgressError(FleetError):
    """A publish was requested while another rollout is still running."""
