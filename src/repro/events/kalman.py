"""Kalman-filter event localisation (Toretter's first estimator).

Sakaki et al. apply a Kalman filter to witness coordinates to estimate an
event's epicentre (paper Fig. 2).  The event does not move, so the state
is a static 2-vector ``[lat, lon]`` with a small process noise to keep the
filter responsive; each witness report is a direct measurement of the
state with per-measurement noise.

Reliability weighting enters through the measurement covariance: a report
whose position came from a profile location with weight ``w`` gets its
noise scaled by ``1/w`` — an unreliable profile barely moves the estimate,
which is precisely the paper's proposed use of the study's weight factors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InsufficientDataError
from repro.geo.point import GeoPoint


@dataclass(frozen=True, slots=True)
class Measurement:
    """One witness report.

    Attributes:
        point: Reported position (GPS fix, or profile-district centroid).
        weight: Reliability in (0, 1]; 1.0 for a GPS fix.
        timestamp_ms: Report time (used for ordering).
    """

    point: GeoPoint
    weight: float
    timestamp_ms: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.weight <= 1.0:
            raise InsufficientDataError(
                f"measurement weight must be in (0, 1], got {self.weight}"
            )


class KalmanLocalizer:
    """Static-state Kalman filter over witness measurements.

    Args:
        base_noise_deg: Measurement standard deviation (degrees) for a
            fully reliable (weight 1.0) report.
        process_noise_deg: Per-step process noise; small but non-zero so
            late measurements still matter.
        prior_spread_deg: Prior standard deviation around the first
            measurement.
    """

    def __init__(
        self,
        base_noise_deg: float = 0.05,
        process_noise_deg: float = 1e-4,
        prior_spread_deg: float = 2.0,
    ):
        self._base_var = base_noise_deg**2
        self._process_var = process_noise_deg**2
        self._prior_var = prior_spread_deg**2

    def estimate(self, measurements: list[Measurement]) -> GeoPoint:
        """Run the filter over time-ordered measurements.

        Raises:
            InsufficientDataError: with no measurements.
        """
        if not measurements:
            raise InsufficientDataError("no measurements to localise from")
        import numpy as np  # only the filters need it; keep it off import

        ordered = sorted(measurements, key=lambda m: m.timestamp_ms)
        state = np.array([ordered[0].point.lat, ordered[0].point.lon])
        covariance = np.eye(2) * self._prior_var
        identity = np.eye(2)
        for measurement in ordered:
            # Predict: static state, inflate uncertainty slightly.
            covariance = covariance + identity * self._process_var
            # Update: direct observation with weight-scaled noise.
            noise = identity * (self._base_var / measurement.weight)
            observed = np.array([measurement.point.lat, measurement.point.lon])
            innovation = observed - state
            gain = covariance @ np.linalg.inv(covariance + noise)
            state = state + gain @ innovation
            covariance = (identity - gain) @ covariance
        return GeoPoint(float(state[0]), float(state[1]))
