"""Particle-filter event localisation (Toretter's second estimator).

Sakaki et al. found the particle filter the better of their two location
estimators.  Particles are candidate epicentres; each witness report
reweights them by a Gaussian likelihood around the reported position
(tempered by the report's reliability weight), followed by systematic
resampling and a little roughening noise to fight sample impoverishment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import InsufficientDataError
from repro.events.kalman import Measurement
from repro.geo.point import GeoPoint

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np


class ParticleLocalizer:
    """Bootstrap particle filter over witness measurements.

    Args:
        particle_count: Number of particles.
        init_spread_deg: Initial particle cloud radius (std dev, degrees)
            around the first measurement.
        base_noise_deg: Likelihood standard deviation for a weight-1.0
            report (scaled up by ``1/sqrt(weight)`` for weaker reports).
        roughening_deg: Post-resampling jitter std dev.
        seed: RNG seed (filter is deterministic given it).
    """

    def __init__(
        self,
        particle_count: int = 500,
        init_spread_deg: float = 1.0,
        base_noise_deg: float = 0.05,
        roughening_deg: float = 0.005,
        seed: int = 7,
    ):
        if particle_count < 10:
            raise InsufficientDataError("need at least 10 particles")
        self._particle_count = particle_count
        self._init_spread_deg = init_spread_deg
        self._base_noise_deg = base_noise_deg
        self._roughening_deg = roughening_deg
        self._seed = seed

    def estimate(self, measurements: list[Measurement]) -> GeoPoint:
        """Run the filter over time-ordered measurements.

        Raises:
            InsufficientDataError: with no measurements.
        """
        if not measurements:
            raise InsufficientDataError("no measurements to localise from")
        import numpy as np  # only the filters need it; keep it off import

        ordered = sorted(measurements, key=lambda m: m.timestamp_ms)
        rng = np.random.default_rng(self._seed)

        # Initialise around the reliability-weighted centroid of all
        # measurements: a single unreliable first report must not decide
        # where the particle cloud lives.
        total_weight = sum(m.weight for m in ordered)
        center = np.array(
            [
                sum(m.point.lat * m.weight for m in ordered) / total_weight,
                sum(m.point.lon * m.weight for m in ordered) / total_weight,
            ]
        )
        particles = rng.normal(
            loc=center,
            scale=self._init_spread_deg,
            size=(self._particle_count, 2),
        )
        weights = np.full(self._particle_count, 1.0 / self._particle_count)

        for measurement in ordered:
            observed = np.array([measurement.point.lat, measurement.point.lon])
            sigma = self._base_noise_deg / np.sqrt(measurement.weight)
            distances_sq = np.sum((particles - observed) ** 2, axis=1)
            # Temper the update by the reliability weight: an unreliable
            # report reshapes the posterior weakly even where it peaks.
            likelihood = (
                np.exp(-0.5 * distances_sq / sigma**2) + 1e-12
            ) ** measurement.weight
            weights = weights * likelihood
            total = weights.sum()
            if total <= 0 or not np.isfinite(total):
                # Degenerate update (all particles far away): reset around
                # the measurement instead of dividing by zero.
                particles = rng.normal(
                    loc=observed, scale=self._init_spread_deg, size=particles.shape
                )
                weights = np.full(self._particle_count, 1.0 / self._particle_count)
                continue
            weights = weights / total

            effective = 1.0 / np.sum(weights**2)
            if effective < self._particle_count / 2:
                particles = self._systematic_resample(particles, weights, rng)
                weights = np.full(self._particle_count, 1.0 / self._particle_count)
                particles = particles + rng.normal(
                    scale=self._roughening_deg, size=particles.shape
                )

        mean = np.average(particles, axis=0, weights=weights)
        return GeoPoint(float(np.clip(mean[0], -90, 90)), float(np.clip(mean[1], -180, 180)))

    @staticmethod
    def _systematic_resample(
        particles: np.ndarray, weights: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        import numpy as np

        count = len(weights)
        positions = (rng.random() + np.arange(count)) / count
        cumulative = np.cumsum(weights)
        cumulative[-1] = 1.0  # guard against floating-point shortfall
        indexes = np.searchsorted(cumulative, positions)
        return particles[indexes].copy()
