"""Synthetic event scenarios and witness-report generation.

The paper's future work is to feed its reliability weights into event
localisation (Toretter-style).  To evaluate that end-to-end we need what
the original authors got from the Japan Meteorological Agency: ground
truth.  A :class:`EventScenario` fixes an epicentre and onset; witnesses
are drawn from the *study population itself* — each user's current
district at event time is sampled from their empirical tweet-district
distribution (their merged strings), so the correlation structure the
study measured is exactly what drives localisation error:

* a Top-1 witness's profile centroid is close to where they really are;
* a None-group witness's profile points somewhere they never go.

Witnesses inside the felt radius tweet about the event after an
exponential delay (Toretter's arrival model); only some reports carry GPS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.geo.gazetteer import Gazetteer
from repro.geo.point import GeoPoint
from repro.geo.region import District
from repro.grouping.topk import UserGrouping

_EVENT_TEMPLATES = (
    "earthquake!! everything is shaking right now",
    "whoa strong earthquake just hit here",
    "did anyone else feel that earthquake just now?",
    "the building is shaking, earthquake!",
    "big earthquake, things falling off my desk",
    "omg earthquake right now, that was scary",
)


@dataclass(frozen=True, slots=True)
class EventScenario:
    """A ground-truth event.

    Attributes:
        name: Label for reports.
        epicenter: True event location.
        onset_ms: Event time, unix milliseconds.
        felt_radius_km: Users currently within this radius feel it.
        mean_report_delay_ms: Mean of the exponential tweet delay.
        report_probability: Chance a feeling user tweets about it.
    """

    name: str
    epicenter: GeoPoint
    onset_ms: int
    felt_radius_km: float = 60.0
    mean_report_delay_ms: float = 180_000.0
    report_probability: float = 0.7

    def __post_init__(self) -> None:
        if self.felt_radius_km <= 0:
            raise ConfigurationError("felt_radius_km must be positive")
        if not 0.0 < self.report_probability <= 1.0:
            raise ConfigurationError("report_probability must be in (0, 1]")


@dataclass(frozen=True, slots=True)
class WitnessReport:
    """One event tweet with its ground truth attached.

    Attributes:
        user_id: The witness.
        timestamp_ms: Report time.
        text: Tweet body (contains the event keyword).
        gps: Coordinates if the report carried GPS, else None.
        true_position: Where the witness actually was.
        true_district: The district they were in.
    """

    user_id: int
    timestamp_ms: int
    text: str
    gps: GeoPoint | None
    true_position: GeoPoint
    true_district: District


class WitnessGenerator:
    """Draws witness reports for a scenario from study outcomes.

    Args:
        gazetteer: Catalogue the study users' districts live in.
        gps_rate: Probability a report carries GPS (the scarce, fully
            reliable case).
        seed: RNG seed.
    """

    def __init__(self, gazetteer: Gazetteer, gps_rate: float = 0.2, seed: int = 7):
        if not 0.0 <= gps_rate <= 1.0:
            raise ConfigurationError("gps_rate must be in [0, 1]")
        self._gazetteer = gazetteer
        self._gps_rate = gps_rate
        self._seed = seed

    def generate(
        self,
        scenario: EventScenario,
        groupings: dict[int, UserGrouping],
    ) -> list[WitnessReport]:
        """Generate the scenario's witness reports, time-ordered.

        Each study user's location at event time is sampled from their
        empirical tweet-district distribution; users within the felt
        radius report with the scenario's probability.
        """
        rng = random.Random(f"{self._seed}:{scenario.name}")
        reports: list[WitnessReport] = []
        for user_id in sorted(groupings):
            grouping = groupings[user_id]
            district = self._sample_current_district(grouping, rng)
            if district is None:
                continue
            distance = district.center.distance_km(scenario.epicenter)
            if distance > scenario.felt_radius_km:
                continue
            if rng.random() > scenario.report_probability:
                continue
            position = self._jitter_within(district, rng)
            delay = rng.expovariate(1.0 / scenario.mean_report_delay_ms)
            has_gps = rng.random() < self._gps_rate
            reports.append(
                WitnessReport(
                    user_id=user_id,
                    timestamp_ms=scenario.onset_ms + int(delay),
                    text=rng.choice(_EVENT_TEMPLATES),
                    gps=position if has_gps else None,
                    true_position=position,
                    true_district=district,
                )
            )
        reports.sort(key=lambda r: r.timestamp_ms)
        return reports

    # ------------------------------------------------------------- internals
    def _sample_current_district(
        self, grouping: UserGrouping, rng: random.Random
    ) -> District | None:
        """Sample where the user is right now from their merged strings."""
        keys = [row.record.tweet_key() for row in grouping.merged]
        counts = [row.count for row in grouping.merged]
        state, county = rng.choices(keys, weights=counts, k=1)[0]
        return self._gazetteer.find(state, county)

    @staticmethod
    def _jitter_within(district: District, rng: random.Random) -> GeoPoint:
        import math

        bearing = rng.uniform(0.0, 360.0)
        distance = district.radius_km * 0.8 * math.sqrt(rng.random())
        return district.center.destination(bearing, distance)
