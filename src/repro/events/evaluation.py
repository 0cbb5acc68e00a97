"""Evaluation harness for reliability-weighted event localisation (E10).

Runs the full future-work experiment the paper sketches in §V: given a
completed correlation study, generate ground-truth event scenarios, draw
witness reports from the study population, localise each event under
every (estimator x weighting scheme) combination, and score the error
against the true epicentre.  Also measures detection latency through the
classifier + burst-detector pipeline (Toretter's alarm path).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.result import StudyResult
from repro.analysis.reliability import ReliabilityTable, WeightingScheme
from repro.errors import InsufficientDataError
from repro.events.burst import BurstDetector, fit_exponential_decay
from repro.events.classifier import EventTweetClassifier, default_training_set
from repro.events.kalman import KalmanLocalizer, Measurement
from repro.events.particle import ParticleLocalizer
from repro.events.scenario import EventScenario, WitnessGenerator, WitnessReport
from repro.events.weighted import (
    MedianLocalizer,
    WeightedCentroidLocalizer,
    build_measurements,
)
from repro.geo.gazetteer import Gazetteer
from repro.geo.point import GeoPoint
from repro.geo.region import District


@dataclass(frozen=True, slots=True)
class LocalizationOutcome:
    """One (scenario, estimator, scheme) result row.

    Attributes:
        scenario_name: The event.
        estimator: Estimator label ("kalman", "particle", ...).
        scheme: Weighting scheme used.
        witness_count: Reports available.
        gps_count: Reports that carried GPS.
        error_km: Distance from estimate to the true epicentre.
        estimate: The estimated epicentre.
    """

    scenario_name: str
    estimator: str
    scheme: WeightingScheme
    witness_count: int
    gps_count: int
    error_km: float
    estimate: GeoPoint


@dataclass(frozen=True, slots=True)
class DetectionOutcome:
    """Detection-latency result for one scenario.

    Attributes:
        scenario_name: The event.
        detected: Whether any alarm fired.
        latency_ms: First-alarm window end minus onset (None if missed).
        positive_reports: Reports the classifier accepted.
        onset_error_ms: Estimated event onset (first positive report,
            per Toretter's exponential arrival model) minus the true
            onset; None when too few positives to fit.
        decay_tau_ms: Fitted arrival-decay constant; None when unfit.
    """

    scenario_name: str
    detected: bool
    latency_ms: int | None
    positive_reports: int
    onset_error_ms: int | None = None
    decay_tau_ms: float | None = None


def default_estimators() -> dict[str, object]:
    """The estimator suite compared in the E10 bench."""
    return {
        "centroid": WeightedCentroidLocalizer(),
        "median": MedianLocalizer(),
        "kalman": KalmanLocalizer(),
        "particle": ParticleLocalizer(),
    }


def make_korean_scenarios(gazetteer: Gazetteer, onset_ms: int = 1_320_000_000_000) -> list[EventScenario]:
    """Three earthquake scenarios near population centres.

    Epicentres sit near (but not on) major districts so witnesses exist
    and the localisation problem is non-trivial.
    """
    seoul = gazetteer.get("Seoul", "Gangnam-gu").center
    busan = gazetteer.get("Busan", "Haeundae-gu").center
    daejeon = gazetteer.get("Daejeon", "Seo-gu").center
    return [
        EventScenario(
            name="quake-seoul",
            epicenter=seoul.destination(bearing_deg=140.0, distance_km=12.0),
            onset_ms=onset_ms,
            felt_radius_km=45.0,
        ),
        EventScenario(
            name="quake-busan",
            epicenter=busan.destination(bearing_deg=70.0, distance_km=15.0),
            onset_ms=onset_ms + 86_400_000,
            felt_radius_km=55.0,
        ),
        EventScenario(
            name="quake-daejeon",
            epicenter=daejeon.destination(bearing_deg=200.0, distance_km=10.0),
            onset_ms=onset_ms + 2 * 86_400_000,
            felt_radius_km=60.0,
        ),
    ]


class LocalizationExperiment:
    """The E10 experiment runner.

    Args:
        study: A completed correlation study (weights come from it).
        gazetteer: The study's district catalogue.
        profile_districts: Study users' resolved profile districts.
        gps_rate: Fraction of witness reports carrying GPS.
        seed: Witness-generation seed.
    """

    def __init__(
        self,
        study: StudyResult,
        gazetteer: Gazetteer,
        profile_districts: dict[int, District],
        gps_rate: float = 0.2,
        seed: int = 7,
    ):
        self._study = study
        self._gazetteer = gazetteer
        self._profile_districts = profile_districts
        self._table = ReliabilityTable.from_statistics(study.statistics)
        self._witnesses = WitnessGenerator(gazetteer, gps_rate=gps_rate, seed=seed)

    @property
    def reliability_table(self) -> ReliabilityTable:
        """The weight factors learned from the study."""
        return self._table

    def witness_reports(self, scenario: EventScenario) -> list[WitnessReport]:
        """Witness reports for one scenario."""
        return self._witnesses.generate(scenario, self._study.groupings)

    def run_localization(
        self,
        scenarios: list[EventScenario],
        schemes: tuple[WeightingScheme, ...] = (
            WeightingScheme.UNIFORM,
            WeightingScheme.RANK_RECIPROCAL,
            WeightingScheme.GROUP_MATCHED_SHARE,
        ),
        estimators: dict[str, object] | None = None,
    ) -> list[LocalizationOutcome]:
        """Localise every scenario under every estimator x scheme.

        Scenarios that draw no witnesses are skipped (reported nowhere —
        callers should pick scenarios near population).
        """
        estimators = estimators or default_estimators()
        outcomes: list[LocalizationOutcome] = []
        for scenario in scenarios:
            reports = self.witness_reports(scenario)
            if not reports:
                continue
            gps_count = sum(1 for r in reports if r.gps is not None)
            for scheme in schemes:
                measurements = build_measurements(
                    reports,
                    self._profile_districts,
                    self._study.groupings,
                    self._table,
                    scheme,
                )
                if not measurements:
                    continue
                for name, estimator in estimators.items():
                    estimate = estimator.estimate(measurements)  # type: ignore[attr-defined]
                    outcomes.append(
                        LocalizationOutcome(
                            scenario_name=scenario.name,
                            estimator=name,
                            scheme=scheme,
                            witness_count=len(reports),
                            gps_count=gps_count,
                            error_km=estimate.distance_km(scenario.epicenter),
                            estimate=estimate,
                        )
                    )
        if not outcomes:
            raise InsufficientDataError("no scenario produced witnesses")
        return outcomes

    def run_detection(
        self,
        scenarios: list[EventScenario],
        classifier: EventTweetClassifier | None = None,
        detector: BurstDetector | None = None,
    ) -> list[DetectionOutcome]:
        """Measure detection latency through classifier + burst detector."""
        if classifier is None:
            classifier = EventTweetClassifier()
            classifier.fit(default_training_set())
        detector = detector or BurstDetector()
        outcomes = []
        for scenario in scenarios:
            reports = self.witness_reports(scenario)
            positives = [
                r.timestamp_ms for r in reports if classifier.predict(r.text)
            ]
            onset_error_ms: int | None = None
            decay_tau_ms: float | None = None
            if len(positives) >= 3:
                fit = fit_exponential_decay(positives)
                onset_error_ms = fit.onset_ms - scenario.onset_ms
                decay_tau_ms = fit.tau_ms
            alarms = detector.detect(positives)
            if alarms:
                latency = alarms[0].window_end_ms - scenario.onset_ms
                outcomes.append(
                    DetectionOutcome(
                        scenario_name=scenario.name,
                        detected=True,
                        latency_ms=max(0, latency),
                        positive_reports=len(positives),
                        onset_error_ms=onset_error_ms,
                        decay_tau_ms=decay_tau_ms,
                    )
                )
            else:
                outcomes.append(
                    DetectionOutcome(
                        scenario_name=scenario.name,
                        detected=False,
                        latency_ms=None,
                        positive_reports=len(positives),
                        onset_error_ms=onset_error_ms,
                        decay_tau_ms=decay_tau_ms,
                    )
                )
        return outcomes


def mean_error_by_scheme(
    outcomes: list[LocalizationOutcome],
) -> dict[tuple[str, WeightingScheme], float]:
    """Mean error (km) per (estimator, scheme) across scenarios."""
    sums: dict[tuple[str, WeightingScheme], list[float]] = {}
    for outcome in outcomes:
        sums.setdefault((outcome.estimator, outcome.scheme), []).append(outcome.error_km)
    return {key: sum(values) / len(values) for key, values in sums.items()}


def render_localization_table(outcomes: list[LocalizationOutcome]) -> str:
    """Text table of mean errors: estimators x schemes (E10 artefact)."""
    means = mean_error_by_scheme(outcomes)
    estimators = sorted({e for e, _ in means})
    schemes = [
        WeightingScheme.UNIFORM,
        WeightingScheme.RANK_RECIPROCAL,
        WeightingScheme.GROUP_MATCHED_SHARE,
    ]
    heading = "Event localisation mean error (km): estimator x weighting scheme"
    lines = [heading, "-" * len(heading)]
    header = f"{'estimator':<10}" + "".join(f"{s.value:>22}" for s in schemes)
    lines.append(header)
    for estimator in estimators:
        cells = []
        for scheme in schemes:
            value = means.get((estimator, scheme))
            cells.append(f"{value:22.2f}" if value is not None else f"{'-':>22}")
        lines.append(f"{estimator:<10}" + "".join(cells))
    return "\n".join(lines)
