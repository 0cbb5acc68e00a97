"""The StudyEngine: the staged execution substrate for the whole study.

``StudyEngine.run`` replaces the seed ``run_study`` monolith: it threads
one :class:`~repro.engine.context.RunContext` through the five default
stages (refine → profile geocode → reverse geocode → grouping →
statistics) in one process, and assembles the same
:class:`~repro.analysis.correlation.StudyResult` the monolith produced —
property-tested byte-identical.  ``run_study`` / ``run_korean_study`` /
``run_ladygaga_study`` are now thin wrappers over this class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.result import StudyResult
from repro.engine.context import RunContext
from repro.engine.stages import (
    GroupingStage,
    ProfileGeocodeStage,
    RefineStage,
    ReverseGeocodeStage,
    Stage,
    StatisticsStage,
    StudyState,
)
from repro.engine.stages import ENGINE_QUOTA
from repro.errors import ConfigurationError, InsufficientDataError
from repro.geo.forward import TextGeocoder
from repro.geo.gazetteer import Gazetteer
from repro.geo.reverse import ReverseGeocoder
from repro.geocode.backend import PlaceFinderBackend
from repro.geocode.service import GeocodeService, cell_cache_path
from repro.grouping.merge import TieBreak
from repro.storage.tweetstore import TweetStore
from repro.storage.userstore import UserStore
from repro.yahooapi.client import PlaceFinderClient


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Execution configuration for a :class:`StudyEngine`.

    Attributes:
        min_gps_tweets: Study-entry threshold (paper: 1).
        tie_break: Equal-count ordering policy for the grouping method.
        cache_dir: Directory for the geocode service's persistent cell
            tier (``geocells.jsonl``); ``None`` keeps the cache in
            memory only.  A second run pointed at a warm directory
            issues zero backend geocode lookups.
    """

    min_gps_tweets: int = 1
    tie_break: TieBreak = TieBreak.STRING_ASC
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if self.min_gps_tweets < 1:
            raise ConfigurationError(
                f"min_gps_tweets must be >= 1, got {self.min_gps_tweets}"
            )


@dataclass
class EngineRun:
    """One completed engine run: the result plus its execution context."""

    result: StudyResult
    context: RunContext
    state: StudyState


class StudyEngine:
    """Runs the correlation study as a staged, instrumented pipeline.

    Args:
        gazetteer: District catalogue both geocoders resolve against.
        config: Execution configuration (thresholds, geocode cache).
        placefinder: Optionally inject a pre-configured client (custom
            quota, failure plan).  Injection makes the reverse-geocode
            stage loop over every GPS tweet through it instead of the
            tiered geocode service.
        stages: Override the stage sequence (defaults to the five-stage
            study pipeline); each entry must satisfy the
            :class:`~repro.engine.stages.Stage` protocol.
    """

    def __init__(
        self,
        gazetteer: Gazetteer,
        config: EngineConfig | None = None,
        placefinder: PlaceFinderClient | None = None,
        stages: list[Stage] | None = None,
    ):
        self._gazetteer = gazetteer
        self._config = config or EngineConfig()
        self._placefinder = placefinder
        self._stages: list[Stage] = stages if stages is not None else default_stages()
        self._last_run: EngineRun | None = None
        # One tiered geocode service per engine: cells resolved by one run
        # stay warm for the next, and a cache_dir makes them durable.
        self._geocode: GeocodeService | None = None
        if placefinder is None:
            cache_path = (
                cell_cache_path(self._config.cache_dir)
                if self._config.cache_dir
                else None
            )
            self._geocode = GeocodeService(
                PlaceFinderBackend(
                    PlaceFinderClient(
                        ReverseGeocoder(gazetteer), daily_quota=ENGINE_QUOTA
                    )
                ),
                cache_path=cache_path,
            )

    @property
    def config(self) -> EngineConfig:
        """The engine's execution configuration."""
        return self._config

    @property
    def stages(self) -> tuple[Stage, ...]:
        """The stage sequence, in execution order."""
        return tuple(self._stages)

    @property
    def last_run(self) -> EngineRun | None:
        """The most recent run's result/context/state (``None`` before any)."""
        return self._last_run

    @property
    def geocode(self) -> GeocodeService | None:
        """The engine-owned tiered geocode service (``None`` with an
        injected client, whose serial semantics bypass the tiers)."""
        return self._geocode

    def run(
        self,
        users: UserStore,
        tweets: TweetStore,
        dataset_name: str = "dataset",
        context: RunContext | None = None,
    ) -> StudyResult:
        """Execute every stage and assemble the :class:`StudyResult`.

        Args:
            users: Crawled / streamed accounts.
            tweets: Their tweets.
            dataset_name: Label used in reports.
            context: Optionally supply the run context (e.g. one whose
                metrics registry already carries crawl accounting); a
                fresh one is created otherwise.  Either way the full
                context stays available on :attr:`last_run`.
        """
        context = context or RunContext(dataset_name=dataset_name)
        state = StudyState(
            users=users,
            tweets=tweets,
            text_geocoder=TextGeocoder(self._gazetteer),
            gazetteer=self._gazetteer,
            placefinder=self._placefinder,
            geocode=self._geocode,
            min_gps_tweets=self._config.min_gps_tweets,
            tie_break=self._config.tie_break,
        )
        with context.metrics.timer("engine.total.s"):
            for stage in self._stages:
                stage.run(context, state)
        if state.statistics is None:
            raise InsufficientDataError(
                "engine stage sequence produced no statistics"
            )  # pragma: no cover - default stages always aggregate
        result = StudyResult(
            dataset_name=dataset_name,
            funnel=state.funnel,
            observations=state.observations,
            groupings=state.groupings,
            statistics=state.statistics,
            profile_districts=state.kept_profile_districts,
            api_stats=state.api_stats,
        )
        self._last_run = EngineRun(result=result, context=context, state=state)
        return result


def default_stages() -> list[Stage]:
    """The standard five-stage study pipeline, in execution order."""
    return [
        RefineStage(),
        ProfileGeocodeStage(),
        ReverseGeocodeStage(),
        GroupingStage(),
        StatisticsStage(),
    ]
