"""Composable study stages — the decomposed §III-B/§IV pipeline.

The seed implementation ran the whole study inside two monoliths
(``RefinementPipeline.run`` and ``run_study``).  Here the same sequence is
five independently testable, swappable :class:`Stage` units operating on a
shared :class:`StudyState` under a
:class:`~repro.engine.context.RunContext`:

1. :class:`RefineStage` — corpus-level funnel accounting;
2. :class:`ProfileGeocodeStage` — forward-geocode profile locations;
3. :class:`ReverseGeocodeStage` — the per-tweet PlaceFinder hot path;
4. :class:`GroupingStage` — the paper's merged-string Top-k method;
5. :class:`StatisticsStage` — Figs. 6-7 aggregates.

Every stage records a span and reports into the run's metrics registry.
The staged sequence is property-tested to be result-identical to the seed
monolith (``tests/engine/test_engine.py``), including the simulated API
usage accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.analysis.result import RefinementFunnel
from repro.engine.context import RunContext
from repro.errors import ConfigurationError
from repro.geo.forward import GeocodeStatus, TextGeocoder
from repro.geo.gazetteer import Gazetteer
from repro.geo.region import AdminPath, District
from repro.geo.reverse import ReverseGeocoder
from repro.geocode.cellstore import Cell
from repro.geocode.service import GeocodeService, simulated_latency
from repro.geocode.backend import PlaceFinderBackend
from repro.grouping.merge import TieBreak
from repro.grouping.stats import GroupStatistics, compute_group_statistics
from repro.grouping.topk import UserGrouping, group_users
from repro.storage.tweetstore import TweetStore
from repro.storage.userstore import UserStore
from repro.twitter.models import GeotaggedObservation, Tweet, TwitterUser
from repro.yahooapi.client import ClientStats, PlaceFinderClient

#: Quota used for engine-owned PlaceFinder clients (effectively unlimited,
#: matching the seed ``run_study`` default).
ENGINE_QUOTA = 10**9


@dataclass
class StudyState:
    """Mutable state the stages read and write.

    Inputs are set up by the engine (or by :class:`RefinementPipeline`
    when it delegates here); each stage fills in its output fields.
    Reverse geocoding goes through the tiered service unless a client is
    injected; that per-tweet client loop stays because only it keeps the
    client's per-tweet cache hits, its request-indexed failure plan and a
    quota error raised mid-run.

    Attributes:
        users: Crawled / streamed accounts.
        tweets: Their tweets.
        text_geocoder: Profile-location resolver.
        gazetteer: District catalogue the default geocode service
            resolves against when none is supplied.
        placefinder: Injected client (custom quota / failure plan).  When
            present, reverse geocoding loops over every GPS tweet through
            it; ``None`` lets the stage own its client behind the tiered
            service.
        geocode: The tiered :class:`~repro.geocode.service.GeocodeService`
            reverse geocoding resolves through when no client is injected.
            ``None`` makes the stage build a memory-only service; the
            engine supplies one so warm tiers persist across runs.
        min_gps_tweets: Study-entry threshold (paper: 1).
        tie_break: Equal-count ordering policy for the grouping method.
        funnel: Refinement attrition accounting (RefineStage onwards).
        profile_districts: Every well-defined user's district (step 2).
        kept_profile_districts: Study users' districts (steps 3-4).
        observations: Grouping-ready per-tweet rows.
        study_users: Surviving users by id.
        api_stats: Simulated PlaceFinder usage for the run.
        groupings: Per-user Top-k outcomes.
        statistics: Per-group aggregates.
    """

    users: UserStore
    tweets: TweetStore
    text_geocoder: TextGeocoder
    gazetteer: Gazetteer | None = None
    placefinder: PlaceFinderClient | None = None
    geocode: GeocodeService | None = None
    min_gps_tweets: int = 1
    tie_break: TieBreak = TieBreak.STRING_ASC

    funnel: RefinementFunnel = field(default_factory=RefinementFunnel)
    profile_districts: dict[int, District] = field(default_factory=dict)
    kept_profile_districts: dict[int, District] = field(default_factory=dict)
    observations: list[GeotaggedObservation] = field(default_factory=list)
    study_users: dict[int, TwitterUser] = field(default_factory=dict)
    api_stats: ClientStats = field(default_factory=ClientStats)
    groupings: dict[int, UserGrouping] = field(default_factory=dict)
    statistics: GroupStatistics | None = None


class Stage(Protocol):
    """One unit of the study pipeline.

    A stage reads its inputs from the :class:`StudyState`, writes its
    outputs back, records items in/out on its span, and reports counters
    into ``context.metrics``.  Stages are stateless: all run state lives
    on the context and state objects, so one stage instance can serve any
    number of runs.
    """

    name: str

    def run(self, context: RunContext, state: StudyState) -> None:
        """Execute the stage over ``state`` under ``context``."""
        ...


# --------------------------------------------------------------------- stages
class RefineStage:
    """Seeds the refinement funnel with corpus-level counts (step 1)."""

    name = "refine"

    def run(self, context: RunContext, state: StudyState) -> None:
        """Count crawled users and stored/GPS tweets into the funnel."""
        with context.stage(self.name) as span:
            funnel = state.funnel
            funnel.crawled_users = len(state.users)
            funnel.total_tweets = len(state.tweets)
            funnel.gps_tweets = state.tweets.gps_count()
            span.items_in = funnel.crawled_users
            span.items_out = funnel.crawled_users
            context.metrics.register_source("funnel", funnel.as_dict)


class ProfileGeocodeStage:
    """Resolves profile locations to districts (funnel step 2)."""

    name = "profile_geocode"

    def run(self, context: RunContext, state: StudyState) -> None:
        """Forward-geocode every crawled user's profile-location field."""
        with context.stage(self.name) as span:
            funnel = state.funnel
            for user in state.users:
                span.items_in += 1
                result = state.text_geocoder.geocode(user.profile_location)
                funnel.profile_status_counts[result.status.value] += 1
                if result.status is GeocodeStatus.RESOLVED and result.district is not None:
                    state.profile_districts[user.user_id] = result.district
            funnel.well_defined_users = len(state.profile_districts)
            span.items_out = funnel.well_defined_users
            context.metrics.counter("profile_geocode.resolved", span.items_out)
            context.metrics.counter(
                "profile_geocode.dropped", span.items_in - span.items_out
            )


class ReverseGeocodeStage:
    """The per-tweet PlaceFinder hot path (funnel steps 3-4).

    With an injected client the stage runs the seed's per-tweet loop
    through it — quota exhaustion and index-based failure injection keep
    their exact semantics.  Otherwise the stage resolves through the
    tiered :class:`~repro.geocode.service.GeocodeService`: GPS points
    dedupe into 0.001° cells, cached cells are answered by the tiers
    (including the persistent store — a warm second run issues **zero**
    backend lookups), and only the misses are resolved, each at its
    cell's canonical representative point.

    Because every cell outcome is a pure function of the cell key, the
    canonical :class:`ClientStats` a single shared serial client would
    have reported is reconstructed *arithmetically* — requests = distinct
    cells, cache hits = lookups minus distinct cells, no-results = cells
    resolving nowhere — instead of by the serial per-tweet replay earlier
    revisions needed.  Byte-identical for any cache warmth.
    """

    name = "reverse_geocode"

    #: Mirrors ``PlaceFinderClient`` defaults for engine-owned clients.
    latency_s = 0.05
    cache_quantum_deg = 0.001

    def run(self, context: RunContext, state: StudyState) -> None:
        """Reverse-geocode every study candidate's GPS tweets."""
        with context.stage(self.name) as span:
            candidates = self._candidates(state)
            span.items_in = sum(len(gps) for _, _, gps in candidates)
            if state.placefinder is not None:
                stats = self._run_injected(state, candidates)
                context.metrics.register_source(
                    "geocode.client",
                    lambda: {"cache_size": state.placefinder.cache_size},
                )
            else:
                stats = self._run_service(state, candidates)
                assert state.geocode is not None
                context.metrics.register_source(
                    "geocode.tiers", state.geocode.stats_source
                )
            state.api_stats = stats
            state.funnel.resolved_observations = len(state.observations)
            state.funnel.study_users = len(state.study_users)
            span.items_out = len(state.observations)
            context.metrics.register_source("geocode", stats.snapshot)

    # ------------------------------------------------------------ candidates
    def _candidates(
        self, state: StudyState
    ) -> list[tuple[int, District, list[Tweet]]]:
        """Users surviving the GPS-availability step, with their GPS tweets."""
        candidates = []
        for user_id, district in state.profile_districts.items():
            gps_tweets = [t for t in state.tweets.by_user(user_id) if t.has_gps]
            if len(gps_tweets) < state.min_gps_tweets:
                continue
            state.funnel.users_with_gps += 1
            candidates.append((user_id, district, gps_tweets))
        return candidates

    # -------------------------------------------------------- injected client
    def _run_injected(
        self,
        state: StudyState,
        candidates: list[tuple[int, District, list[Tweet]]],
    ) -> ClientStats:
        """The seed's serial per-tweet loop through the injected client."""
        placefinder = state.placefinder
        assert placefinder is not None
        for user_id, district, gps_tweets in candidates:
            user_rows = []
            for tweet in gps_tweets:
                assert tweet.coordinates is not None
                path = placefinder.resolve_admin_path(tweet.coordinates)
                if path is None:
                    state.funnel.unresolvable_gps_tweets += 1
                    continue
                user_rows.append(self._observation(user_id, district, tweet, path))
            self._keep(state, user_id, district, user_rows)
        return placefinder.stats

    # --------------------------------------------------------- tiered service
    def _run_service(
        self,
        state: StudyState,
        candidates: list[tuple[int, District, list[Tweet]]],
    ) -> ClientStats:
        """Resolve distinct cells through the tiers; derive canonical stats."""
        service = self._service(state)
        # Dedupe GPS points into cells and split them by tier residency.
        lookups = 0
        seen: set[Cell] = set()
        outcomes: dict[Cell, AdminPath | None] = {}
        misses: list[Cell] = []
        for _, _, gps_tweets in candidates:
            for tweet in gps_tweets:
                assert tweet.coordinates is not None
                lookups += 1
                cell = service.cell_of(tweet.coordinates)
                if cell in seen:
                    continue
                seen.add(cell)
                hit, outcome = service.lookup_cached(cell)
                if hit:
                    outcomes[cell] = outcome
                else:
                    misses.append(cell)
        for cell in misses:
            outcomes[cell] = service.resolve_uncached(cell)

        # Canonical accounting, arithmetically: cell outcomes are pure
        # functions of the cell key, so a single shared serial client
        # would have issued one request per distinct cell (first point to
        # hit it) and served every other point from cache — no matter the
        # order.  Latency accumulates by repeated addition to reproduce
        # the serial client's float bit for bit.
        stats = ClientStats()
        stats.requests = len(seen)
        stats.cache_hits = lookups - len(seen)
        stats.no_result = sum(
            1 for outcome in outcomes.values() if outcome is None
        )
        stats.simulated_latency_s = simulated_latency(len(seen), self.latency_s)

        for user_id, district, gps_tweets in candidates:
            user_rows = []
            for tweet in gps_tweets:
                assert tweet.coordinates is not None
                path = outcomes[service.cell_of(tweet.coordinates)]
                if path is None:
                    state.funnel.unresolvable_gps_tweets += 1
                    continue
                user_rows.append(self._observation(user_id, district, tweet, path))
            self._keep(state, user_id, district, user_rows)
        return stats

    def _service(self, state: StudyState) -> GeocodeService:
        """The state's geocode service, building a memory-only default."""
        if state.geocode is None:
            if state.gazetteer is None:
                raise ConfigurationError(
                    "reverse geocoding requires a gazetteer or a geocode "
                    "service on the state"
                )
            state.geocode = GeocodeService(
                PlaceFinderBackend(
                    PlaceFinderClient(
                        ReverseGeocoder(state.gazetteer),
                        daily_quota=ENGINE_QUOTA,
                        latency_s=self.latency_s,
                    )
                )
            )
        return state.geocode

    # -------------------------------------------------------------- internals
    @staticmethod
    def _observation(
        user_id: int, district: District, tweet: Tweet, path: AdminPath
    ) -> GeotaggedObservation:
        return GeotaggedObservation(
            user_id=user_id,
            profile_state=district.state,
            profile_county=district.name,
            tweet_state=path.state,
            tweet_county=path.county,
            timestamp_ms=tweet.created_at_ms,
        )

    @staticmethod
    def _keep(
        state: StudyState,
        user_id: int,
        district: District,
        user_rows: list[GeotaggedObservation],
    ) -> None:
        if not user_rows:
            return
        state.observations.extend(user_rows)
        state.study_users[user_id] = state.users.get(user_id)
        state.kept_profile_districts[user_id] = district


class GroupingStage:
    """The paper's merged-string Top-k method over every study user."""

    name = "grouping"

    def run(self, context: RunContext, state: StudyState) -> None:
        """Classify every study user into their Top-k group."""
        with context.stage(self.name) as span:
            span.items_in = len(state.observations)
            groupings = group_users(state.observations, tie_break=state.tie_break)
            state.groupings = groupings
            span.items_out = len(groupings)
            context.metrics.counter("grouping.users", len(groupings))
            context.metrics.counter("grouping.observations", len(state.observations))
            for grouping in groupings.values():
                context.metrics.counter(f"grouping.group.{grouping.group.value}")


class StatisticsStage:
    """Aggregates groupings into the Figs. 6-7 statistics table."""

    name = "statistics"

    def run(self, context: RunContext, state: StudyState) -> None:
        """Compute per-group statistics over the run's groupings."""
        with context.stage(self.name) as span:
            span.items_in = len(state.groupings)
            state.statistics = compute_group_statistics(state.groupings.values())
            span.items_out = len(state.statistics.rows)
            context.metrics.gauge("stats.total_users", state.statistics.total_users)
            context.metrics.gauge("stats.total_tweets", state.statistics.total_tweets)
            context.metrics.gauge(
                "stats.overall_avg_tweet_locations",
                state.statistics.overall_avg_tweet_locations,
            )
