"""Composable study stages — the decomposed §III-B/§IV pipeline.

The seed implementation ran the whole study inside two monoliths
(``RefinementPipeline.run`` and ``run_study``).  Here the same sequence is
five independently testable, swappable :class:`Stage` units operating on a
shared :class:`StudyState` under a
:class:`~repro.engine.context.RunContext`:

1. :class:`RefineStage` — corpus-level funnel accounting;
2. :class:`ProfileGeocodeStage` — forward-geocode profile locations;
3. :class:`ReverseGeocodeStage` — the per-tweet PlaceFinder hot path,
   shardable across processes;
4. :class:`GroupingStage` — the paper's merged-string Top-k method,
   shardable per user;
5. :class:`StatisticsStage` — Figs. 6-7 aggregates.

Every stage records a span and reports into the run's metrics registry.
The staged sequence is property-tested to be result-identical to the seed
monolith (``tests/engine/test_engine.py``), including the simulated API
usage accounting, for any shard count and backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

from repro.analysis.result import RefinementFunnel
from repro.engine.context import RunContext
from repro.engine.sharding import ShardedExecutor, ShardRunReport
from repro.errors import ConfigurationError
from repro.geo.forward import GeocodeStatus, TextGeocoder
from repro.geo.gazetteer import Gazetteer
from repro.geo.region import AdminPath, District
from repro.geo.reverse import ReverseGeocoder
from repro.geocode.cellstore import Cell
from repro.geocode.service import (
    GeocodeService,
    TierStats,
    shard_segment_path,
    simulated_latency,
)
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

    Attributes:
        users: Crawled / streamed accounts.
        tweets: Their tweets.
        text_geocoder: Profile-location resolver.
        gazetteer: District catalogue (required for the sharded reverse-
            geocode path, which builds shard-local resolvers from it).
        placefinder: Injected client (custom quota / failure plan).  When
            present, reverse geocoding runs serially through it — index-
            based failure injection and shared quota cannot be sharded
            without changing semantics.  ``None`` lets the stage own its
            clients and shard freely.
        geocode: The tiered :class:`~repro.geocode.service.GeocodeService`
            reverse geocoding resolves through when no client is injected.
            ``None`` makes the stage build a memory-only service; the
            engine supplies one so warm tiers persist across runs.
        executor: Shard plan for the hot-path stages.
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
    executor: ShardedExecutor = field(default_factory=ShardedExecutor)
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


@dataclass
class ShardGeocodeReport:
    """What one reverse-geocode shard worker sends back to the parent.

    Attributes:
        resolved: ``(cell, outcome)`` pairs in chunk order.
        tier_stats: The shard-local service's tier accounting.
        client_stats: The shard-local PlaceFinder client's accounting.
    """

    resolved: list[tuple[Cell, AdminPath | None]]
    tier_stats: TierStats
    client_stats: ClientStats


def _resolve_cells_shard(
    cells: list[Cell], payload: object
) -> ShardGeocodeReport:
    """Shard worker: resolve each cache cell at its representative point.

    Each shard owns a full *shard-local* tiered
    :class:`~repro.geocode.service.GeocodeService` — an L1 over an
    optional shard-partitioned cell-store segment file — wrapping a
    PlaceFinder client (XML round trip included, so per-lookup cost
    matches the serial path) built from the shared gazetteer.  Workers
    never touch the shared warm cache; the parent merges their segments
    and stats after they return.  Because cell outcomes are pure
    functions of the cell key, a worker retried after a crash reopens its
    segment, warm-starts from the cells it already persisted, and still
    returns byte-identical outcomes.  Module-level so the process
    backend can pickle it.
    """
    gazetteer, latency_s, quantum_deg, segment = payload  # type: ignore[misc]
    if not cells:
        return ShardGeocodeReport([], TierStats(), ClientStats())
    client = PlaceFinderClient(
        ReverseGeocoder(gazetteer), daily_quota=ENGINE_QUOTA, latency_s=latency_s
    )
    service = GeocodeService(
        PlaceFinderBackend(client), cache_path=segment, quantum_deg=quantum_deg
    )
    resolved = [(cell, service.resolve_cell(cell)) for cell in cells]
    return ShardGeocodeReport(resolved, service.stats, client.stats)


def _record_shard_run(
    context: RunContext, stage_name: str, report: ShardRunReport
) -> None:
    """Mirror a sharded run into the trace: per-shard spans + counters."""
    for outcome in report.outcomes:
        context.record_span(
            f"{stage_name}.shard{outcome.index}",
            outcome.duration_s,
            items_in=outcome.items,
            items_out=outcome.items,
        )
    context.metrics.counter("sharding.worker_retries", report.worker_retries)
    context.metrics.counter("sharding.serial_fallbacks", report.serial_fallbacks)
    context.metrics.gauge("sharding.shards", report.shards)
    context.metrics.gauge("sharding.max_workers", report.max_workers)


class ReverseGeocodeStage:
    """The per-tweet PlaceFinder hot path (funnel steps 3-4), shardable.

    With an injected client the stage runs the seed's serial loop
    through it — quota exhaustion and index-based failure injection keep
    their exact semantics.  Otherwise the stage resolves through the
    tiered :class:`~repro.geocode.service.GeocodeService`: GPS points
    dedupe into 0.001° cells, cached cells are answered by the tiers
    (including the persistent store — a warm second run issues **zero**
    backend lookups), and only the misses are resolved — across the
    shard plan, each at its cell's canonical representative point.

    Because every cell outcome is a pure function of the cell key, the
    canonical :class:`ClientStats` a single shared serial client would
    have reported is reconstructed *arithmetically* — requests = distinct
    cells, cache hits = lookups minus distinct cells, no-results = cells
    resolving nowhere — instead of by the serial per-tweet replay earlier
    revisions needed.  Byte-identical for any shard count, backend, and
    cache warmth.
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
                stats = self._run_service(context, state, candidates)
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
        context: RunContext,
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
        self._resolve_misses(context, state, service, misses, outcomes)

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

    def _resolve_misses(
        self,
        context: RunContext,
        state: StudyState,
        service: GeocodeService,
        misses: list[Cell],
        outcomes: dict[Cell, AdminPath | None],
    ) -> None:
        """Resolve uncached cells at their representatives, sharding when
        the executor has more than one shard.

        Sharded runs follow the shard-local-then-merge cellstore
        protocol: each worker resolves its chunk through its own tiered
        service over a shard-partitioned segment file (single writer per
        journal — no concurrent appends to the shared warm cache), and
        the parent merges outcomes append-only into the shared store and
        folds worker :class:`TierStats`/:class:`ClientStats` into the
        run's fleet totals, in shard order, deterministically.
        """
        if not misses:
            return
        if state.executor.shards > 1:
            if state.gazetteer is None:
                raise ConfigurationError(
                    "sharded reverse geocoding requires a gazetteer on the state"
                )
            shards = state.executor.shards
            segments = [
                shard_segment_path(service.cache_path, index)
                if service.cache_path is not None
                else None
                for index in range(shards)
            ]
            report = state.executor.run_shards(
                misses,
                _resolve_cells_shard,
                shard_payloads=[
                    (state.gazetteer, self.latency_s, service.quantum_deg, segment)
                    for segment in segments
                ],
            )
            fleet_clients = ClientStats()
            for outcome in report.outcomes:
                shard_report = outcome.result
                assert isinstance(shard_report, ShardGeocodeReport)
                service.stats.merge(shard_report.tier_stats)
                fleet_clients.merge(shard_report.client_stats)
                for cell, path in shard_report.resolved:
                    service.store(cell, path)
                    outcomes[cell] = path
            for segment in segments:
                if segment is not None:
                    Path(segment).unlink(missing_ok=True)
            context.metrics.register_source(
                "geocode.workers", fleet_clients.snapshot
            )
            _record_shard_run(context, self.name, report)
        else:
            for cell in misses:
                outcomes[cell] = service.resolve_uncached(cell)

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


def _group_users_shard(
    user_chunks: list[list[GeotaggedObservation]], payload: object
) -> dict[int, UserGrouping]:
    """Shard worker: run the batch grouping method over one chunk of users.

    ``user_chunks`` holds each user's observation rows; users are
    independent under the method, so a chunk classifies exactly as it
    would inside the full serial run.
    """
    (tie_break,) = payload  # type: ignore[misc]
    flat = [obs for rows in user_chunks for obs in rows]
    return group_users(flat, tie_break=tie_break)


class GroupingStage:
    """The paper's merged-string Top-k method, sharded per user.

    Users are independent under the grouping method, so observations are
    partitioned into contiguous per-user chunks (first-encounter user
    order, matching the serial dict order) and classified shard-by-shard;
    merging is dict concatenation in shard order.
    """

    name = "grouping"

    def run(self, context: RunContext, state: StudyState) -> None:
        """Classify every study user into their Top-k group."""
        with context.stage(self.name) as span:
            span.items_in = len(state.observations)
            per_user: dict[int, list[GeotaggedObservation]] = {}
            for observation in state.observations:
                per_user.setdefault(observation.user_id, []).append(observation)
            report = state.executor.run_shards(
                list(per_user.values()),
                _group_users_shard,
                payload=(state.tie_break,),
            )
            if state.executor.shards > 1:
                _record_shard_run(context, self.name, report)
            groupings: dict[int, UserGrouping] = {}
            for shard_result in report.results:
                groupings.update(shard_result)
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
