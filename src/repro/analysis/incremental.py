"""Incremental study accumulator — the full correlation study on a live stream.

The batch :class:`~repro.engine.engine.StudyEngine` runs the five-stage
study once over a frozen corpus.  A streaming deployment instead watches
tweets arrive and must keep the whole :class:`~repro.analysis.correlation
.StudyResult` — funnel, observations, groupings, Figs. 6-7 statistics,
simulated API accounting — fresh at every point in the stream.

:class:`IncrementalStudyAccumulator` folds micro-batches of tweets into
per-user state:

* profile locations are forward-geocoded once, on a user's first tweet;
* GPS tweets of well-defined users are reverse-geocoded through the
  tiered :class:`~repro.geocode.service.GeocodeService` — one resolution
  per 0.001° cell, at the cell's canonical representative point;
* observations feed an :class:`~repro.grouping.incremental
  .IncrementalGrouper`, and only the users *touched by the batch* are
  re-classified — the per-group tallies update by group-transition
  deltas rather than a full recount.

Because a cell's outcome is a pure function of the cell key (see
:mod:`repro.geocode.service`), fold-time resolutions are *already* the
batch pipeline's resolutions: :meth:`IncrementalStudyAccumulator
.snapshot` assembles the :class:`StudyResult` directly from the retained
per-cell rows and the live grouper state, with **no** re-geocoding — the
serial canonical-order replay earlier revisions performed is gone, and a
snapshot costs O(study users), not O(retained tweets) geocoder calls.
The simulated :class:`~repro.yahooapi.client.ClientStats` accounting is
reconstructed arithmetically from the same invariant (requests = distinct
cells, cache hits = lookups − distinct cells).  Byte-identity with
``run_study`` is property-tested in
``tests/streaming/test_stream_equivalence.py`` via the serialised JSON
document.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from pathlib import Path

from repro.analysis.result import RefinementFunnel, StudyResult
from repro.errors import ConfigurationError
from repro.geo.forward import GeocodeStatus, TextGeocoder
from repro.geo.gazetteer import Gazetteer
from repro.geo.region import District
from repro.geo.reverse import ReverseGeocoder
from repro.geocode.backend import PlaceFinderBackend
from repro.geocode.cellstore import Cell
from repro.geocode.service import GeocodeService, cell_cache_path, simulated_latency
from repro.grouping.incremental import IncrementalGrouper
from repro.grouping.merge import TieBreak
from repro.grouping.stats import compute_group_statistics, empty_group_statistics
from repro.grouping.topk import TopKGroup, UserGrouping
from repro.storage.userstore import UserStore
from repro.twitter.models import GeotaggedObservation, Tweet
from repro.yahooapi.client import ClientStats, PlaceFinderClient

#: Quota for the accumulator-owned PlaceFinder client — effectively
#: unlimited, matching the engine's ``ENGINE_QUOTA``.
STREAM_QUOTA = 10**9

#: Simulated per-request latency, mirroring the engine's client default.
STREAM_LATENCY_S = 0.05


class IncrementalStudyAccumulator:
    """Maintains a full study's state under streaming tweet arrivals.

    Args:
        gazetteer: District catalogue both geocoders resolve against.
        directory: Account directory tweets are hydrated against (the
            simulated platform's user store; the real Streaming API
            embeds the author object in every status).
        tie_break: Equal-count ordering policy (matches the batch path).
        min_gps_tweets: Study-entry threshold.  Only the paper's value
            (1) is supported on a stream: a higher threshold makes the
            batch pipeline skip *all* reverse geocoding for users below
            it, which cannot be decided before the stream ends.
        cache_dir: Directory for the geocode service's persistent cell
            tier (``geocells.jsonl``), shared with ``repro study
            --cache-dir`` — a stream resuming (or starting) against a
            warm directory issues zero backend geocode lookups for
            already-resolved cells.
        geocode: Inject a pre-built service instead (overrides
            ``cache_dir``).

    Raises:
        ConfigurationError: for ``min_gps_tweets != 1``.
    """

    def __init__(
        self,
        gazetteer: Gazetteer,
        directory: UserStore,
        tie_break: TieBreak = TieBreak.STRING_ASC,
        min_gps_tweets: int = 1,
        cache_dir: str | Path | None = None,
        geocode: GeocodeService | None = None,
    ):
        if min_gps_tweets != 1:
            raise ConfigurationError(
                "streaming accumulation supports only min_gps_tweets=1 "
                f"(the paper's threshold), got {min_gps_tweets}"
            )
        self._directory = directory
        self._gazetteer = gazetteer
        self._tie_break = tie_break
        self._text_geocoder = TextGeocoder(gazetteer)
        if geocode is None:
            cache_path = (
                cell_cache_path(cache_dir) if cache_dir is not None else None
            )
            geocode = GeocodeService(
                PlaceFinderBackend(
                    PlaceFinderClient(
                        ReverseGeocoder(gazetteer),
                        daily_quota=STREAM_QUOTA,
                        latency_s=STREAM_LATENCY_S,
                    )
                ),
                cache_path=cache_path,
            )
        self._geocode = geocode
        self._grouper = IncrementalGrouper(tie_break)

        # Per-user state, keyed by user id.
        self._profile_status: dict[int, str] = {}
        self._profile_districts: dict[int, District] = {}
        self._groupings: dict[int, UserGrouping] = {}
        # Users whose observations changed since the last take_dirty() —
        # the delta the live snapshot builder rebuilds from.
        self._dirty: set[int] = set()
        # One-shot flag: snapshot()/build_funnel() must geocode *every*
        # directory user (the batch pipeline does), but only once.
        self._directory_swept = False
        # Funnel status accounting kept incrementally: per-status counts
        # plus the smallest uid that carries each status, which is the
        # Counter *insertion order* a sorted-uid sweep would produce.
        self._status_counts: Counter[str] = Counter()
        self._status_min_uid: dict[str, int] = {}
        # GPS tweets of well-defined users — (tweet_id, timestamp, cell) —
        # kept sorted by tweet id so snapshots assemble observations in
        # batch-canonical order without touching the geocoder again.
        self._gps_rows: dict[int, list[tuple[int, int, Cell]]] = {}

        # Stream-wide funnel and canonical-API counters.
        self._total_tweets = 0
        self._gps_tweets = 0
        self._unresolvable = 0
        self._gps_lookups = 0
        self._cells_seen: set[Cell] = set()
        self._none_cells: set[Cell] = set()

        # Live per-group user tally, updated by transition deltas.
        self._group_tally: Counter[TopKGroup] = Counter()

    # ----------------------------------------------------------------- ingest
    def fold(self, tweets: list[Tweet]) -> int:
        """Fold one micro-batch into the study state.

        Returns the number of new observations the batch produced (the
        consumer reports it as ``stream.consumer.observations``).
        """
        touched: set[int] = set()
        produced = 0
        for tweet in tweets:
            self._total_tweets += 1
            if tweet.has_gps:
                self._gps_tweets += 1
            district = self._district_of(tweet.user_id)
            if district is None or not tweet.has_gps:
                continue
            assert tweet.coordinates is not None
            cell = self._geocode.cell_of(tweet.coordinates)
            insort(
                self._gps_rows.setdefault(tweet.user_id, []),
                (tweet.tweet_id, tweet.created_at_ms, cell),
            )
            self._gps_lookups += 1
            self._cells_seen.add(cell)
            path = self._geocode.resolve_cell(cell)
            if path is None:
                self._none_cells.add(cell)
                self._unresolvable += 1
                continue
            observation = GeotaggedObservation(
                user_id=tweet.user_id,
                profile_state=district.state,
                profile_county=district.name,
                tweet_state=path.state,
                tweet_county=path.county,
                timestamp_ms=tweet.created_at_ms,
            )
            self._grouper.add(observation)
            touched.add(tweet.user_id)
            produced += 1
        for user_id in touched:
            self._reclassify(user_id)
        self._dirty.update(touched)
        return produced

    def _district_of(self, user_id: int) -> District | None:
        """The user's profile district, geocoding on first encounter."""
        if user_id not in self._profile_status:
            user = self._directory.get(user_id)
            result = self._text_geocoder.geocode(user.profile_location)
            status = result.status.value
            self._profile_status[user_id] = status
            self._status_counts[status] += 1
            if user_id < self._status_min_uid.get(status, user_id + 1):
                self._status_min_uid[status] = user_id
            if result.status is GeocodeStatus.RESOLVED and result.district is not None:
                self._profile_districts[user_id] = result.district
        return self._profile_districts.get(user_id)

    def _reclassify(self, user_id: int) -> None:
        """Refresh one user's cached grouping and the group tally."""
        previous = self._groupings.get(user_id)
        current = self._grouper.classify(user_id)
        if previous is not None:
            self._group_tally[previous.group] -= 1
        self._group_tally[current.group] += 1
        self._groupings[user_id] = current

    # ------------------------------------------------------- delta-build views
    @property
    def dirty_count(self) -> int:
        """Users whose observations changed since the last ``take_dirty``."""
        return len(self._dirty)

    def take_dirty(self) -> set[int]:
        """Claim (and clear) the set of users changed since the last call.

        The live :class:`~repro.live.builder.DeltaSnapshotBuilder` calls
        this at the top of each build; it keeps the claimed set in its
        own pending pool until the build *succeeds*, so a failed build
        never loses dirt.
        """
        dirty = self._dirty
        self._dirty = set()
        return dirty

    def mark_dirty(self, user_ids) -> None:
        """Force re-derivation of ``user_ids`` on the next delta build.

        Folding marks dirt automatically; this hook exists for callers
        that need to invalidate users without new tweets — churn
        injection in tests, or a cache flush after out-of-band state
        surgery.  Marking a clean user is
        harmless: the rebuild re-derives the same bytes.
        """
        self._dirty |= set(user_ids)

    def ensure_directory_swept(self) -> None:
        """Profile-geocode every directory user (once).

        The batch ``ProfileGeocodeStage`` geocodes *every* crawled user,
        not just the authors the stream happened to deliver — so any
        view claiming batch equivalence (``snapshot``, a live delta
        build) must sweep the rest of the directory through the cached
        forward geocoder first.  Memoized: the directory is fixed for
        the life of the accumulator, so one sweep settles it.
        """
        if self._directory_swept:
            return
        for user in self._directory:
            self._district_of(user.user_id)
        self._directory_swept = True

    def build_funnel(self) -> RefinementFunnel:
        """The refinement funnel, assembled from incremental counters.

        Byte-identical to what a sorted-uid sweep would produce: the
        per-status counts are maintained at geocode time, and the
        Counter's insertion order — statuses by the smallest uid that
        carries them — is exactly first-encounter order under a sweep of
        ascending uids.
        """
        self.ensure_directory_swept()
        funnel = RefinementFunnel()
        funnel.crawled_users = len(self._profile_status)
        funnel.total_tweets = self._total_tweets
        funnel.gps_tweets = self._gps_tweets
        for status in sorted(self._status_min_uid, key=self._status_min_uid.get):
            funnel.profile_status_counts[status] = self._status_counts[status]
        funnel.well_defined_users = len(self._profile_districts)
        funnel.users_with_gps = len(self._gps_rows)
        funnel.unresolvable_gps_tweets = self._unresolvable
        funnel.resolved_observations = self.observations_folded
        funnel.study_users = len(self._groupings)
        return funnel

    def study_user_ids(self) -> list[int]:
        """Study users (>= 1 resolved observation), ascending by id."""
        return sorted(self._groupings)

    def grouping_of(self, user_id: int) -> UserGrouping:
        """The cached grouping of one study user."""
        return self._groupings[user_id]

    def profile_district_of(self, user_id: int) -> District:
        """The profile district of one well-defined user."""
        return self._profile_districts[user_id]

    def resolved_rows_with_ids(
        self, user_id: int
    ) -> list[tuple[int, GeotaggedObservation]]:
        """One study user's ``(tweet_id, observation)`` pairs, ascending
        by tweet id.

        Assembled from the retained ``(tweet_id, timestamp, cell)`` rows
        with no re-geocoding (cell outcomes are pure functions of the
        cell key); unresolvable cells are skipped, exactly as the batch
        pipeline drops them.  The tweet id is the canonical within-user
        observation order — the delta builder keys interner occurrence
        positions on it because it is stable under later insertions,
        where a list index is not.
        """
        district = self._profile_districts[user_id]
        rows: list[tuple[int, GeotaggedObservation]] = []
        for tweet_id, timestamp_ms, cell in self._gps_rows.get(user_id, ()):
            if cell in self._none_cells:
                continue
            path = self._geocode.resolve_cell(cell)
            assert path is not None  # outcome is a pure function of cell
            rows.append(
                (
                    tweet_id,
                    GeotaggedObservation(
                        user_id=user_id,
                        profile_state=district.state,
                        profile_county=district.name,
                        tweet_state=path.state,
                        tweet_county=path.county,
                        timestamp_ms=timestamp_ms,
                    ),
                )
            )
        return rows

    def resolved_rows(self, user_id: int) -> list[GeotaggedObservation]:
        """One study user's observations, ascending by tweet id."""
        return [row for _, row in self.resolved_rows_with_ids(user_id)]

    # ------------------------------------------------------------------ views
    @property
    def grouper(self) -> IncrementalGrouper:
        """The underlying grouper (checkpoint digests hash its export)."""
        return self._grouper

    @property
    def geocode(self) -> GeocodeService:
        """The tiered geocode service fold-time resolutions go through."""
        return self._geocode

    @property
    def api_stats(self) -> ClientStats:
        """Canonical PlaceFinder accounting for the stream so far.

        Reconstructed arithmetically from the cell invariant — one
        request per distinct cell, every other lookup a cache hit — so
        the live view always equals what a batch run over the same
        tweets would report.
        """
        return self._canonical_stats()

    @property
    def users_seen(self) -> int:
        """Accounts profile-geocoded so far (stream authors, plus the
        rest of the directory once a snapshot has swept it)."""
        return len(self._profile_status)

    @property
    def study_users(self) -> int:
        """Users currently in the study (>= 1 resolved observation)."""
        return len(self._groupings)

    @property
    def observations_folded(self) -> int:
        """Resolved observations accumulated so far."""
        return self._gps_lookups - self._unresolvable

    def group_shares(self) -> dict[str, int]:
        """Live per-group user counts (the drifting Fig. 7 numerators).

        Registered as a metrics source under ``stream.groups``, this is
        how matched-ratio drift is observed while the sample accumulates.
        """
        return {
            group.value: self._group_tally.get(group, 0)
            for group in TopKGroup.reporting_order()
        }

    def stats_source(self) -> dict[str, float]:
        """Accumulator counters for the metrics registry."""
        return {
            "users_seen": self.users_seen,
            "study_users": self.study_users,
            "observations": self.observations_folded,
            "tweets": self._total_tweets,
            "gps_tweets": self._gps_tweets,
            "unresolvable": self._unresolvable,
        }

    def _canonical_stats(self) -> ClientStats:
        """The :class:`ClientStats` a single serial batch client reports."""
        stats = ClientStats()
        stats.requests = len(self._cells_seen)
        stats.cache_hits = self._gps_lookups - len(self._cells_seen)
        stats.no_result = len(self._none_cells)
        stats.simulated_latency_s = simulated_latency(
            stats.requests, STREAM_LATENCY_S
        )
        return stats

    # --------------------------------------------------------------- snapshot
    def snapshot(self, dataset_name: str = "stream") -> StudyResult:
        """The current :class:`StudyResult`, byte-identical to the batch.

        No re-geocoding happens here: cell outcomes are pure functions of
        the cell key, so the fold-time resolutions *are* the batch
        pipeline's.  Observations are assembled from the retained
        ``(tweet_id, timestamp, cell)`` rows in batch-canonical order
        (users ascending by id, tweets ascending by tweet id), groupings
        are read straight off the incremental grouper, and the API
        accounting is the canonical arithmetic view — O(study users)
        work plus cached cell lookups, instead of the full serial replay
        earlier revisions needed.
        """
        funnel = self.build_funnel()

        observations: list[GeotaggedObservation] = []
        kept_districts: dict[int, District] = {}
        for user_id in self.study_user_ids():
            observations.extend(self.resolved_rows(user_id))
            kept_districts[user_id] = self._profile_districts[user_id]
        groupings = {
            user_id: self._groupings[user_id] for user_id in kept_districts
        }

        return StudyResult(
            dataset_name=dataset_name,
            funnel=funnel,
            observations=observations,
            groupings=groupings,
            statistics=(
                compute_group_statistics(groupings.values())
                if groupings
                else empty_group_statistics()
            ),
            profile_districts=kept_districts,
            api_stats=self._canonical_stats(),
        )
