"""Immutable, versioned study snapshots and their atomic hot-swap holder.

The serving layer never computes anything at query time that can be
computed at load time.  A :class:`ServingSnapshot` is built once — from a
:class:`~repro.analysis.correlation.StudyResult` in memory or a study
JSON document on disk — and precomputes every response fragment the
query endpoints need: per-user match records, per-region agreement
stats, the reliability weight table, and the group statistics.  After
construction it is never mutated, so any number of handler threads can
read it without locks.

**Versioning contract.**  A snapshot's version is the content digest of
the study it was built from (:func:`~repro.analysis.serialization
.study_digest`).  Version equality therefore *is* response equality:
two snapshots with the same version answer every query byte-identically,
and hot-swapping between them is observationally a no-op.  This is what
makes the determinism property testable — and what lets operators tell
a real deploy from a redundant one by comparing version tags.

**Hot swap.**  A :class:`SnapshotStore` holds the live snapshot behind a
lock.  Handlers grab the reference *once* per request and read only from
that object, so an in-flight request keeps answering from the snapshot
it started with while :meth:`SnapshotStore.swap` publishes a new one —
no torn reads, no draining, no 5xx window.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.analysis.regional import RegionalRow, regional_breakdown
from repro.analysis.reliability import ReliabilityTable
from repro.analysis.result import StudyResult
from repro.analysis.serialization import load_study, study_digest
from repro.errors import ReproError
from repro.geo.gazetteer import Gazetteer
from repro.geo.region import District
from repro.grouping.topk import UserGrouping

#: Hex digits of the study digest used as the public version tag.  16
#: hex chars (64 bits) cannot collide by accident at any realistic
#: snapshot cadence; the full digest stays available on the snapshot.
VERSION_TAG_LENGTH = 16


def user_entry(
    user_id: int,
    grouping: UserGrouping,
    district: District | None,
) -> dict[str, object]:
    """One user's precomputed lookup body.

    The body deliberately omits the reliability ``weight``: that value
    depends on *global* statistics (the group's mean matched share), so
    caching it per user would force a full-study rebuild whenever any
    user changed.  The handler splices it in at query time from
    :attr:`ServingSnapshot.user_weights`, keyed by the user's group —
    response bytes are unchanged, but the body itself becomes a pure
    function of this user's own state, which is what lets the live
    delta builder (:mod:`repro.live.builder`) reuse it across builds.
    """
    matched_string = None
    if grouping.matched_rank is not None:
        matched_string = grouping.merged[grouping.matched_rank - 1].render()
    return {
        "user_id": user_id,
        "group": grouping.group.value,
        "matched_rank": grouping.matched_rank,
        "matched_string": matched_string,
        "matched_tweets": grouping.matched_tweets,
        "total_tweets": grouping.total_tweets,
        "matched_share": round(grouping.matched_share, 6),
        "tweet_locations": grouping.tweet_location_count,
        "merged": [row.render() for row in grouping.merged],
        "profile_district": {
            "state": district.state,
            "county": district.name,
        }
        if district is not None
        else None,
    }


def region_entry(row: RegionalRow) -> dict[str, object]:
    """One profile state's precomputed response body."""
    return {
        "state": row.state,
        "users": row.users,
        "top1_share": round(row.top1_share, 6),
        "matched_share": round(row.matched_share, 6),
        "avg_tweet_locations": round(row.avg_tweet_locations, 6),
    }


def group_weights(table: ReliabilityTable) -> dict[str, float]:
    """Per-group reliability weights keyed by group label, rounded as
    they appear in lookup responses (6 places, matching the historical
    per-user precompute)."""
    return {
        group.value: round(weight, 6) for group, weight in table.weights.items()
    }


@dataclass(frozen=True)
class ServingSnapshot:
    """One immutable, query-ready view of a study.

    Attributes:
        version: Public version tag (prefix of ``digest``); stamped into
            every snapshot-backed response.
        digest: Full SHA-256 content digest of the source study.
        dataset_name: The study's dataset label.
        users: Per-user response bodies, keyed by user id (version tag
            and reliability weight excluded; the handler adds them from
            ``version`` and ``user_weights``).
        regions: Per-profile-state response bodies, keyed by state name.
        reliability: The learned per-group weight table (JSON view).
        user_weights: Reliability weight per group label, spliced into
            lookup bodies at query time (see :func:`user_entry` for why
            it is not cached per user).
        statistics: Per-group statistics table (JSON view).
        funnel: Refinement funnel counters (JSON view).
        total_users / total_tweets: Study-level aggregates.
    """

    version: str
    digest: str
    dataset_name: str
    users: dict[int, dict[str, object]]
    regions: dict[str, dict[str, object]]
    reliability: dict[str, float]
    user_weights: dict[str, float]
    statistics: dict[str, dict[str, float]]
    funnel: dict[str, object]
    total_users: int
    total_tweets: int

    @classmethod
    def from_study(cls, study: StudyResult) -> "ServingSnapshot":
        """Precompute every query-ready view from ``study``.

        All derived values (matched string, reliability weight, regional
        agreement) are fixed here, so a query later is a dictionary read
        — a pure function of this object.
        """
        digest = study_digest(study)
        table = ReliabilityTable.from_statistics(study.statistics)

        users = {
            user_id: user_entry(
                user_id, grouping, study.profile_districts.get(user_id)
            )
            for user_id, grouping in study.groupings.items()
        }

        regions: dict[str, dict[str, object]] = {}
        try:
            rows = regional_breakdown(
                study.groupings, study.profile_districts, min_users=1
            )
        except ReproError:
            rows = []
        for row in rows:
            regions[row.state] = region_entry(row)

        return cls(
            version=digest[:VERSION_TAG_LENGTH],
            digest=digest,
            dataset_name=study.dataset_name,
            users=users,
            regions=regions,
            reliability=table.as_dict(),
            user_weights=group_weights(table),
            statistics=study.statistics.as_dict(),
            funnel=dict(study.funnel.as_dict()),
            total_users=study.statistics.total_users,
            total_tweets=study.statistics.total_tweets,
        )

    def user(self, user_id: int) -> dict[str, object] | None:
        """The precomputed lookup body for ``user_id`` (``None`` unknown)."""
        return self.users.get(user_id)

    def region(self, state: str) -> dict[str, object] | None:
        """The precomputed body for profile state ``state`` (``None`` unknown)."""
        return self.regions.get(state)

    def overview(self) -> dict[str, object]:
        """Dataset-level summary used by ``/healthz`` and ``/``."""
        return {
            "dataset": self.dataset_name,
            "version": self.version,
            "users": self.total_users,
            "tweets": self.total_tweets,
            "regions": len(self.regions),
        }


def load_snapshot(path: str | Path, gazetteer: Gazetteer) -> ServingSnapshot:
    """Load a study JSON document and build its serving snapshot.

    Raises:
        StorageError: on a missing/malformed document (propagated from
            :func:`~repro.analysis.serialization.load_study`).
    """
    return ServingSnapshot.from_study(load_study(path, gazetteer))


class SnapshotStore:
    """The mutable cell holding the live snapshot — swap is atomic.

    Readers call :meth:`current` exactly once per request and then use
    only that reference; writers call :meth:`swap`.  The lock makes the
    generation counter and reference move together; the snapshot objects
    themselves are immutable, so readers never need the lock after the
    initial grab.
    """

    def __init__(
        self,
        snapshot: ServingSnapshot,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._lock = threading.Lock()
        self._current = snapshot
        self._generation = 1
        self._swaps = 0
        self._clock = clock
        self._swapped_at = clock()

    def current(self) -> ServingSnapshot:
        """The live snapshot (grab once per request)."""
        with self._lock:
            return self._current

    def swap(self, snapshot: ServingSnapshot) -> ServingSnapshot:
        """Publish ``snapshot`` as live; returns the one it replaced.

        In-flight requests keep the reference they already grabbed, so a
        swap never tears a response; requests admitted after the swap see
        only the new snapshot.
        """
        with self._lock:
            previous = self._current
            self._current = snapshot
            self._generation += 1
            self._swaps += 1
            self._swapped_at = self._clock()
            return previous

    @property
    def generation(self) -> int:
        """Monotone publish counter (1 for the boot snapshot)."""
        with self._lock:
            return self._generation

    def age_seconds(self) -> float:
        """Seconds since the live snapshot was published (0 at boot).

        The one number an external freshness monitor needs: a live
        pipeline that stops swapping shows up as unbounded age long
        before anyone notices stale answers.
        """
        with self._lock:
            return max(0.0, self._clock() - self._swapped_at)

    def snapshot_source(self) -> dict[str, object]:
        """Metrics-registry source: generation, swap count, live version
        and content digest, and seconds since the last publish.

        The digest is the convergence signal a fleet publisher reads off
        ``/metrics``/``/healthz``: generations restart at 1 on every
        replica boot, but equal digests *prove* two replicas serve the
        same study bytes.
        """
        with self._lock:
            return {
                "generation": self._generation,
                "swaps": self._swaps,
                "users": self._current.total_users,
                "version": self._current.version,
                "digest": self._current.digest,
                "age_seconds": round(
                    max(0.0, self._clock() - self._swapped_at), 3
                ),
            }
