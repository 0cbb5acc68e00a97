"""Delta snapshot builds: serving snapshots at cost proportional to churn.

``ServingSnapshot.from_study(accumulator.snapshot())`` is O(full study)
twice over — the accumulator assembles every observation row and the
snapshot re-renders every user's response body, merged strings, and
regional table.  On a live stream where a cadence tick
typically touches a few percent of users, that cost caps the achievable
freshness.

:class:`DeltaSnapshotBuilder` keeps every per-user derived piece cached
— response body, JSON fragments for the content digest
(:mod:`repro.live.fragments`), interner occurrence positions, region
membership — and on each build re-derives them **only for users whose
tweets changed since the last build** (the accumulator's dirty set).
Global, order-sensitive aggregates that are cheap relative to per-user
work (group statistics, the reliability table, the funnel) are recomputed
each build from incremental counters, in the same sorted-uid order the
batch path uses, so float summation order — and therefore bytes — match.

The **full build is the degenerate all-dirty case**: a cold builder has
no caches, every study user misses, and the resulting snapshot is the
same object a batch ``from_study`` produces — one code path for both.
The equivalence is the subsystem's core invariant, property-tested in
``tests/live/test_swap_equivalence.py``: at every swap the served
snapshot is byte-identical to the batch-built snapshot at that
checkpoint.

Failure containment: the dirty set is *claimed into* the builder's
pending pool before any work and cleared only when a build succeeds, so
an exception mid-build loses nothing — the next build retries the same
users and the previously served snapshot stays live.
"""

from __future__ import annotations

from repro.analysis.incremental import IncrementalStudyAccumulator
from repro.analysis.regional import regional_row
from repro.analysis.reliability import ReliabilityTable
from repro.grouping.stats import compute_group_statistics, empty_group_statistics
from repro.live import fragments
from repro.serving.state import (
    VERSION_TAG_LENGTH,
    ServingSnapshot,
    group_weights,
    region_entry,
    user_entry,
)

#: Occurrence-position sections: observations sweep before districts in
#: the canonical interner order (:func:`~repro.analysis.interner
#: .study_interner`).
_OBS_SECTION = 0
_DISTRICT_SECTION = 1


class DeltaSnapshotBuilder:
    """Builds :class:`~repro.serving.state.ServingSnapshot` objects
    incrementally from live accumulator state.

    Args:
        accumulator: The streaming study state to snapshot.
        dataset_name: Label stamped into the composed study document
            (must match what batch comparisons use, or digests differ).
    """

    def __init__(
        self,
        accumulator: IncrementalStudyAccumulator,
        dataset_name: str = "stream",
    ):
        self._accumulator = accumulator
        self._dataset_name = dataset_name
        # Users claimed from the accumulator but not yet built into a
        # successful snapshot (survives build failures).
        self._pending: set[int] = set()
        # Per-user caches, keyed by uid.  Bodies are immutable by
        # convention: a rebuild *replaces* the dict, so snapshots handed
        # out earlier keep the objects they were built with.
        self._bodies: dict[int, dict[str, object]] = {}
        self._obs_fragment: dict[int, str] = {}
        self._merged_entry: dict[int, str] = {}
        self._district_entry: dict[int, str] = {}
        # Region caches: which state each user's profile resolves to,
        # each state's member uids, and each state's response body.
        self._user_state: dict[int, str] = {}
        self._state_members: dict[str, set[int]] = {}
        self._region_bodies: dict[str, dict[str, object]] = {}
        # Interner reconstruction: each string's smallest occurrence
        # position under the canonical sweep.  Positions only decrease
        # (observation rows are never removed), so sorting strings by
        # their minimum position reproduces first-encounter order.
        self._str_min: dict[str, tuple[int, int, int, int]] = {}
        self._str_json: dict[str, str] = {}
        self._builds = 0

    # ------------------------------------------------------------------ state
    @property
    def builds(self) -> int:
        """Successful builds over the builder's lifetime."""
        return self._builds

    @property
    def pending_count(self) -> int:
        """Dirty users claimed but not yet built into a snapshot."""
        return len(self._pending)

    # ------------------------------------------------------------------ build
    def build(self) -> ServingSnapshot:
        """One snapshot of the accumulator's current state.

        Per-user work is proportional to the dirty set; study-wide work
        is limited to cheap aggregates (statistics arithmetic, fragment
        joins, one SHA-256 pass over the composed document).
        """
        acc = self._accumulator
        acc.ensure_directory_swept()
        self._pending |= acc.take_dirty()
        study_ids = acc.study_user_ids()
        # Cache misses are dirty too: on a cold builder that is *every*
        # user, which makes the first build the degenerate full build.
        dirty = [
            uid
            for uid in study_ids
            if uid in self._pending or uid not in self._bodies
        ]
        for uid in dirty:
            self._rebuild_user(uid)
        self._rebuild_regions(dirty)

        groupings = [acc.grouping_of(uid) for uid in study_ids]
        statistics = (
            compute_group_statistics(groupings)
            if groupings
            else empty_group_statistics()
        )
        table = ReliabilityTable.from_statistics(statistics)
        funnel = acc.build_funnel()

        interner_strings = sorted(self._str_min, key=self._str_min.get)
        digest = fragments.document_digest(
            fragments.compose_study_document(
                self._dataset_name,
                funnel.as_dict(),
                [self._obs_fragment[uid] for uid in study_ids],
                [self._merged_entry[uid] for uid in study_ids],
                [self._district_entry[uid] for uid in study_ids],
                acc.api_stats.snapshot(),
                [self._str_json[text] for text in interner_strings],
            )
        )
        snapshot = ServingSnapshot(
            version=digest[:VERSION_TAG_LENGTH],
            digest=digest,
            dataset_name=self._dataset_name,
            users=dict(self._bodies),
            regions=dict(self._region_bodies),
            reliability=table.as_dict(),
            user_weights=group_weights(table),
            statistics=statistics.as_dict(),
            funnel=dict(funnel.as_dict()),
            total_users=statistics.total_users,
            total_tweets=statistics.total_tweets,
        )
        self._pending.clear()
        self._builds += 1
        return snapshot

    # -------------------------------------------------------------- internals
    def _rebuild_user(self, uid: int) -> None:
        """Re-derive every cached piece for one dirty study user."""
        acc = self._accumulator
        pairs = acc.resolved_rows_with_ids(uid)
        rows = [row for _, row in pairs]
        grouping = acc.grouping_of(uid)
        district = acc.profile_district_of(uid)

        self._bodies[uid] = user_entry(uid, grouping, district)

        self._obs_fragment[uid] = fragments.observation_fragment(rows)
        self._merged_entry[uid] = fragments.merged_entry(
            uid, [row.render() for row in grouping.merged]
        )
        self._district_entry[uid] = fragments.district_entry(uid, district)
        self._user_state.setdefault(uid, district.state)
        self._state_members.setdefault(district.state, set()).add(uid)

        for tweet_id, row in pairs:
            for slot, text in enumerate(
                (
                    row.profile_state,
                    row.profile_county,
                    row.tweet_state,
                    row.tweet_county,
                )
            ):
                self._note_string(text, (_OBS_SECTION, uid, tweet_id, slot))
        for slot, text in enumerate((district.state, district.name)):
            self._note_string(text, (_DISTRICT_SECTION, uid, 0, slot))

    def _note_string(
        self, text: str, position: tuple[int, int, int, int]
    ) -> None:
        """Record one occurrence of ``text``; the minimum position wins.

        Positions are ``(section, uid, tweet_id, slot)`` — the canonical
        interner sweep is observations in ascending ``(uid, tweet_id)``
        order (four slots each), then kept districts in ascending uid
        order (two slots), so lexicographic position order *is* sweep
        order.  Rows are never removed, so a string's minimum is
        monotone: recording only the smaller value keeps every earlier
        build's knowledge valid.
        """
        known = self._str_min.get(text)
        if known is None or position < known:
            self._str_min[text] = position
        if text not in self._str_json:
            self._str_json[text] = fragments.render(text)

    def _rebuild_regions(self, dirty: list[int]) -> None:
        """Recompute the region bodies of states with dirty members.

        A regional row is order-independent (integer sums and counts —
        see :func:`~repro.analysis.regional.regional_row`), so only the
        affected states are touched; a user's profile state never
        changes, so membership is append-only.
        """
        acc = self._accumulator
        for state in {self._user_state[uid] for uid in dirty}:
            members = [
                acc.grouping_of(uid) for uid in sorted(self._state_members[state])
            ]
            self._region_bodies[state] = region_entry(
                regional_row(state, members)
            )
