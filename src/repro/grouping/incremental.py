"""Incremental grouping — keeping Top-k outcomes fresh on a live stream.

The batch pipeline classifies users once, from a frozen corpus.  A
deployed event system (paper §V) would instead watch geotagged tweets
arrive and keep each author's group — and therefore their reliability
weight — current.  :class:`IncrementalGrouper` maintains per-user merge
counters under O(1) updates and produces classifications identical to the
batch :func:`~repro.grouping.topk.group_users` at every point in time
(property-tested in ``tests/grouping/test_incremental.py``).
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.errors import InsufficientDataError
from repro.grouping.merge import MergedString, TieBreak, merged_sort_key
from repro.grouping.strings import LocationString
from repro.grouping.topk import TopKGroup, UserGrouping, classify_rows
from repro.twitter.models import GeotaggedObservation


class IncrementalGrouper:
    """Maintains grouping state under streaming observation arrivals.

    Args:
        tie_break: Equal-count ordering policy (matches the batch path).
    """

    def __init__(self, tie_break: TieBreak = TieBreak.STRING_ASC):
        self._tie_break = tie_break
        self._counts: dict[int, Counter[LocationString]] = defaultdict(Counter)

    # ---------------------------------------------------------------- ingest
    def add(self, observation: GeotaggedObservation) -> None:
        """Fold one observation into the per-user counters."""
        record = LocationString.from_observation(observation)
        self._counts[record.user_id][record] += 1

    def add_many(self, observations: list[GeotaggedObservation]) -> None:
        """Fold a batch of observations in."""
        for observation in observations:
            self.add(observation)

    # ----------------------------------------------------------------- query
    @property
    def user_ids(self) -> list[int]:
        """Users with at least one observation, sorted."""
        return sorted(self._counts)

    def observation_count(self, user_id: int) -> int:
        """Observations folded in for ``user_id`` (0 if unseen)."""
        return sum(self._counts[user_id].values()) if user_id in self._counts else 0

    def classify(self, user_id: int) -> UserGrouping:
        """The user's current grouping (identical to the batch result).

        Raises:
            InsufficientDataError: for a user with no observations.
        """
        counts = self._counts.get(user_id)
        if not counts:
            raise InsufficientDataError(f"user {user_id} has no observations")
        rows = self._ordered_rows(counts)
        return classify_rows(user_id, rows)

    def group_of(self, user_id: int) -> TopKGroup | None:
        """Current group, or ``None`` for unseen users (no raising)."""
        if user_id not in self._counts or not self._counts[user_id]:
            return None
        return self.classify(user_id).group

    def classify_all(self) -> dict[int, UserGrouping]:
        """Current groupings for every seen user."""
        return {user_id: self.classify(user_id) for user_id in self._counts}

    def export_counts(self) -> dict[int, dict[str, int]]:
        """Canonical view of the per-user merge counters.

        Users ascend, and each user's merged strings are listed in their
        rendered form, sorted — a stable serialisation that checkpoint
        digests (``repro.streaming.snapshot.state_digest``) hash so a
        replayed stream can prove it rebuilt the exact grouping state.
        """
        return {
            user_id: {
                record.render(): count
                for record, count in sorted(
                    self._counts[user_id].items(), key=lambda kv: kv[0].render()
                )
            }
            for user_id in sorted(self._counts)
        }

    # ------------------------------------------------------------- internals
    def _ordered_rows(self, counts: Counter[LocationString]) -> list[MergedString]:
        rows = [MergedString(record=rec, count=n) for rec, n in counts.items()]
        rows.sort(key=merged_sort_key(self._tie_break))
        return rows
