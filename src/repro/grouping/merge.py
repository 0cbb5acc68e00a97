"""Merging and ordering location strings — paper Table II.

"Finally, we merged the same strings in the list and ordered them by the
number of the merged strings" (§III-B).  Identical per-tweet records
collapse into one :class:`MergedString` carrying a count; each user's
merged strings are ordered by count descending.

The paper does not state a tie-break for equal counts.  The default here
is the rendered string ascending (deterministic, unbiased with respect to
the matched string); :class:`TieBreak` exposes the alternatives, including
the two adversarial policies that bound how much the unspecified detail
can matter (see ``bench_ablation_tiebreak``).
"""

from __future__ import annotations

import enum
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.grouping.strings import LocationString


class TieBreak(enum.Enum):
    """Ordering policy among merged strings with equal counts."""

    STRING_ASC = "string_asc"  # default: rendered string ascending
    STRING_DESC = "string_desc"
    MATCHED_FIRST = "matched_first"  # upper bound on Top-k shares
    MATCHED_LAST = "matched_last"  # lower bound on Top-k shares


@dataclass(frozen=True, slots=True)
class MergedString:
    """A location string with its merge count (paper Table II row)."""

    record: LocationString
    count: int

    def render(self) -> str:
        """The paper's presentation form: ``record (count)``."""
        return f"{self.record.render()} ({self.count})"

    @property
    def is_matched(self) -> bool:
        """True when the underlying record is a matched string."""
        return self.record.is_matched


#: Ends every :attr:`TieBreak.STRING_DESC` key.  It is greater than any
#: negated code point, so a string sorts *before* its own prefixes
#: ("abc" before "ab") — the exact reverse of :attr:`TieBreak.STRING_ASC`.
_DESC_END = 1


def merged_sort_key(tie_break: TieBreak) -> Callable[[MergedString], object]:
    """The ordering key for one user's merged strings.

    Count descending, then the ``tie_break`` policy over the rendered
    string — the exact ordering of paper Table II.  The batch
    (:func:`merge_strings`) and incremental
    (:class:`~repro.grouping.incremental.IncrementalGrouper`) groupers
    both sort with the key returned here.
    """

    def sort_key(row: MergedString) -> object:
        rendered = row.record.render()
        if tie_break is TieBreak.STRING_ASC:
            tail: object = rendered
        elif tie_break is TieBreak.STRING_DESC:
            tail = tuple(-ord(ch) for ch in rendered) + (_DESC_END,)
        elif tie_break is TieBreak.MATCHED_FIRST:
            tail = (0 if row.is_matched else 1, rendered)
        else:  # MATCHED_LAST
            tail = (1 if row.is_matched else 0, rendered)
        return (-row.count, tail)

    return sort_key


def merge_strings(
    records: Iterable[LocationString],
    tie_break: TieBreak = TieBreak.STRING_ASC,
) -> dict[int, list[MergedString]]:
    """Merge identical records and order each user's list.

    Args:
        records: Per-tweet location strings for any number of users.
        tie_break: Ordering among equal counts (default: rendered string
            ascending).

    Returns:
        Per-user ordered lists: count descending, then ``tie_break``.
    """
    per_user: dict[int, Counter[LocationString]] = defaultdict(Counter)
    for record in records:
        per_user[record.user_id][record] += 1

    sort_key = merged_sort_key(tie_break)
    merged: dict[int, list[MergedString]] = {}
    for user_id, counts in per_user.items():
        rows = [MergedString(record=rec, count=n) for rec, n in counts.items()]
        rows.sort(key=sort_key)
        merged[user_id] = rows
    return merged


def matched_rank(rows: list[MergedString]) -> int | None:
    """1-based rank of the matched string in an ordered list, or ``None``.

    A user has at most one matched string (profile district is fixed, so
    only one tweet district can equal it).
    """
    for index, row in enumerate(rows):
        if row.is_matched:
            return index + 1
    return None


def tweet_location_count(rows: list[MergedString]) -> int:
    """Number of distinct tweet districts in a user's merged list.

    Distinct merged strings and distinct tweet districts coincide for a
    single user (the profile side never varies), but counting keys keeps
    the function correct even for hand-built lists.
    """
    return len({row.record.tweet_key() for row in rows})


def total_tweets(rows: list[MergedString]) -> int:
    """Total geotagged tweets behind a user's merged list."""
    return sum(row.count for row in rows)
