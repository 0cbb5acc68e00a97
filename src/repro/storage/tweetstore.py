"""Tweet store: append-only log persistence with in-memory indexes.

The study's collection phase gathered millions of tweets; everything
downstream (refinement, grouping, event detection) queries them by user,
time, GPS presence, or keyword.  The store's ordered indexes are
appended on write and sorted once on first read, so bulk loading costs
one sort rather than a sorted insert per tweet.  It can persist to /
recover from an append-only JSONL log — one JSON document per line, so a
partially written final line (a crash mid-append) is detected and
ignored on load.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.errors import DuplicateKeyError, NotFoundError
from repro.storage.journal import append_journal, read_journal
from repro.storage.query import TweetQuery
from repro.twitter.models import Tweet


class TweetStore:
    """In-memory tweet store with optional JSONL persistence.

    Indexes:

    * primary — tweet id -> tweet
    * by user — user id -> tweet ids in id order
    * by time — global ``(created_at_ms, tweet_id)`` ordering
    * gps — the subset of ids carrying coordinates

    The two ordered indexes are appended on write and sorted once on
    first read.  An append that lands out of order marks its index
    dirty; a read sorts only the dirty indexes it needs, so in-order
    appends (:meth:`load`, the streaming journal) never sort at all.
    Ordering keys are unique, so one sort gives exactly the order a
    sorted insert per tweet would have.
    """

    def __init__(self) -> None:
        self._by_id: dict[int, Tweet] = {}
        self._by_user: dict[int, list[int]] = {}
        self._time_index: list[tuple[int, int]] = []  # (created_at_ms, tweet_id)
        self._gps_ids: set[int] = set()
        self._unsorted_users: set[int] = set()
        self._time_unsorted = False

    # ----------------------------------------------------------------- write
    def insert(self, tweet: Tweet) -> None:
        """Insert one tweet.

        Raises:
            DuplicateKeyError: if the tweet id is already present.
        """
        if tweet.tweet_id in self._by_id:
            raise DuplicateKeyError(f"tweet {tweet.tweet_id} already stored")
        self._by_id[tweet.tweet_id] = tweet
        timeline = self._by_user.get(tweet.user_id)
        if timeline is None:
            self._by_user[tweet.user_id] = [tweet.tweet_id]
        else:
            if tweet.tweet_id < timeline[-1]:
                self._unsorted_users.add(tweet.user_id)
            timeline.append(tweet.tweet_id)
        key = (tweet.created_at_ms, tweet.tweet_id)
        if self._time_index and key < self._time_index[-1]:
            self._time_unsorted = True
        self._time_index.append(key)
        if tweet.has_gps:
            self._gps_ids.add(tweet.tweet_id)

    def insert_many(self, tweets: Iterable[Tweet]) -> int:
        """Insert tweets, skipping duplicates; returns the inserted count."""
        inserted = 0
        for tweet in tweets:
            try:
                self.insert(tweet)
            except DuplicateKeyError:
                continue
            inserted += 1
        return inserted

    # ------------------------------------------------------------------ read
    def _timeline(self) -> list[tuple[int, int]]:
        """The global time index, sorted first if appends left it dirty."""
        if self._time_unsorted:
            self._time_index.sort()
            self._time_unsorted = False
        return self._time_index

    def _user_timeline(self, user_id: int) -> list[int]:
        """A user's tweet ids, sorted first if appends left them dirty."""
        if user_id in self._unsorted_users:
            self._by_user[user_id].sort()
            self._unsorted_users.discard(user_id)
        return self._by_user.get(user_id, [])

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Tweet]:
        """Iterate all tweets in time order."""
        for _, tweet_id in self._timeline():
            yield self._by_id[tweet_id]

    def get(self, tweet_id: int) -> Tweet:
        """Primary-key lookup.

        Raises:
            NotFoundError: if the id is unknown.
        """
        try:
            return self._by_id[tweet_id]
        except KeyError:
            raise NotFoundError(f"tweet {tweet_id} not stored") from None

    def user_ids(self) -> list[int]:
        """Distinct author ids, sorted."""
        return sorted(self._by_user)

    def by_user(self, user_id: int) -> list[Tweet]:
        """A user's tweets in time order (empty list if none)."""
        return [self._by_id[tid] for tid in self._user_timeline(user_id)]

    def gps_count(self) -> int:
        """Number of GPS-tagged tweets."""
        return len(self._gps_ids)

    def gps_tweets(self) -> list[Tweet]:
        """All GPS-tagged tweets in id order."""
        return [self._by_id[tid] for tid in sorted(self._gps_ids)]

    def query(self, query: TweetQuery) -> list[Tweet]:
        """Evaluate a conjunctive query.

        Index selection: a ``user_id`` constraint scans only that user's
        timeline; otherwise a ``time_range`` binary-searches the global
        time index; a bare ``has_gps=True`` (or bbox) uses the GPS subset;
        anything else is a full scan.  Results come back in time order.
        """
        candidates = self._candidates(query)
        return [t for t in candidates if query.matches(t)]

    def _candidates(self, query: TweetQuery) -> list[Tweet]:
        if query.user_id is not None:
            return self.by_user(query.user_id)
        if query.time_range is not None:
            timeline = self._timeline()
            lo = bisect_left(timeline, (query.time_range.start_ms, -1))
            hi = bisect_right(timeline, (query.time_range.end_ms, -1))
            return [self._by_id[tid] for _, tid in timeline[lo:hi]]
        if query.has_gps is True or query.bbox is not None:
            return self.gps_tweets()
        return list(self)

    # ------------------------------------------------------------ persistence
    def save(self, path: str | Path) -> int:
        """Write all tweets as JSONL (time order); returns the line count."""
        path = Path(path)
        count = 0
        with path.open("w", encoding="utf-8") as handle:
            for tweet in self:
                handle.write(json.dumps(tweet.to_dict(), ensure_ascii=False))
                handle.write("\n")
                count += 1
        return count

    def append_many(self, path: str | Path, tweets: Iterable[Tweet]) -> int:
        """Insert a batch and journal it with one buffered write + flush.

        The streaming write-ahead path: the whole batch is serialised to a
        single string and written (then flushed) in one call, so a crash
        mid-append can tear at most the *final* line of the log — which
        :meth:`load` already drops — instead of leaving a partially
        written line in the middle of the batch.  The whole batch is
        checked for duplicate ids — against the store and within itself —
        before anything changes, so a duplicate raises with both the
        in-memory indexes and the log untouched, and the two never
        disagree.

        Returns the number of records appended.

        Raises:
            DuplicateKeyError: if a tweet id is already present or repeats
                within the batch (nothing is inserted or written then).
        """
        batch = list(tweets)
        seen: set[int] = set()
        for tweet in batch:
            if tweet.tweet_id in self._by_id:
                raise DuplicateKeyError(f"tweet {tweet.tweet_id} already stored")
            if tweet.tweet_id in seen:
                raise DuplicateKeyError(f"tweet {tweet.tweet_id} repeats within the batch")
            seen.add(tweet.tweet_id)
        for tweet in batch:
            self.insert(tweet)
        return append_journal(path, (tweet.to_dict() for tweet in batch))

    def append_log(self, path: str | Path, tweets: Iterable[Tweet]) -> int:
        """Append tweets to an existing JSONL log (crash-tolerant format)."""
        path = Path(path)
        count = 0
        with path.open("a", encoding="utf-8") as handle:
            for tweet in tweets:
                handle.write(json.dumps(tweet.to_dict(), ensure_ascii=False))
                handle.write("\n")
                count += 1
        return count

    @classmethod
    def load(cls, path: str | Path) -> "TweetStore":
        """Rebuild a store from a JSONL log.

        A torn final line (no trailing newline, or unparseable JSON on the
        last line) is dropped silently — the crash-recovery contract of an
        append-only log (the shared journal contract,
        :func:`repro.storage.journal.read_journal`).  Corruption anywhere
        else raises.

        Raises:
            StorageError: if a non-final line is corrupt.
        """
        store = cls()
        for tweet in read_journal(
            path, lambda line: Tweet.from_dict(json.loads(line)), description="record"
        ):
            store.insert(tweet)
        return store
