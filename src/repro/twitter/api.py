"""Simulated Twitter REST and Streaming APIs.

The paper's two datasets were collected through the two API families of
the era: the Korean crawl used REST endpoints (followers/ids + user
timelines, "Search API" on the slide), and the Lady Gaga dataset came from
the Streaming API's ``track`` filter.  The simulators here reproduce the
client-visible behaviour collection code must handle: cursored follower
pages, ``since_id``/``max_id`` timeline paging, 15-minute-window rate
limits, and a keyword/location-filtered stream.

Time is virtual: a :class:`VirtualClock` advances when the caller "waits",
so rate-limit handling is exercised without real sleeping.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

from repro.errors import NotFoundError, RateLimitExceededError
from repro.geo.region import BoundingBox
from repro.twitter.models import Tweet, TwitterUser
from repro.twitter.social_graph import FollowerGraph

#: Real follower/ids page size.
FOLLOWER_PAGE_SIZE = 5_000
#: Real statuses/user_timeline max count per call.
TIMELINE_PAGE_SIZE = 200
#: Real users/lookup batch size.
USER_LOOKUP_BATCH = 100


class VirtualClock:
    """A monotonically advancing simulated clock (seconds)."""

    def __init__(self, start_s: float = 0.0):
        self._now_s = start_s

    @property
    def now_s(self) -> float:
        """Current virtual time in seconds."""
        return self._now_s

    def advance(self, seconds: float) -> None:
        """Move time forward; negative advances are rejected."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds}")
        self._now_s += seconds


@dataclass
class RateLimitPolicy:
    """A fixed-window rate limit, as the v1.1 API enforced per endpoint.

    Attributes:
        window_s: Window length in seconds (900 = 15 minutes).
        calls_per_window: Allowed calls per window.
    """

    window_s: float = 900.0
    calls_per_window: int = 15

    def __post_init__(self) -> None:
        if self.window_s <= 0 or self.calls_per_window <= 0:
            raise ValueError("rate limit window and quota must be positive")


class _RateLimiter:
    """Tracks one endpoint's fixed-window usage against a virtual clock."""

    def __init__(self, policy: RateLimitPolicy, clock: VirtualClock):
        self._policy = policy
        self._clock = clock
        self._window_start_s = clock.now_s
        self._used = 0

    def check(self) -> None:
        now = self._clock.now_s
        if now - self._window_start_s >= self._policy.window_s:
            self._window_start_s = now
            self._used = 0
        if self._used >= self._policy.calls_per_window:
            retry_after = self._policy.window_s - (now - self._window_start_s)
            raise RateLimitExceededError(retry_after_s=max(0.0, retry_after))
        self._used += 1


@dataclass
class ApiUsage:
    """Aggregate usage counters for a simulated REST API."""

    follower_calls: int = 0
    timeline_calls: int = 0
    user_lookup_calls: int = 0
    batch_lookup_calls: int = 0
    search_calls: int = 0
    rate_limit_rejections: int = 0


@dataclass(frozen=True, slots=True)
class FollowerPage:
    """One page of followers/ids results."""

    ids: tuple[int, ...]
    next_cursor: int  # 0 means exhausted, like the real API


class RestApi:
    """Simulated REST API over a follower graph and tweet corpus.

    Timelines are read lazily: ``tweets_by_user`` is consulted for a user
    only when one of their timeline pages is first requested, and the
    newest-first order is memoised per user.  A mapping that generates
    each history on access (:meth:`TweetGenerator.timelines
    <repro.twitter.tweetgen.TweetGenerator.timelines>`) therefore costs
    nothing for users the caller never fetches.  The global index behind
    :meth:`search_tweets` is built on its first call, over every user the
    mapping holds.

    Args:
        users: All accounts, keyed by id.
        graph: Follower graph the followers/ids endpoint serves.
        tweets_by_user: Each user's tweets (any order), by user id.
        clock: Virtual clock shared with the calling collection code.
        follower_limit / timeline_limit: Per-endpoint rate policies.
    """

    def __init__(
        self,
        users: dict[int, TwitterUser],
        graph: FollowerGraph,
        tweets_by_user: Mapping[int, Sequence[Tweet]],
        clock: VirtualClock | None = None,
        follower_limit: RateLimitPolicy | None = None,
        timeline_limit: RateLimitPolicy | None = None,
    ):
        self._users = users
        self._graph = graph
        self._tweets_by_user = tweets_by_user
        self._timelines: dict[int, list[Tweet]] = {}
        self._all_tweets: list[Tweet] | None = None
        self.clock = clock or VirtualClock()
        self._follower_limiter = _RateLimiter(
            follower_limit or RateLimitPolicy(calls_per_window=15), self.clock
        )
        self._timeline_limiter = _RateLimiter(
            timeline_limit or RateLimitPolicy(calls_per_window=180), self.clock
        )
        self._search_limiter = _RateLimiter(
            RateLimitPolicy(calls_per_window=180), self.clock
        )
        self.usage = ApiUsage()

    # --------------------------------------------------------------- lookups
    def _hydrate(self, user_id: int) -> TwitterUser:
        """Account record with live degree counts (no usage accounting)."""
        try:
            user = self._users[user_id]
        except KeyError:
            raise NotFoundError(f"unknown user {user_id}") from None
        followers, friends = self._graph.degree(user_id)
        if user.followers == followers and user.friends == friends:
            return user
        return TwitterUser(
            user_id=user.user_id,
            screen_name=user.screen_name,
            profile_location=user.profile_location,
            created_at_ms=user.created_at_ms,
            has_smartphone=user.has_smartphone,
            home_state=user.home_state,
            home_county=user.home_county,
            mobility=user.mobility,
            profile_style=user.profile_style,
            followers=followers,
            friends=friends,
        )

    def get_user(self, user_id: int) -> TwitterUser:
        """users/show — account metadata with live degree counts."""
        self.usage.user_lookup_calls += 1
        return self._hydrate(user_id)

    def lookup_users(self, user_ids: list[int]) -> list[TwitterUser]:
        """users/lookup — batch hydration, up to 100 accounts per call.

        Unknown ids are silently omitted, exactly like the real endpoint;
        order follows the request.

        Raises:
            NotFoundError: if more than ``USER_LOOKUP_BATCH`` ids are
                requested in one call.
        """
        if len(user_ids) > USER_LOOKUP_BATCH:
            raise NotFoundError(
                f"users/lookup accepts at most {USER_LOOKUP_BATCH} ids, "
                f"got {len(user_ids)}"
            )
        self.usage.batch_lookup_calls += 1
        return [
            self._hydrate(user_id) for user_id in user_ids if user_id in self._users
        ]

    def get_followers(self, user_id: int, cursor: int = -1) -> FollowerPage:
        """followers/ids — one cursored page of follower ids.

        Cursor protocol mirrors the real endpoint: ``-1`` starts, the
        returned ``next_cursor`` feeds the next call, ``0`` means done.

        Raises:
            RateLimitExceededError: when the 15-minute quota is exhausted.
            NotFoundError: for unknown users.
        """
        try:
            self._follower_limiter.check()
        except RateLimitExceededError:
            self.usage.rate_limit_rejections += 1
            raise
        self.usage.follower_calls += 1
        followers = self._graph.followers_of(user_id)
        start = 0 if cursor == -1 else cursor
        if start < 0 or start > len(followers):
            raise NotFoundError(f"bad cursor {cursor}")
        page = followers[start : start + FOLLOWER_PAGE_SIZE]
        next_start = start + len(page)
        next_cursor = 0 if next_start >= len(followers) else next_start
        return FollowerPage(ids=tuple(page), next_cursor=next_cursor)

    def get_user_timeline(
        self,
        user_id: int,
        since_id: int = 0,
        max_id: int | None = None,
        count: int = TIMELINE_PAGE_SIZE,
    ) -> list[Tweet]:
        """statuses/user_timeline — newest-first page of tweets.

        ``since_id`` is exclusive, ``max_id`` inclusive, exactly like the
        real endpoint, so standard "walk back with max_id" pagination code
        works unchanged.
        """
        try:
            self._timeline_limiter.check()
        except RateLimitExceededError:
            self.usage.rate_limit_rejections += 1
            raise
        self.usage.timeline_calls += 1
        if user_id not in self._users:
            raise NotFoundError(f"unknown user {user_id}")
        count = max(1, min(count, TIMELINE_PAGE_SIZE))
        timeline = self._timeline(user_id)
        page = []
        for tweet in timeline:  # newest first
            if max_id is not None and tweet.tweet_id > max_id:
                continue
            if tweet.tweet_id <= since_id:
                break
            page.append(tweet)
            if len(page) >= count:
                break
        return page

    def search_tweets(
        self,
        query: str,
        since_id: int = 0,
        max_id: int | None = None,
        count: int = 100,
    ) -> SearchPage:
        """search/tweets — newest-first keyword search over public tweets.

        Matching is case-insensitive substring containment, like the
        standard search's phrase behaviour.  ``since_id`` is exclusive,
        ``max_id`` inclusive; walk back by passing the returned
        ``max_id`` until it comes back ``None``.

        Raises:
            RateLimitExceededError: when the 15-minute quota is exhausted.
        """
        try:
            self._search_limiter.check()
        except RateLimitExceededError:
            self.usage.rate_limit_rejections += 1
            raise
        self.usage.search_calls += 1
        count = max(1, min(count, 100))
        lowered = query.lower()
        page: list[Tweet] = []
        exhausted = True
        for tweet in self._search_index():  # newest first
            if max_id is not None and tweet.tweet_id > max_id:
                continue
            if tweet.tweet_id <= since_id:
                break
            if lowered not in tweet.text.lower():
                continue
            if len(page) >= count:
                exhausted = False
                break
            page.append(tweet)
        next_max_id = None if exhausted or not page else page[-1].tweet_id - 1
        return SearchPage(tweets=tuple(page), max_id=next_max_id)

    def _timeline(self, user_id: int) -> list[Tweet]:
        """``user_id``'s tweets newest first, sorted on first request."""
        timeline = self._timelines.get(user_id)
        if timeline is None:
            timeline = sorted(
                self._tweets_by_user.get(user_id, ()),
                key=lambda t: t.tweet_id,
                reverse=True,
            )
            self._timelines[user_id] = timeline
        return timeline

    def _search_index(self) -> list[Tweet]:
        """Every user's tweets newest first, built on first search."""
        if self._all_tweets is None:
            self._all_tweets = sorted(
                (t for uid in self._tweets_by_user for t in self._timeline(uid)),
                key=lambda t: t.tweet_id,
                reverse=True,
            )
        return self._all_tweets

    def fetch_full_timeline(self, user_id: int, wait_on_limit: bool = True) -> list[Tweet]:
        """Collect a user's whole history by max_id pagination.

        Args:
            user_id: Account to fetch.
            wait_on_limit: Advance the virtual clock past rate-limit
                windows instead of propagating the error.
        """
        collected: list[Tweet] = []
        max_id: int | None = None
        while True:
            try:
                page = self.get_user_timeline(user_id, max_id=max_id)
            except RateLimitExceededError as exc:
                if not wait_on_limit:
                    raise
                self.clock.advance(exc.retry_after_s + 1.0)
                continue
            if not page:
                return collected
            collected.extend(page)
            max_id = page[-1].tweet_id - 1


@dataclass(frozen=True, slots=True)
class SearchPage:
    """One page of search/tweets results (newest first)."""

    tweets: tuple[Tweet, ...]
    max_id: int | None  # pass as next call's max_id-1 equivalent; None = done


@dataclass
class StreamStats:
    """Delivery accounting for a simulated stream connection."""

    delivered: int = 0
    filtered_out: int = 0

    def snapshot(self) -> dict[str, float]:
        """Plain-dict view, registrable as an engine metrics source
        (``crawl.*`` in the streaming pipeline's run snapshot)."""
        return {"delivered": self.delivered, "filtered_out": self.filtered_out}


class StreamingApi:
    """Simulated Streaming API over a global, time-ordered tweet iterator.

    Args:
        tweet_stream: All public tweets in id (time) order.
    """

    def __init__(self, tweet_stream: Iterator[Tweet] | list[Tweet]):
        self._tweets = list(tweet_stream)
        self._tweets.sort(key=lambda t: t.tweet_id)

    def filter(
        self,
        track: tuple[str, ...] = (),
        locations: BoundingBox | None = None,
        limit: int | None = None,
        stats: StreamStats | None = None,
    ) -> Iterator[Tweet]:
        """statuses/filter — tweets matching any track keyword or location.

        Track matching is case-insensitive substring containment, like the
        real endpoint's phrase matching.  ``locations`` matches only
        GPS-tagged tweets, also like the real endpoint.
        """
        lowered = tuple(k.lower() for k in track)
        delivered = 0
        for tweet in self._tweets:
            if limit is not None and delivered >= limit:
                return
            if self._matches(tweet, lowered, locations):
                delivered += 1
                if stats is not None:
                    stats.delivered += 1
                yield tweet
            elif stats is not None:
                stats.filtered_out += 1

    def sample(self, rate: float = 0.01, seed: int = 7) -> Iterator[Tweet]:
        """statuses/sample — a deterministic pseudo-random sample."""
        import random

        rng = random.Random(seed)
        for tweet in self._tweets:
            if rng.random() < rate:
                yield tweet

    @staticmethod
    def _matches(
        tweet: Tweet, track: tuple[str, ...], locations: BoundingBox | None
    ) -> bool:
        if track:
            text = tweet.text.lower()
            if any(keyword in text for keyword in track):
                return True
        if locations is not None and tweet.coordinates is not None:
            return locations.contains(tweet.coordinates)
        return not track and locations is None
