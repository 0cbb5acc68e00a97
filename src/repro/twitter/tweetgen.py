"""Tweet generation for synthetic users.

Generates each user's tweet history over a collection window: volumes are
heavy-tailed, timestamps follow a diurnal activity curve, tweet locations
come from the user's ground-truth mobility profile, and GPS coordinates
are attached with the user's device-specific probability — reproducing the
paper's central data problem that only a tiny fraction of tweets carry
coordinates.

Tweet text mixes everyday chatter with occasional mentions of the current
place (Fig. 4 shows users naming the place their GPS points at), which the
Twitris-style summariser later picks up.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import accumulate

from repro.errors import ConfigurationError
from repro.twitter.draws import below, weighted_index
from repro.twitter.idgen import SnowflakeGenerator
from repro.twitter.models import Tweet
from repro.twitter.population import SyntheticUser

#: Hour-of-day activity weights (local time): quiet nights, evening peak.
_HOUR_WEIGHTS = (
    1, 1, 1, 1, 1, 2, 4, 8, 10, 9, 8, 10,
    12, 10, 9, 9, 10, 11, 13, 15, 16, 14, 9, 4,
)
#: Running sums of :data:`_HOUR_WEIGHTS`, for
#: :func:`~repro.twitter.draws.weighted_index`.
_HOUR_CUM_WEIGHTS = tuple(accumulate(_HOUR_WEIGHTS))

_CHATTER = (
    "so sleepy today",
    "what should i have for lunch",
    "this bus is always late",
    "finally weekend!!",
    "new episode was so good",
    "rainy day again",
    "coffee time",
    "studying at the library",
    "traffic is terrible tonight",
    "who else is watching the game",
    "i need a vacation",
    "monday again...",
    "best dinner in a long time",
    "can't believe this weather",
    "listening to my favorite song on repeat",
    # Korean-language chatter: the study's corpus was mostly Korean
    # ("these strings were originally written in Korean", §III-B), and
    # Hangul exercises the unicode paths in storage and tokenisation.
    "오늘 너무 피곤하다",  # so tired today
    "점심 뭐 먹지",  # what's for lunch
    "버스 또 늦네",  # bus is late again
    "드디어 주말이다!!",  # finally the weekend
    "비 오는 날 좋아",  # i like rainy days
    "커피 한 잔 하면서 휴식",  # resting with a cup of coffee
    "야근 끝나고 집에 가는 중",  # heading home after overtime
)

_PLACE_TEMPLATES = (
    "having coffee in {place}",
    "just arrived at {place}",
    "dinner with friends at {place}",
    "walking around {place} tonight",
    "the view from {place} is amazing",
    "stuck in traffic near {place}",
    "shopping in {place} today",
)


@dataclass(frozen=True, slots=True)
class CollectionWindow:
    """The simulated collection period.

    Attributes:
        start_ms: Window start, unix milliseconds.
        days: Window length in whole days.
    """

    start_ms: int
    days: int

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ConfigurationError(f"window must span at least one day, got {self.days}")
        if self.start_ms < 0:
            raise ConfigurationError("window start must be a unix-ms timestamp")

    @property
    def end_ms(self) -> int:
        """Exclusive end of the window, unix milliseconds."""
        return self.start_ms + self.days * 86_400_000

    @classmethod
    def default(cls) -> "CollectionWindow":
        """90 days starting 2011-09-01, matching the study era."""
        return cls(start_ms=1_314_835_200_000, days=90)


class TweetGenerator:
    """Generates tweets for synthetic users over a collection window.

    Args:
        window: Collection period.
        seed: Master seed; per-user streams derive from it and the user id,
            so generating users in any order yields identical tweets.
        place_mention_rate: Probability a tweet names its current place.
    """

    def __init__(
        self,
        window: CollectionWindow,
        seed: int = 7,
        place_mention_rate: float = 0.15,
    ):
        self._window = window
        self._seed = seed
        self._place_mention_rate = place_mention_rate

    @property
    def window(self) -> CollectionWindow:
        """The collection period tweets are generated in."""
        return self._window

    def tweets_for(self, synthetic: SyntheticUser) -> list[Tweet]:
        """Generate the user's full tweet history, sorted by time.

        Each user gets their own snowflake generator (worker id derived
        from the user id): a single shared generator would clamp earlier
        users' timestamps forward and assign ids in *generation* order,
        destroying the global id/time coherence that stream consumers
        (Streaming API replay, trend windows) rely on.

        Every tweet makes its location draws (district, bearing, distance)
        and then its GPS draw, but only a tweet that keeps a fix pays for
        the destination trig: most tweets carry no coordinates, and the
        random stream is the same either way.
        """
        rng = random.Random(f"{self._seed}:{synthetic.user.user_id}")
        idgen = SnowflakeGenerator(worker_id=synthetic.user.user_id % 1024)
        expected = synthetic.tweets_per_day * self._window.days
        count = self._sample_count(expected, rng)
        timestamps = sorted(self._sample_timestamp(rng) for _ in range(count))

        user_id = synthetic.user.user_id
        profile = synthetic.mobility_profile
        districts = profile.districts
        gps_attach_prob = synthetic.gps_attach_prob
        tweets = []
        for ts in timestamps:
            index, bearing, distance = profile.draw(rng)
            has_gps = rng.random() < gps_attach_prob
            district = districts[index]
            tweets.append(
                Tweet(
                    tweet_id=idgen.next_id(ts),
                    user_id=user_id,
                    created_at_ms=ts,
                    text=self._render_text(district.name, rng),
                    coordinates=profile.fix(index, bearing, distance) if has_gps else None,
                    true_state=district.state,
                    true_county=district.name,
                )
            )
        return tweets

    def timelines(self, population: Iterable[SyntheticUser]) -> Mapping[int, list[Tweet]]:
        """The population's histories by user id, each generated on access.

        Indexing the mapping calls :meth:`tweets_for`, so a collection that
        reaches only part of the population generates only that part; the
        result equals ``{uid: tweets_for(u)}`` because every user's stream
        is seeded by the user id alone.  Nothing is memoised here: the
        consumer keeps what it reads (a :class:`~repro.twitter.api.RestApi`
        memoises each timeline it serves).
        """
        return _GeneratedTimelines(self, population)

    def stream(self, population: list[SyntheticUser]) -> Iterator[Tweet]:
        """All tweets of a population in global time order.

        Materialises per-user histories (they are small) and merges them;
        the global order is what the Streaming API simulator replays.
        """
        everything: list[Tweet] = []
        for synthetic in population:
            everything.extend(self.tweets_for(synthetic))
        everything.sort(key=lambda t: t.tweet_id)
        return iter(everything)

    # ------------------------------------------------------------- internals
    @staticmethod
    def _sample_count(expected: float, rng: random.Random) -> int:
        """Draw a tweet count around ``expected`` (>= 1).

        A uniform band around the expectation keeps the heavy tail that the
        per-user lognormal rate already provides without compounding it.
        """
        low = max(1.0, expected * 0.6)
        high = max(2.0, expected * 1.4)
        return max(1, int(rng.uniform(low, high)))

    def _sample_timestamp(self, rng: random.Random) -> int:
        """Draw a posting time inside the window with a diurnal profile.

        Millisecond jitter keeps cross-user snowflake collisions (same
        millisecond, same 10-bit worker, same sequence) out of reach.
        """
        day = below(rng, self._window.days)
        hour = weighted_index(rng, _HOUR_CUM_WEIGHTS)
        second = below(rng, 3_600)
        millis = below(rng, 1_000)
        return (
            self._window.start_ms
            + ((day * 24 + hour) * 3_600 + second) * 1_000
            + millis
        )

    def _render_text(self, place_name: str, rng: random.Random) -> str:
        if rng.random() < self._place_mention_rate:
            template = _PLACE_TEMPLATES[below(rng, len(_PLACE_TEMPLATES))]
            return template.format(place=place_name)
        return _CHATTER[below(rng, len(_CHATTER))]


class _GeneratedTimelines(Mapping[int, list[Tweet]]):
    """:meth:`TweetGenerator.timelines`' mapping: population order, lazy values."""

    def __init__(self, generator: TweetGenerator, population: Iterable[SyntheticUser]):
        self._generator = generator
        self._users = {s.user.user_id: s for s in population}

    def __getitem__(self, user_id: int) -> list[Tweet]:
        return self._generator.tweets_for(self._users[user_id])

    def __iter__(self) -> Iterator[int]:
        return iter(self._users)

    def __len__(self) -> int:
        return len(self._users)
