"""Lady Gaga dataset builder — the worldwide streaming corpus.

The slide deck's second dataset was collected through the Streaming API's
``track`` filter on a celebrity keyword, yielding a worldwide, fan-skewed
sample.  The build mirrors that: a world-city population (plus Korean
users) generates tweets; a configurable share of each fan's tweets mention
the tracked phrase; the simulated Streaming API delivers only matching
tweets; and the dataset is whatever came down the stream — including
users represented by a handful of tweets, exactly the bias the slides'
comparison figures show.

Compared to the Korean population, the streaming sample skews mobile
(more wanderers and relocated users) and has messier profiles, which is
what drives the flatter Top-k distribution on slides 4-5.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.geo.gazetteer import Gazetteer
from repro.geodata.registry import dataset_gazetteer
from repro.storage.tweetstore import TweetStore
from repro.storage.userstore import UserStore
from repro.twitter.api import StreamingApi, StreamStats
from repro.twitter.models import DatasetSummary, MobilityClass, ProfileStyle, Tweet
from repro.twitter.population import PopulationConfig, PopulationGenerator
from repro.twitter.tweetgen import CollectionWindow, TweetGenerator

#: Streaming-population mobility mix: fans travel (concerts!), and a
#: worldwide sample holds fewer home-anchored profiles than a local crawl.
STREAMING_MOBILITY_MIX: dict[MobilityClass, float] = {
    MobilityClass.HOME_ANCHORED: 0.26,
    MobilityClass.COMMUTER: 0.16,
    MobilityClass.WANDERER: 0.22,
    MobilityClass.RELOCATED: 0.22,
    MobilityClass.FIXED_ELSEWHERE: 0.14,
}

#: Streaming-population profile mix: noisier than the curated Korean crawl.
STREAMING_PROFILE_MIX: dict[ProfileStyle, float] = {
    ProfileStyle.DISTRICT: 0.30,
    ProfileStyle.CITY_ONLY: 0.14,
    ProfileStyle.COUNTRY_ONLY: 0.10,
    ProfileStyle.VAGUE: 0.16,
    ProfileStyle.COORDINATES: 0.02,
    ProfileStyle.MULTI: 0.06,
    ProfileStyle.GARBAGE: 0.12,
    ProfileStyle.EMPTY: 0.10,
}

_FAN_TEMPLATES = (
    "omg new lady gaga single is everything",
    "lady gaga tickets secured!!!",
    "listening to lady gaga on repeat",
    "that lady gaga performance last night...",
    "lady gaga really is the queen",
    "counting days to the lady gaga show",
    "this lady gaga album never gets old",
)


@dataclass(frozen=True, slots=True)
class LadyGagaDatasetConfig:
    """Configuration of the streaming dataset build.

    Attributes:
        population_size: Accounts on the simulated platform.
        track: Streaming filter phrase.
        fan_rate_range: (low, high) per-user probability that a tweet
            mentions the tracked phrase.
        window: Streaming capture period.
        seed: Master seed.
        stream_limit: Optional cap on delivered tweets.
    """

    population_size: int = 4_000
    track: str = "lady gaga"
    fan_rate_range: tuple[float, float] = (0.05, 0.5)
    window: CollectionWindow = field(default_factory=CollectionWindow.default)
    seed: int = 11
    stream_limit: int | None = None


@dataclass
class LadyGagaDataset:
    """The captured stream plus provenance.

    Attributes:
        users: Accounts seen in the stream (profile metadata attached).
        tweets: Tweets delivered by the ``track`` filter.
        gazetteer: Combined Korean + world catalogue.
        summary: Slide-1-style dataset summary.
        stream_stats: Delivery accounting from the streaming connection.
    """

    users: UserStore
    tweets: TweetStore
    gazetteer: Gazetteer
    summary: DatasetSummary
    stream_stats: StreamStats


def build_ladygaga_dataset(
    config: LadyGagaDatasetConfig | None = None,
) -> LadyGagaDataset:
    """Build the streaming dataset deterministically from its config."""
    config = config or LadyGagaDatasetConfig()
    gazetteer = dataset_gazetteer("combined")

    population = PopulationGenerator(
        gazetteer,
        PopulationConfig(
            size=config.population_size,
            seed=config.seed,
            mobility_mix=dict(STREAMING_MOBILITY_MIX),
            profile_style_mix=dict(STREAMING_PROFILE_MIX),
            id_offset=10_000_000,  # disjoint from the Korean dataset's ids
        ),
    ).generate()

    generator = TweetGenerator(config.window, seed=config.seed)
    rng = random.Random(config.seed)
    firehose: list[Tweet] = []
    for synthetic in population:
        fan_rate = rng.uniform(*config.fan_rate_range)
        for tweet in generator.tweets_for(synthetic):
            if rng.random() < fan_rate:
                tweet = Tweet(
                    tweet_id=tweet.tweet_id,
                    user_id=tweet.user_id,
                    created_at_ms=tweet.created_at_ms,
                    text=rng.choice(_FAN_TEMPLATES),
                    coordinates=tweet.coordinates,
                    true_state=tweet.true_state,
                    true_county=tweet.true_county,
                )
            firehose.append(tweet)

    streaming = StreamingApi(firehose)
    stats = StreamStats()
    tweets = TweetStore()
    seen_user_ids: set[int] = set()
    for tweet in streaming.filter(
        track=(config.track,), limit=config.stream_limit, stats=stats
    ):
        tweets.insert(tweet)
        seen_user_ids.add(tweet.user_id)

    users = UserStore()
    users.insert_many(s.user for s in population if s.user.user_id in seen_user_ids)

    summary = DatasetSummary(
        name="Lady Gaga",
        collection_api="Streaming API (statuses/filter, track)",
        user_count=len(users),
        tweet_count=len(tweets),
        geotagged_tweet_count=tweets.gps_count(),
        extra={
            "population_size": config.population_size,
            "track": config.track,
            "stream_delivered": stats.delivered,
            "stream_filtered_out": stats.filtered_out,
        },
    )
    return LadyGagaDataset(
        users=users,
        tweets=tweets,
        gazetteer=gazetteer,
        summary=summary,
        stream_stats=stats,
    )
