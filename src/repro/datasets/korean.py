"""Korean dataset builder — the paper's primary corpus.

Reproduces the collection of slide 1 / §III-B: a synthetic Korean
population with a follower graph is crawled breadth-first from a seed
user through the simulated REST API, and every collected user's timeline
is fetched.  The paper's real numbers (52 200 crawled users, 11.1 M
tweets) are scaled down by default so the whole study runs in seconds;
:meth:`KoreanDatasetConfig.paper_scale` documents the full-size settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.geo.gazetteer import Gazetteer
from repro.geodata.registry import dataset_gazetteer
from repro.storage.tweetstore import TweetStore
from repro.storage.userstore import UserStore
from repro.twitter.api import RestApi
from repro.twitter.crawler import CrawlConfig, CrawlResult, FollowerCrawler
from repro.twitter.models import DatasetSummary
from repro.twitter.population import PopulationConfig, PopulationGenerator
from repro.twitter.social_graph import FollowerGraph, GraphConfig
from repro.twitter.tweetgen import CollectionWindow, TweetGenerator


@dataclass(frozen=True, slots=True)
class KoreanDatasetConfig:
    """Configuration of the Korean dataset build.

    Attributes:
        population_size: Accounts existing on the platform.
        crawl_limit: Users the crawler collects (<= population_size).
        window: Tweet-collection period.
        seed: Master seed for population, graph, and tweets.
        use_api_timelines: Fetch timelines through the simulated REST API
            (exercises pagination + rate limits; what the real collection
            did).  The default bulk-loads the generator output directly —
            byte-identical data (property-tested), much faster.
    """

    population_size: int = 4_000
    crawl_limit: int = 3_000
    window: CollectionWindow = field(default_factory=CollectionWindow.default)
    seed: int = 7
    use_api_timelines: bool = False

    def __post_init__(self) -> None:
        if self.crawl_limit > self.population_size:
            raise ConfigurationError(
                f"crawl_limit {self.crawl_limit} exceeds population "
                f"{self.population_size}"
            )

    @classmethod
    def paper_scale(cls) -> "KoreanDatasetConfig":
        """The study's actual scale: ~52 k crawled users, ~11 M tweets.

        Runs in minutes, not seconds; benchmarks use the default scale and
        EXPERIMENTS.md reports both.
        """
        return cls(
            population_size=60_000,
            crawl_limit=52_200,
            window=CollectionWindow(start_ms=1_304_208_000_000, days=180),
            use_api_timelines=False,
        )


@dataclass
class KoreanDataset:
    """The built corpus plus collection provenance.

    Attributes:
        users: Crawled accounts.
        tweets: Their collected tweets.
        gazetteer: District catalogue the population lives on.
        summary: Slide-1-style dataset summary.
        crawl: The crawler's run record.
    """

    users: UserStore
    tweets: TweetStore
    gazetteer: Gazetteer
    summary: DatasetSummary
    crawl: CrawlResult


def build_korean_dataset(config: KoreanDatasetConfig | None = None) -> KoreanDataset:
    """Build the Korean dataset deterministically from its config."""
    config = config or KoreanDatasetConfig()
    gazetteer = dataset_gazetteer("korean")

    population = PopulationGenerator(
        gazetteer, PopulationConfig(size=config.population_size, seed=config.seed)
    ).generate()

    graph = FollowerGraph.generate(
        [s.user.user_id for s in population], GraphConfig(seed=config.seed)
    )

    # Histories are generated on access, so only the users the crawl
    # collects ever get one.
    timelines = TweetGenerator(config.window, seed=config.seed).timelines(population)
    api = RestApi(
        users={s.user.user_id: s.user for s in population},
        graph=graph,
        tweets_by_user=timelines,
    )
    crawler = FollowerCrawler(api, CrawlConfig(max_users=config.crawl_limit))
    crawl = crawler.crawl(graph.seed_user_id)

    users = UserStore()
    users.insert_many(crawl.users)

    tweets = TweetStore()
    for user in crawl.users:
        if config.use_api_timelines:
            timeline = api.fetch_full_timeline(user.user_id)
        else:
            timeline = timelines[user.user_id]
        tweets.insert_many(timeline)

    summary = DatasetSummary(
        name="Korean",
        collection_api="Search API (follower crawler + user timelines)",
        user_count=len(users),
        tweet_count=len(tweets),
        geotagged_tweet_count=tweets.gps_count(),
        extra={
            "population_size": config.population_size,
            "crawl_api_calls": crawl.api_calls,
            "crawl_rate_limit_waits": crawl.rate_limit_waits,
            "crawl_simulated_hours": round(crawl.simulated_duration_s / 3600.0, 1),
        },
    )
    return KoreanDataset(
        users=users, tweets=tweets, gazetteer=gazetteer, summary=summary, crawl=crawl
    )
