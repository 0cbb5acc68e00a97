"""Twitter substrate: synthetic accounts, tweets, APIs, and the crawler.

Public surface of :mod:`repro.twitter`:

* models — :class:`TwitterUser`, :class:`Tweet`, ground-truth enums
* :class:`PopulationGenerator` / :class:`PopulationConfig` — user base
* :class:`MobilityModel` / :class:`MobilityProfile` — where users tweet
* :class:`TweetGenerator` / :class:`CollectionWindow` — tweet histories
* :class:`FollowerGraph` / :class:`GraphConfig` — the social graph
* :class:`RestApi` / :class:`StreamingApi` / :class:`VirtualClock` — API sims
* :class:`FollowerCrawler` / :class:`CrawlConfig` — the collection crawler
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "api": (
        "FOLLOWER_PAGE_SIZE", "TIMELINE_PAGE_SIZE", "USER_LOOKUP_BATCH", "ApiUsage",
        "FollowerPage", "RateLimitPolicy", "RestApi", "SearchPage", "StreamingApi",
        "StreamStats", "VirtualClock",
    ),
    "crawler": ("CrawlConfig", "CrawlResult", "FollowerCrawler"),
    "idgen": ("SNOWFLAKE_EPOCH_MS", "SnowflakeGenerator", "snowflake_timestamp_ms"),
    "mobility": ("MobilityModel", "MobilityProfile"),
    "models": (
        "DatasetSummary", "FollowerEdge", "GeotaggedObservation", "MobilityClass",
        "ProfileStyle", "Tweet", "TwitterUser",
    ),
    "population": (
        "DEFAULT_MOBILITY_MIX", "DEFAULT_PROFILE_STYLE_MIX", "PopulationConfig",
        "PopulationGenerator", "ProfileTextRenderer", "SyntheticUser",
    ),
    "social_graph": ("FollowerGraph", "GraphConfig"),
    "tweetgen": ("CollectionWindow", "TweetGenerator"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
