"""Unit tests for the simulated REST and Streaming APIs."""

import pytest

from repro.errors import NotFoundError, RateLimitExceededError
from repro.geo.gazetteer import Gazetteer
from repro.geo.region import BoundingBox
from repro.twitter.api import (
    FOLLOWER_PAGE_SIZE,
    RateLimitPolicy,
    RestApi,
    StreamingApi,
    StreamStats,
    VirtualClock,
)
from repro.twitter.population import PopulationConfig, PopulationGenerator
from repro.twitter.social_graph import FollowerGraph, GraphConfig
from repro.twitter.tweetgen import CollectionWindow, TweetGenerator


@pytest.fixture(scope="module")
def platform():
    population = PopulationGenerator(
        Gazetteer.korean(), PopulationConfig(size=80, seed=21)
    ).generate()
    generator = TweetGenerator(
        CollectionWindow(start_ms=1_314_835_200_000, days=20), seed=21
    )
    tweets = {s.user.user_id: generator.tweets_for(s) for s in population}
    graph = FollowerGraph.generate(
        [s.user.user_id for s in population], GraphConfig(seed=21)
    )
    return population, graph, tweets


def _make_api(platform, **kwargs):
    population, graph, tweets = platform
    return RestApi(
        users={s.user.user_id: s.user for s in population},
        graph=graph,
        tweets_by_user=tweets,
        **kwargs,
    )


class TestVirtualClock:
    def test_advance(self):
        clock = VirtualClock()
        clock.advance(10.0)
        assert clock.now_s == 10.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)


class TestUserLookup:
    def test_get_user_fills_degrees(self, platform):
        population, graph, _ = platform
        api = _make_api(platform)
        uid = population[3].user.user_id
        user = api.get_user(uid)
        followers, friends = graph.degree(uid)
        assert user.followers == followers
        assert user.friends == friends

    def test_unknown_user(self, platform):
        api = _make_api(platform)
        with pytest.raises(NotFoundError):
            api.get_user(424242)


class TestBatchLookup:
    def test_hydrates_in_request_order(self, platform):
        population, _, _ = platform
        api = _make_api(platform)
        ids = [s.user.user_id for s in population[:5]]
        users = api.lookup_users(list(reversed(ids)))
        assert [u.user_id for u in users] == list(reversed(ids))
        assert api.usage.batch_lookup_calls == 1

    def test_unknown_ids_omitted(self, platform):
        population, _, _ = platform
        api = _make_api(platform)
        known = population[0].user.user_id
        users = api.lookup_users([424242, known, 424243])
        assert [u.user_id for u in users] == [known]

    def test_oversized_batch_rejected(self, platform):
        api = _make_api(platform)
        with pytest.raises(NotFoundError):
            api.lookup_users(list(range(101)))

    def test_batch_agrees_with_single_lookup(self, platform):
        population, _, _ = platform
        api = _make_api(platform)
        uid = population[7].user.user_id
        [batch_user] = api.lookup_users([uid])
        assert batch_user == api.get_user(uid)


class TestFollowers:
    def test_pagination_reconstructs_full_list(self, platform):
        population, graph, _ = platform
        api = _make_api(platform)
        hub = max(graph.user_ids, key=lambda u: len(graph.followers_of(u)))
        collected = []
        cursor = -1
        while True:
            page = api.get_followers(hub, cursor=cursor)
            collected.extend(page.ids)
            if page.next_cursor == 0:
                break
            cursor = page.next_cursor
        assert collected == graph.followers_of(hub)
        assert len(page.ids) <= FOLLOWER_PAGE_SIZE

    def test_rate_limit_and_window_reset(self, platform):
        api = _make_api(
            platform,
            follower_limit=RateLimitPolicy(window_s=900.0, calls_per_window=2),
        )
        seed = platform[1].seed_user_id
        api.get_followers(seed)
        api.get_followers(seed)
        with pytest.raises(RateLimitExceededError) as exc_info:
            api.get_followers(seed)
        assert 0 < exc_info.value.retry_after_s <= 900.0
        assert api.usage.rate_limit_rejections == 1
        api.clock.advance(901.0)
        api.get_followers(seed)  # fresh window


class TestTimeline:
    def test_newest_first(self, platform):
        population, _, tweets = platform
        api = _make_api(platform)
        uid = population[0].user.user_id
        page = api.get_user_timeline(uid, count=10)
        ids = [t.tweet_id for t in page]
        assert ids == sorted(ids, reverse=True)

    def test_since_id_exclusive(self, platform):
        population, _, tweets = platform
        api = _make_api(platform)
        uid = population[0].user.user_id
        full = tweets[uid]
        pivot = full[len(full) // 2].tweet_id
        page = api.get_user_timeline(uid, since_id=pivot, count=200)
        assert all(t.tweet_id > pivot for t in page)

    def test_max_id_inclusive(self, platform):
        population, _, tweets = platform
        api = _make_api(platform)
        uid = population[0].user.user_id
        pivot = tweets[uid][-1].tweet_id
        page = api.get_user_timeline(uid, max_id=pivot, count=200)
        assert page and page[0].tweet_id == pivot

    def test_fetch_full_timeline(self, platform):
        population, _, tweets = platform
        api = _make_api(platform)
        uid = population[0].user.user_id
        collected = api.fetch_full_timeline(uid)
        assert sorted(t.tweet_id for t in collected) == sorted(
            t.tweet_id for t in tweets[uid]
        )

    def test_fetch_full_timeline_waits_out_limits(self, platform):
        api = _make_api(
            platform,
            timeline_limit=RateLimitPolicy(window_s=900.0, calls_per_window=1),
        )
        population = platform[0]
        busy = max(population, key=lambda s: s.tweets_per_day)
        before = api.clock.now_s
        collected = api.fetch_full_timeline(busy.user.user_id)
        assert collected
        if api.usage.timeline_calls > 1:
            assert api.clock.now_s > before


class TestSearch:
    def test_matches_are_newest_first(self, platform):
        api = _make_api(platform)
        page = api.search_tweets("coffee")
        assert page.tweets
        ids = [t.tweet_id for t in page.tweets]
        assert ids == sorted(ids, reverse=True)
        assert all("coffee" in t.text.lower() for t in page.tweets)

    def test_pagination_collects_everything(self, platform):
        _, _, tweets = platform
        api = _make_api(platform)
        expected = sorted(
            t.tweet_id
            for ts in tweets.values()
            for t in ts
            if "coffee" in t.text.lower()
        )
        collected: list[int] = []
        max_id = None
        while True:
            page = api.search_tweets("coffee", max_id=max_id, count=20)
            collected.extend(t.tweet_id for t in page.tweets)
            if page.max_id is None:
                break
            max_id = page.max_id
        assert sorted(collected) == expected

    def test_since_id_exclusive(self, platform):
        api = _make_api(platform)
        first = api.search_tweets("coffee", count=5)
        pivot = first.tweets[-1].tweet_id
        newer = api.search_tweets("coffee", since_id=pivot)
        assert all(t.tweet_id > pivot for t in newer.tweets)

    def test_case_insensitive(self, platform):
        api = _make_api(platform)
        a = api.search_tweets("COFFEE")
        b = api.search_tweets("coffee")
        assert [t.tweet_id for t in a.tweets] == [t.tweet_id for t in b.tweets]

    def test_no_matches(self, platform):
        api = _make_api(platform)
        page = api.search_tweets("zxqj-nothing-matches")
        assert page.tweets == ()
        assert page.max_id is None

    def test_usage_counted(self, platform):
        api = _make_api(platform)
        api.search_tweets("coffee")
        assert api.usage.search_calls == 1


class TestLazyTimelines:
    """A RestApi over generated-on-access timelines serves exactly what one
    over a prebuilt dict serves, and generates only what it is asked for."""

    @pytest.fixture(scope="class")
    def pair(self, platform):
        population, graph, tweets = platform
        generator = TweetGenerator(
            CollectionWindow(start_ms=1_314_835_200_000, days=20), seed=21
        )
        users = {s.user.user_id: s.user for s in population}

        def build():
            limit = RateLimitPolicy(calls_per_window=100_000)
            eager = RestApi(
                users=users, graph=graph, tweets_by_user=tweets, timeline_limit=limit
            )
            lazy = RestApi(
                users=users,
                graph=graph,
                tweets_by_user=generator.timelines(population),
                timeline_limit=limit,
            )
            return eager, lazy

        return population, build

    def test_fetch_full_timeline_identical(self, pair):
        population, build = pair
        eager, lazy = build()
        for synthetic in population:
            uid = synthetic.user.user_id
            assert lazy.fetch_full_timeline(uid) == eager.fetch_full_timeline(uid)
        assert lazy.usage == eager.usage
        assert lazy.clock.now_s == eager.clock.now_s

    def test_timeline_paging_identical(self, pair):
        population, build = pair
        eager, lazy = build()
        for synthetic in population[:12]:
            uid = synthetic.user.user_id
            max_id = None
            while True:
                page = lazy.get_user_timeline(uid, max_id=max_id, count=7)
                assert page == eager.get_user_timeline(uid, max_id=max_id, count=7)
                if not page:
                    break
                pivot = page[len(page) // 2].tweet_id
                assert lazy.get_user_timeline(uid, since_id=pivot) == (
                    eager.get_user_timeline(uid, since_id=pivot)
                )
                max_id = page[-1].tweet_id - 1

    @pytest.mark.parametrize("query", ["coffee", "a", "버스", "zxqj-nothing"])
    def test_search_pages_identical(self, pair, query):
        _, build = pair
        eager, lazy = build()
        max_id = None
        while True:
            page = lazy.search_tweets(query, max_id=max_id, count=40)
            assert page == eager.search_tweets(query, max_id=max_id, count=40)
            if page.max_id is None:
                break
            max_id = page.max_id

    def test_generates_only_requested_users(self, pair, monkeypatch):
        population, build = pair
        _, lazy = build()
        generated = []
        original = TweetGenerator.tweets_for

        def counting(self, synthetic):
            generated.append(synthetic.user.user_id)
            return original(self, synthetic)

        monkeypatch.setattr(TweetGenerator, "tweets_for", counting)
        uid = population[5].user.user_id
        lazy.fetch_full_timeline(uid)
        lazy.fetch_full_timeline(uid)
        lazy.get_followers(uid)
        assert generated == [uid]  # memoised, and no one else generated
        lazy.search_tweets("coffee")
        assert sorted(generated) == sorted(s.user.user_id for s in population)


class TestStreaming:
    def test_track_filter_case_insensitive(self, platform):
        _, _, tweets = platform
        all_tweets = [t for ts in tweets.values() for t in ts]
        stream = StreamingApi(all_tweets)
        stats = StreamStats()
        delivered = list(stream.filter(track=("COFFEE",), stats=stats))
        assert delivered
        assert all("coffee" in t.text.lower() for t in delivered)
        assert stats.delivered == len(delivered)
        assert stats.delivered + stats.filtered_out == len(all_tweets)

    def test_location_filter_requires_gps(self, platform):
        _, _, tweets = platform
        all_tweets = [t for ts in tweets.values() for t in ts]
        stream = StreamingApi(all_tweets)
        box = BoundingBox(33.0, 124.0, 39.0, 130.0)  # all of Korea
        delivered = list(stream.filter(locations=box))
        assert all(t.has_gps for t in delivered)
        assert len(delivered) == sum(1 for t in all_tweets if t.has_gps)

    def test_limit(self, platform):
        _, _, tweets = platform
        all_tweets = [t for ts in tweets.values() for t in ts]
        stream = StreamingApi(all_tweets)
        assert len(list(stream.filter(limit=5))) == 5

    def test_sample_deterministic(self, platform):
        _, _, tweets = platform
        all_tweets = [t for ts in tweets.values() for t in ts]
        stream = StreamingApi(all_tweets)
        a = [t.tweet_id for t in stream.sample(rate=0.1, seed=4)]
        b = [t.tweet_id for t in stream.sample(rate=0.1, seed=4)]
        assert a == b
        assert 0 < len(a) < len(all_tweets)

    def test_delivery_in_time_order(self, platform):
        _, _, tweets = platform
        all_tweets = [t for ts in tweets.values() for t in ts]
        stream = StreamingApi(all_tweets)
        delivered = [t.tweet_id for t in stream.filter(track=("coffee",))]
        assert delivered == sorted(delivered)
