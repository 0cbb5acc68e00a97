"""Property-based tests of tweet-store index consistency.

Random batches of tweets go in; every index and the persistence round
trip must agree with a brute-force model.  The ordered indexes are
appended on write and sorted on first read, so the interleaving test
reads through every path after every out-of-order insert.
"""

import pickle
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.point import GeoPoint
from repro.storage.query import TimeRange, TweetQuery
from repro.storage.tweetstore import TweetStore
from repro.twitter.models import Tweet


@st.composite
def tweet_batches(draw):
    """A batch of tweets with unique ids and assorted GPS/users/times."""
    count = draw(st.integers(min_value=1, max_value=40))
    ids = draw(
        st.lists(
            st.integers(min_value=1, max_value=10_000),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    tweets = []
    for tweet_id in ids:
        user_id = draw(st.integers(min_value=1, max_value=5))
        created = draw(st.integers(min_value=0, max_value=100_000))
        gps = draw(st.booleans())
        tweets.append(
            Tweet(
                tweet_id=tweet_id,
                user_id=user_id,
                created_at_ms=created,
                text=draw(st.sampled_from(["hello", "coffee", "earthquake now"])),
                coordinates=GeoPoint(37.5, 127.0) if gps else None,
            )
        )
    return tweets


class TestIndexConsistency:
    @given(tweet_batches())
    @settings(max_examples=60, deadline=None)
    def test_all_indexes_agree_with_model(self, tweets):
        store = TweetStore()
        store.insert_many(tweets)

        assert len(store) == len(tweets)
        # Time iteration order.
        stamps = [t.created_at_ms for t in store]
        assert stamps == sorted(stamps)
        # GPS index.
        assert store.gps_count() == sum(1 for t in tweets if t.has_gps)
        # Per-user timelines.
        for user_id in {t.user_id for t in tweets}:
            expected = sorted(
                (t.tweet_id for t in tweets if t.user_id == user_id)
            )
            assert [t.tweet_id for t in store.by_user(user_id)] == expected

    @given(
        tweet_batches(),
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_query_equals_brute_force(self, tweets, a, b):
        store = TweetStore()
        store.insert_many(tweets)
        lo, hi = min(a, b), max(a, b)
        query = TweetQuery(time_range=TimeRange(lo, hi), has_gps=True)
        indexed = {t.tweet_id for t in store.query(query)}
        brute = {t.tweet_id for t in tweets if query.matches(t)}
        assert indexed == brute

    @given(tweet_batches())
    @settings(max_examples=30, deadline=None)
    def test_persistence_roundtrip(self, tmp_path_factory, tweets):
        store = TweetStore()
        store.insert_many(tweets)
        path = tmp_path_factory.mktemp("store") / "tweets.jsonl"
        store.save(path)
        loaded = TweetStore.load(path)
        assert len(loaded) == len(store)
        assert [t.tweet_id for t in loaded] == [t.tweet_id for t in store]


@st.composite
def insert_orders(draw):
    """Tweets in time, reverse-time or random insertion order, authored
    round-robin by a few users so their timelines interleave; timestamps
    collide often, so ties break on the tweet id."""
    count = draw(st.integers(min_value=1, max_value=30))
    ids = draw(
        st.lists(
            st.integers(min_value=1, max_value=10_000),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    stamps = draw(
        st.lists(st.integers(min_value=0, max_value=40), min_size=count, max_size=count)
    )
    keyed = sorted(zip(stamps, ids))
    order = draw(st.sampled_from(["time", "reverse-time", "random"]))
    if order == "reverse-time":
        keyed.reverse()
    elif order == "random":
        keyed = draw(st.permutations(keyed))
    users = draw(st.integers(min_value=1, max_value=4))
    return [
        Tweet(
            tweet_id=tweet_id,
            user_id=1 + n % users,
            created_at_ms=created,
            text="t",
            coordinates=GeoPoint(37.5, 127.0) if draw(st.booleans()) else None,
        )
        for n, (created, tweet_id) in enumerate(keyed)
    ]


READ_PATHS = ("iter", "by_user", "time_range", "gps", "save_load", "pickle", "none")


def _time_order(model):
    return [t.tweet_id for t in sorted(model, key=lambda t: (t.created_at_ms, t.tweet_id))]


class TestLazyIndex:
    @given(
        insert_orders(),
        st.lists(
            st.tuples(
                st.sampled_from(READ_PATHS),
                st.integers(min_value=0, max_value=45),
                st.integers(min_value=0, max_value=45),
            ),
            min_size=30,
            max_size=30,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_reads_interleaved_with_inserts_match_model(self, tweets, reads):
        store = TweetStore()
        model = []
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "tweets.jsonl"
            for tweet, (read, a, b) in zip(tweets, reads):
                store.insert(tweet)
                model.append(tweet)
                if read == "iter":
                    assert [t.tweet_id for t in store] == _time_order(model)
                elif read == "by_user":
                    for user_id in {t.user_id for t in model} | {99}:
                        expected = sorted(t.tweet_id for t in model if t.user_id == user_id)
                        assert [t.tweet_id for t in store.by_user(user_id)] == expected
                elif read == "time_range":
                    query = TweetQuery(time_range=TimeRange(min(a, b), max(a, b) + 1))
                    expected = [
                        tid for tid in _time_order(model) if query.matches(store.get(tid))
                    ]
                    assert [t.tweet_id for t in store.query(query)] == expected
                elif read == "gps":
                    expected = sorted(t.tweet_id for t in model if t.has_gps)
                    assert [t.tweet_id for t in store.gps_tweets()] == expected
                    assert store.gps_count() == len(expected)
                elif read == "save_load":
                    assert store.save(path) == len(model)
                    store = TweetStore.load(path)
                    assert [t.tweet_id for t in store] == _time_order(model)
                elif read == "pickle":
                    # Ships whatever unsorted appends the store holds, as
                    # sending a store to another process does.
                    store = pickle.loads(pickle.dumps(store))
                assert len(store) == len(model)
        assert [t.tweet_id for t in store] == _time_order(model)
        assert store.user_ids() == sorted({t.user_id for t in model})
        for user_id in store.user_ids():
            expected = sorted(t.tweet_id for t in model if t.user_id == user_id)
            assert [t.tweet_id for t in store.by_user(user_id)] == expected

    def test_pickled_unsorted_store_reads_sorted(self):
        tweets = [
            Tweet(tweet_id=i, user_id=i % 3, created_at_ms=1_000 - i, text="t")
            for i in range(1, 50)
        ]
        store = TweetStore()
        store.insert_many(tweets)  # every append lands out of order
        shipped = pickle.loads(pickle.dumps(store))
        assert [t.tweet_id for t in shipped] == list(range(49, 0, -1))
        assert [t.tweet_id for t in shipped.by_user(1)] == list(range(1, 50, 3))
        assert [t.tweet_id for t in shipped] == [t.tweet_id for t in store]
