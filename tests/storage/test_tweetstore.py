"""Unit tests for the tweet store, including crash-recovery semantics."""

import json

import pytest

from repro.errors import DuplicateKeyError, NotFoundError, StorageError
from repro.geo.point import GeoPoint
from repro.storage.query import TimeRange, TweetQuery
from repro.storage.tweetstore import TweetStore
from repro.twitter.models import Tweet


def _tweet(tweet_id, user_id=1, created_at_ms=None, text="t", gps=False):
    return Tweet(
        tweet_id=tweet_id,
        user_id=user_id,
        created_at_ms=created_at_ms if created_at_ms is not None else tweet_id * 10,
        text=text,
        coordinates=GeoPoint(37.5, 127.0) if gps else None,
    )


@pytest.fixture
def store():
    s = TweetStore()
    s.insert_many(
        [
            _tweet(1, user_id=1, gps=True),
            _tweet(2, user_id=2),
            _tweet(3, user_id=1, gps=True, text="earthquake now"),
            _tweet(4, user_id=3),
            _tweet(5, user_id=1),
        ]
    )
    return s


class TestInsert:
    def test_duplicate_rejected(self, store):
        with pytest.raises(DuplicateKeyError):
            store.insert(_tweet(1))

    def test_insert_many_skips_duplicates(self, store):
        inserted = store.insert_many([_tweet(1), _tweet(6)])
        assert inserted == 1
        assert len(store) == 6


class TestRead:
    def test_get(self, store):
        assert store.get(3).text == "earthquake now"
        with pytest.raises(NotFoundError):
            store.get(99)

    def test_iteration_time_ordered(self, store):
        stamps = [t.created_at_ms for t in store]
        assert stamps == sorted(stamps)

    def test_by_user_sorted(self, store):
        ids = [t.tweet_id for t in store.by_user(1)]
        assert ids == [1, 3, 5]
        assert store.by_user(999) == []

    def test_user_ids(self, store):
        assert store.user_ids() == [1, 2, 3]

    def test_gps_index(self, store):
        assert store.gps_count() == 2
        assert [t.tweet_id for t in store.gps_tweets()] == [1, 3]


class TestQuery:
    def test_user_index_path(self, store):
        results = store.query(TweetQuery(user_id=1, has_gps=True))
        assert [t.tweet_id for t in results] == [1, 3]

    def test_time_index_path(self, store):
        results = store.query(TweetQuery(time_range=TimeRange(20, 41)))
        assert [t.tweet_id for t in results] == [2, 3, 4]

    def test_gps_index_path(self, store):
        results = store.query(TweetQuery(has_gps=True, keyword="earthquake"))
        assert [t.tweet_id for t in results] == [3]

    def test_full_scan_path(self, store):
        results = store.query(TweetQuery(keyword="quake"))
        assert [t.tweet_id for t in results] == [3]

    def test_index_paths_agree_with_full_scan(self, store):
        query = TweetQuery(user_id=1)
        indexed = store.query(query)
        scanned = [t for t in store if query.matches(t)]
        assert indexed == scanned


class TestPersistence:
    def test_save_load_roundtrip(self, store, tmp_path):
        path = tmp_path / "tweets.jsonl"
        assert store.save(path) == 5
        loaded = TweetStore.load(path)
        assert len(loaded) == 5
        assert loaded.get(3).text == "earthquake now"
        assert loaded.gps_count() == 2

    def test_append_log(self, store, tmp_path):
        path = tmp_path / "tweets.jsonl"
        store.save(path)
        store.append_log(path, [_tweet(6)])
        loaded = TweetStore.load(path)
        assert len(loaded) == 6

    def test_torn_tail_dropped(self, store, tmp_path):
        path = tmp_path / "tweets.jsonl"
        store.save(path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"tweet_id": 99, "user_id": 1, "crea')  # torn write
        loaded = TweetStore.load(path)
        assert len(loaded) == 5
        assert 99 not in [t.tweet_id for t in loaded]

    def test_torn_tail_valid_json_kept(self, store, tmp_path):
        path = tmp_path / "tweets.jsonl"
        store.save(path)
        record = json.dumps(_tweet(99).to_dict())
        with path.open("a", encoding="utf-8") as handle:
            handle.write(record)  # complete record, missing newline
        loaded = TweetStore.load(path)
        assert len(loaded) == 6

    def test_corrupt_middle_raises(self, store, tmp_path):
        path = tmp_path / "tweets.jsonl"
        store.save(path)
        lines = path.read_text().splitlines()
        lines[2] = "CORRUPTED"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StorageError):
            TweetStore.load(path)

    def test_unicode_text_survives(self, tmp_path):
        store = TweetStore()
        store.insert(_tweet(1, text="지진이야!! 흔들린다"))
        path = tmp_path / "tweets.jsonl"
        store.save(path)
        assert TweetStore.load(path).get(1).text == "지진이야!! 흔들린다"


class TestAppendMany:
    """The streaming write-ahead path: one buffered write + flush per batch."""

    def test_appends_batch_and_inserts(self, store, tmp_path):
        path = tmp_path / "tweets.jsonl"
        store.save(path)
        appended = store.append_many(path, [_tweet(6), _tweet(7)])
        assert appended == 2
        assert store.get(6).tweet_id == 6  # in-memory indexes updated too
        assert len(TweetStore.load(path)) == 7

    def test_duplicate_in_batch_leaves_log_untouched(self, store, tmp_path):
        path = tmp_path / "tweets.jsonl"
        store.save(path)
        before = path.read_text(encoding="utf-8")
        with pytest.raises(DuplicateKeyError):
            store.append_many(path, [_tweet(6), _tweet(1)])
        assert path.read_text(encoding="utf-8") == before
        # Atomic: the tweet ahead of the duplicate never reached the
        # in-memory indexes either, so the mirror still matches its log.
        assert len(store) == 5
        with pytest.raises(NotFoundError):
            store.get(6)

    def test_repeat_within_batch_leaves_store_and_log_untouched(self, store, tmp_path):
        path = tmp_path / "tweets.jsonl"
        store.save(path)
        before = path.read_text(encoding="utf-8")
        with pytest.raises(DuplicateKeyError):
            store.append_many(path, [_tweet(6), _tweet(6)])
        assert path.read_text(encoding="utf-8") == before
        assert len(store) == 5
        with pytest.raises(NotFoundError):
            store.get(6)
        # The store is still usable: the same id goes in once.
        assert store.append_many(path, [_tweet(6)]) == 1
        assert [t.tweet_id for t in TweetStore.load(path)] == [1, 2, 3, 4, 5, 6]

    def test_crash_mid_batch_tears_only_the_final_line(self, store, tmp_path):
        """Regression: a crash landing mid-batch must cost at most the last
        record.  Because the batch is serialised into one buffered write,
        truncation at *any* byte count leaves every line before the cut
        intact — load() recovers all of them and drops only the torn tail.
        """
        path = tmp_path / "tweets.jsonl"
        store.save(path)
        base_size = path.stat().st_size
        store.append_many(path, [_tweet(6), _tweet(7), _tweet(8)])
        full = path.read_text(encoding="utf-8")
        batch_bytes = full.encode("utf-8")[base_size:]
        # Simulate the crash at every possible torn point inside the batch.
        for cut in range(1, len(batch_bytes)):
            path.write_bytes(full.encode("utf-8")[: base_size + cut])
            loaded = TweetStore.load(path)
            head = batch_bytes[:cut].decode("utf-8", "ignore")
            survivors = 5 + head.count("\n")
            tail = head.rsplit("\n", 1)[-1]
            if tail:
                try:
                    json.loads(tail)
                except ValueError:
                    pass
                else:
                    survivors += 1  # complete-but-unterminated final record kept
            assert len(loaded) == survivors
            # Whatever survived is a clean prefix of the batch.
            assert sorted(t.tweet_id for t in loaded) == list(
                range(1, survivors + 1)
            )
