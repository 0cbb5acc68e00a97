"""The streaming subsystem's acceptance property: stream ≡ batch, byte for byte.

Every test here compares :func:`~repro.analysis.serialization.study_to_json`
documents — the exact text ``study --save`` writes — so "equal" means the
end-of-stream snapshot is **byte-identical** to the batch ``run_study``
over the same corpus: funnel, observations, merged strings, statistics,
and the simulated PlaceFinder accounting included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.correlation import run_study
from repro.analysis.incremental import IncrementalStudyAccumulator
from repro.analysis.serialization import study_to_json
from repro.engine.context import RunContext
from repro.errors import ConfigurationError
from repro.geo.gazetteer import Gazetteer
from repro.geo.point import GeoPoint
from repro.storage.tweetstore import TweetStore
from repro.storage.userstore import UserStore
from repro.streaming import (
    BackpressurePolicy,
    BoundedTweetQueue,
    CheckpointLog,
    FirehoseSource,
    StreamConfig,
    StreamConsumer,
    StreamPump,
)
from repro.twitter.models import Tweet

from tests.streaming.conftest import make_user

POLICIES = tuple(BackpressurePolicy)
CRASH_POINTS = (1, 5, 23)


def run_stream(
    dataset,
    dataset_name,
    state_dir,
    *,
    policy=BackpressurePolicy.BLOCK,
    batch_size=128,
    capacity=512,
    drain_every=64,
    checkpoint_every=3,
    disconnect_every=0,
    resume=False,
    max_batches=None,
):
    """Wire up and run one stream; returns ``(snapshot, queue)``."""
    accumulator = IncrementalStudyAccumulator(dataset.gazetteer, dataset.users)
    log = CheckpointLog(state_dir / "checkpoints.jsonl")
    wal_path = state_dir / "wal.jsonl"
    if resume:
        consumer, offset = StreamConsumer.resume(
            accumulator, wal_path, log, checkpoint_every
        )
    else:
        consumer = StreamConsumer(accumulator, wal_path, log, checkpoint_every)
        offset = 0
    source = FirehoseSource(
        dataset.tweets, dataset.users, disconnect_every=disconnect_every
    )
    queue = BoundedTweetQueue(capacity, policy)
    config = StreamConfig(
        batch_size=batch_size,
        capacity=capacity,
        policy=policy,
        drain_every=drain_every,
        checkpoint_every=checkpoint_every,
    )
    pump = StreamPump(
        source, queue, consumer, config, RunContext(dataset_name=dataset_name)
    )
    return pump.run(start_offset=offset, max_batches=max_batches), queue


@pytest.fixture(params=("korean", "ladygaga"))
def corpus(request, small_ctx):
    """One of the two study corpora with its precomputed batch study."""
    if request.param == "korean":
        return small_ctx.korean_dataset, study_to_json(small_ctx.korean_study)
    return small_ctx.ladygaga_dataset, study_to_json(small_ctx.ladygaga_study)


class TestEndOfStream:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_byte_identical_per_policy(self, corpus, policy, tmp_path):
        dataset, expected = corpus
        name = small_name(expected)
        snapshot, queue = run_stream(dataset, name, tmp_path, policy=policy)
        assert snapshot.exhausted
        assert queue.stats.dropped == 0  # capacity ample: every policy lossless
        assert study_to_json(snapshot.result) == expected

    def test_journal_is_written_once_per_batch(self, small_ctx, tmp_path, monkeypatch):
        """The write-ahead log takes one ``append_many`` per micro-batch,
        never one per tweet: a per-tweet append is a write and flush per
        tweet on the ingest path."""
        appends = []
        append_many = TweetStore.append_many

        def spy(store, path, tweets):
            tweets = list(tweets)
            appends.append(len(tweets))
            return append_many(store, path, tweets)

        monkeypatch.setattr(TweetStore, "append_many", spy)
        dataset = small_ctx.korean_dataset
        expected = study_to_json(small_ctx.korean_study)
        snapshot, _ = run_stream(dataset, small_name(expected), tmp_path)
        assert snapshot.exhausted
        assert snapshot.batches > 1
        assert len(appends) == snapshot.batches
        assert sum(appends) == len(dataset.tweets)

    def test_disconnects_do_not_change_the_study(self, corpus, tmp_path):
        dataset, expected = corpus
        snapshot, _ = run_stream(
            dataset, small_name(expected), tmp_path, disconnect_every=503
        )
        assert study_to_json(snapshot.result) == expected

    def test_consumer_starvation_does_not_change_the_study(self, corpus, tmp_path):
        dataset, expected = corpus
        # BLOCK with a slow consumer: the producer stalls instead of losing.
        snapshot, queue = run_stream(
            dataset,
            small_name(expected),
            tmp_path,
            capacity=16,
            batch_size=8,
            drain_every=1000,
        )
        assert queue.stats.block_waits > 0
        assert queue.stats.dropped == 0
        assert study_to_json(snapshot.result) == expected


class TestCrashResume:
    @pytest.mark.parametrize("crash_after", CRASH_POINTS)
    def test_resume_reaches_byte_identical_end_state(
        self, corpus, crash_after, tmp_path
    ):
        dataset, expected = corpus
        name = small_name(expected)
        partial, _ = run_stream(
            dataset, name, tmp_path, max_batches=crash_after
        )
        assert not partial.exhausted
        final, _ = run_stream(dataset, name, tmp_path, resume=True)
        assert final.exhausted
        assert study_to_json(final.result) == expected

    def test_repeated_crashes_still_converge(self, small_ctx, tmp_path):
        dataset = small_ctx.ladygaga_dataset
        expected = study_to_json(small_ctx.ladygaga_study)
        name = small_name(expected)
        run_stream(dataset, name, tmp_path, max_batches=2)
        run_stream(dataset, name, tmp_path, resume=True, max_batches=4)
        final, _ = run_stream(dataset, name, tmp_path, resume=True)
        assert final.exhausted
        assert study_to_json(final.result) == expected

    def test_crash_loses_at_most_one_checkpoint_interval(self, small_ctx, tmp_path):
        dataset = small_ctx.ladygaga_dataset
        partial, _ = run_stream(
            dataset, "Lady Gaga", tmp_path, max_batches=7, checkpoint_every=3
        )
        latest = CheckpointLog(tmp_path / "checkpoints.jsonl").latest()
        assert latest is not None
        # 7 batches folded, checkpoints at 3 and 6: at most checkpoint_every
        # batches of work are volatile at any crash instant.
        assert latest.batches == 6
        assert partial.batches - latest.batches < 3


class TestBackpressureLoss:
    @pytest.mark.parametrize(
        "policy", (BackpressurePolicy.DROP_OLDEST, BackpressurePolicy.SHED),
        ids=lambda p: p.value,
    )
    def test_lossy_overflow_matches_batch_over_ingested_corpus(
        self, small_ctx, policy, tmp_path
    ):
        dataset = small_ctx.ladygaga_dataset
        snapshot, queue = run_stream(
            dataset,
            "Lady Gaga",
            tmp_path,
            policy=policy,
            capacity=8,
            batch_size=8,
            drain_every=40,
        )
        assert queue.stats.dropped > 0
        ingested = TweetStore.load(tmp_path / "wal.jsonl")
        assert len(ingested) == len(dataset.tweets) - queue.stats.dropped
        batch = run_study(
            dataset.users, ingested, dataset.gazetteer, dataset_name="Lady Gaga"
        )
        assert study_to_json(snapshot.result) == study_to_json(batch)


class TestMidStream:
    def test_paused_snapshot_matches_batch_over_prefix(self, small_ctx, tmp_path):
        dataset = small_ctx.ladygaga_dataset
        snapshot, _ = run_stream(dataset, "Lady Gaga", tmp_path, max_batches=9)
        assert not snapshot.exhausted
        prefix = TweetStore.load(tmp_path / "wal.jsonl")
        assert 0 < len(prefix) < len(dataset.tweets)
        batch = run_study(
            dataset.users, prefix, dataset.gazetteer, dataset_name="Lady Gaga"
        )
        assert study_to_json(snapshot.result) == study_to_json(batch)


class TestAccumulatorContract:
    def test_min_gps_tweets_above_one_rejected(self, small_ctx):
        dataset = small_ctx.ladygaga_dataset
        with pytest.raises(ConfigurationError):
            IncrementalStudyAccumulator(
                dataset.gazetteer, dataset.users, min_gps_tweets=2
            )


def small_name(expected_json):
    """Recover the dataset name from the expected JSON document."""
    import json

    return json.loads(expected_json)["dataset_name"]


# --------------------------------------------------------------------------- #
# Randomised micro-corpus property: any knob combination, any crash point.    #
# --------------------------------------------------------------------------- #

_DISTRICT_POINTS = {
    "Gangnam-gu, Seoul": GeoPoint(37.517, 127.047),
    "Jongno-gu, Seoul": GeoPoint(37.573, 126.979),
    "Mapo-gu, Seoul": GeoPoint(37.566, 126.902),
}
_PROFILES = list(_DISTRICT_POINTS) + ["somewhere vague", ""]


class _MicroCorpus:
    """A tiny deterministic corpus shared across hypothesis examples."""

    def __init__(self):
        self.gazetteer = Gazetteer.korean()
        self.users = UserStore()
        for user_id in range(1, 6):
            profile = _PROFILES[(user_id - 1) % len(_PROFILES)]
            self.users.insert(make_user(user_id, profile))
        self.tweets = TweetStore()
        points = list(_DISTRICT_POINTS.values())
        for i in range(40):
            user_id = 1 + (i * 3) % 5
            point = points[i % 3] if i % 4 else None
            self.tweets.insert(
                Tweet(tweet_id=100 + i, user_id=user_id,
                      created_at_ms=1_000_000 + i * 60_000,
                      text=f"tweet {i}", coordinates=point)
            )


@pytest.fixture(scope="module")
def micro():
    corpus = _MicroCorpus()
    expected = study_to_json(
        run_study(corpus.users, corpus.tweets, corpus.gazetteer,
                  dataset_name="micro")
    )
    return corpus, expected


@given(
    policy=st.sampled_from(POLICIES),
    batch_size=st.integers(min_value=1, max_value=16),
    drain_every=st.integers(min_value=1, max_value=12),
    checkpoint_every=st.integers(min_value=1, max_value=5),
    crash_after=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=25, deadline=None)
def test_any_knobs_any_crash_point_converge(
    micro, tmp_path_factory, policy, batch_size, drain_every,
    checkpoint_every, crash_after,
):
    """For any policy/batching/checkpoint cadence and any crash point, a
    lossless-capacity stream resumes to the batch study, byte for byte."""
    corpus, expected = micro
    state_dir = tmp_path_factory.mktemp("stream")
    dataset = corpus
    partial, queue = run_stream(
        dataset, "micro", state_dir,
        policy=policy, batch_size=batch_size, capacity=64,
        drain_every=drain_every, checkpoint_every=checkpoint_every,
        max_batches=crash_after,
    )
    assert queue.stats.dropped == 0
    if partial.exhausted:
        assert study_to_json(partial.result) == expected
        return
    final, _ = run_stream(
        dataset, "micro", state_dir,
        policy=policy, batch_size=batch_size, capacity=64,
        drain_every=drain_every, checkpoint_every=checkpoint_every,
        resume=True,
    )
    assert final.exhausted
    assert study_to_json(final.result) == expected
