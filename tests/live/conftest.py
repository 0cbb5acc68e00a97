"""Shared live-pipeline fixtures: a full stream-to-serving harness over
either corpus, a swap-verifying snapshot store, and the byte-equality
assertion the subsystem's core invariant is stated in."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.analysis.incremental import IncrementalStudyAccumulator
from repro.engine.context import RunContext
from repro.live import DeltaSnapshotBuilder, LiveConfig, LiveStudyPipeline
from repro.serving.http import encode_body
from repro.serving.state import ServingSnapshot, SnapshotStore
from repro.streaming import (
    BackpressurePolicy,
    BoundedTweetQueue,
    CheckpointLog,
    FirehoseSource,
    StreamConfig,
    StreamConsumer,
    StreamPump,
)


def assert_snapshots_identical(live: ServingSnapshot, batch: ServingSnapshot):
    """Assert two serving snapshots are byte-identical, field by field.

    Response bodies are compared through :func:`~repro.serving.http
    .encode_body` — the canonical wire encoding — so "equal" here means a
    client could not distinguish the two snapshots by any query.
    """
    assert live.digest == batch.digest
    assert live.version == batch.version
    assert live.dataset_name == batch.dataset_name
    assert sorted(live.users) == sorted(batch.users)
    for uid, body in batch.users.items():
        assert encode_body(live.users[uid]) == encode_body(body), uid
    assert sorted(live.regions) == sorted(batch.regions)
    for state, body in batch.regions.items():
        assert encode_body(live.regions[state]) == encode_body(body), state
    assert live.reliability == batch.reliability
    assert live.user_weights == batch.user_weights
    assert live.statistics == batch.statistics
    assert live.funnel == batch.funnel
    assert live.total_users == batch.total_users
    assert live.total_tweets == batch.total_tweets


def batch_snapshot_of(
    accumulator: IncrementalStudyAccumulator, dataset_name: str
) -> ServingSnapshot:
    """The batch-built snapshot of the accumulator's current state —
    the right-hand side of the swap-equivalence invariant."""
    return ServingSnapshot.from_study(accumulator.snapshot(dataset_name))


class VerifyingStore(SnapshotStore):
    """A snapshot store that runs a check on every snapshot swapped in.

    The check runs *before* publication, on the pipeline's thread, so a
    violated invariant fails the test at the exact swap that broke it.
    """

    def __init__(self, snapshot: ServingSnapshot, verify: Callable):
        super().__init__(snapshot)
        self._verify = verify
        self.verified = 0

    def swap(self, snapshot: ServingSnapshot) -> ServingSnapshot:
        """Check ``snapshot`` against the invariant, then publish it."""
        self._verify(snapshot)
        self.verified += 1
        return super().swap(snapshot)


@dataclass
class LiveHarness:
    """Everything a test needs to drive and inspect one live pipeline."""

    accumulator: IncrementalStudyAccumulator
    consumer: StreamConsumer
    pump: StreamPump
    builder: DeltaSnapshotBuilder
    store: SnapshotStore
    pipeline: LiveStudyPipeline
    queue: BoundedTweetQueue
    offset: int

    def run(self, max_batches: int | None = None):
        """Pump from the resumed offset; returns the stream snapshot."""
        return self.pipeline.run(
            start_offset=self.offset, max_batches=max_batches
        )


def make_live(
    dataset,
    dataset_name,
    state_dir,
    *,
    config: LiveConfig | None = None,
    policy=BackpressurePolicy.BLOCK,
    batch_size=128,
    capacity=512,
    drain_every=64,
    checkpoint_every=3,
    resume=False,
    verify=None,
    clock=None,
    sleep=None,
) -> LiveHarness:
    """Wire up one complete live pipeline over ``dataset``.

    ``verify`` is an optional ``(snapshot, accumulator) -> None`` check
    installed on every swap via :class:`VerifyingStore`; ``clock`` and
    ``sleep`` pass through to :class:`~repro.live.pipeline
    .LiveStudyPipeline` for deterministic cadence tests.
    """
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
    source = FirehoseSource(dataset.tweets, dataset.users)
    queue = BoundedTweetQueue(capacity, policy)
    stream_config = StreamConfig(
        batch_size=batch_size,
        capacity=capacity,
        policy=policy,
        drain_every=drain_every,
        checkpoint_every=checkpoint_every,
    )
    pump = StreamPump(
        source, queue, consumer, stream_config,
        RunContext(dataset_name=dataset_name),
    )
    builder = DeltaSnapshotBuilder(accumulator, dataset_name=dataset_name)
    boot = builder.build()
    if verify is not None:
        store = VerifyingStore(boot, lambda snap: verify(snap, accumulator))
    else:
        store = SnapshotStore(boot)
    kwargs = {}
    if clock is not None:
        kwargs["clock"] = clock
    if sleep is not None:
        kwargs["sleep"] = sleep
    pipeline = LiveStudyPipeline(pump, builder, store, config, **kwargs)
    return LiveHarness(
        accumulator=accumulator,
        consumer=consumer,
        pump=pump,
        builder=builder,
        store=store,
        pipeline=pipeline,
        queue=queue,
        offset=offset,
    )


@pytest.fixture(params=("korean", "ladygaga"))
def corpus(request, small_ctx):
    """Either study corpus: ``(dataset, canonical name, batch study)``.

    The name is the study's own ``dataset_name``, so digests computed
    over live state are directly comparable to the batch study's.
    """
    if request.param == "korean":
        study = small_ctx.korean_study
        dataset = small_ctx.korean_dataset
    else:
        study = small_ctx.ladygaga_study
        dataset = small_ctx.ladygaga_dataset
    return dataset, study.dataset_name, study
