"""The live subsystem's acceptance property: every swap serves the batch.

At **every** snapshot swap — not just end of stream — the published
:class:`~repro.serving.state.ServingSnapshot` must be byte-identical to
``ServingSnapshot.from_study(accumulator.snapshot())`` at that instant.
The :class:`~tests.live.conftest.VerifyingStore` enforces the invariant
inside :meth:`~repro.serving.state.SnapshotStore.swap` itself, so a
violation fails at the exact publish that broke it.  Coverage spans both
corpora, all three backpressure policies (including lossy overflow),
and crash-resume at several cut points.
"""

import pytest

from repro.analysis.serialization import study_digest
from repro.live import LiveConfig
from repro.streaming import BackpressurePolicy

from tests.live.conftest import (
    assert_snapshots_identical,
    batch_snapshot_of,
    make_live,
)

POLICIES = tuple(BackpressurePolicy)
CRASH_POINTS = (1, 5, 23)
CADENCE = LiveConfig(cadence_batches=8)


def verify_against_batch(dataset_name):
    """The per-swap invariant check ``make_live`` installs on the store."""

    def check(snapshot, accumulator):
        assert_snapshots_identical(
            snapshot, batch_snapshot_of(accumulator, dataset_name)
        )

    return check


class TestEverySwap:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_each_policy_serves_the_batch_at_every_swap(
        self, corpus, policy, tmp_path
    ):
        dataset, name, study = corpus
        harness = make_live(
            dataset, name, tmp_path,
            config=CADENCE, policy=policy,
            verify=verify_against_batch(name),
        )
        snapshot = harness.run()
        assert snapshot.exhausted
        assert harness.store.verified > 0
        assert harness.queue.stats.dropped == 0  # ample capacity: lossless
        # Lossless end state: the served snapshot IS the batch study's.
        assert harness.store.current().digest == study_digest(study)

    def test_lossy_overflow_still_serves_its_own_ingested_state(
        self, small_ctx, tmp_path
    ):
        """Under DROP_OLDEST with a tight queue the accumulator sees a
        strict subset of the corpus — and every swap must still serve
        exactly that subset's batch snapshot."""
        dataset = small_ctx.ladygaga_dataset
        harness = make_live(
            dataset, "Lady Gaga", tmp_path,
            config=CADENCE,
            policy=BackpressurePolicy.DROP_OLDEST,
            capacity=8, batch_size=8, drain_every=40,
            verify=verify_against_batch("Lady Gaga"),
        )
        snapshot = harness.run()
        assert snapshot.exhausted
        assert harness.queue.stats.dropped > 0
        assert harness.store.verified > 0

    def test_shed_overflow_still_serves_its_own_ingested_state(
        self, small_ctx, tmp_path
    ):
        dataset = small_ctx.ladygaga_dataset
        harness = make_live(
            dataset, "Lady Gaga", tmp_path,
            config=CADENCE,
            policy=BackpressurePolicy.SHED,
            capacity=8, batch_size=8, drain_every=40,
            verify=verify_against_batch("Lady Gaga"),
        )
        harness.run()
        assert harness.queue.stats.dropped > 0
        assert harness.store.verified > 0


class TestCrashResume:
    @pytest.mark.parametrize("crash_after", CRASH_POINTS)
    def test_resume_swaps_stay_batch_identical(
        self, corpus, crash_after, tmp_path
    ):
        """Crash mid-stream, resume with a *cold* builder over the
        journal-rebuilt accumulator: every swap of the resumed run —
        including the first, which replays the recovered state — must
        serve the batch snapshot, and the end state must be the batch
        study's."""
        dataset, name, study = corpus
        partial = make_live(
            dataset, name, tmp_path,
            config=CADENCE, verify=verify_against_batch(name),
        ).run(max_batches=crash_after)
        assert not partial.exhausted
        resumed = make_live(
            dataset, name, tmp_path,
            config=CADENCE, resume=True,
            verify=verify_against_batch(name),
        )
        final = resumed.run()
        assert final.exhausted
        assert resumed.store.current().digest == study_digest(study)


class TestGenerationAccounting:
    def test_generations_count_boot_plus_swaps(self, small_ctx, tmp_path):
        dataset = small_ctx.korean_dataset
        harness = make_live(
            dataset, "korean", tmp_path,
            config=CADENCE, verify=verify_against_batch("korean"),
        )
        harness.run()
        assert harness.store.generation == 1 + harness.store.verified

