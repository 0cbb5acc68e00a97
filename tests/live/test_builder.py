"""DeltaSnapshotBuilder: full build ≡ ``from_study``, deltas track folds.

The builder's contract is that every ``build()`` — cold or incremental —
produces the same :class:`~repro.serving.state.ServingSnapshot` a batch
``ServingSnapshot.from_study(accumulator.snapshot())`` would, and that a
failed build loses no dirty users.
"""

import pytest

from repro.analysis.incremental import IncrementalStudyAccumulator
from repro.analysis.serialization import study_digest
from repro.live import DeltaSnapshotBuilder
from repro.serving.state import ServingSnapshot

from tests.live.conftest import assert_snapshots_identical, batch_snapshot_of


def folded(dataset, dataset_name, count=None):
    """An accumulator with ``count`` tweets folded (all by default) and a
    builder over it."""
    accumulator = IncrementalStudyAccumulator(dataset.gazetteer, dataset.users)
    tweets = list(dataset.tweets)
    accumulator.fold(tweets if count is None else tweets[:count])
    return accumulator, DeltaSnapshotBuilder(accumulator, dataset_name=dataset_name)


class TestColdBuild:
    def test_cold_build_is_the_batch_snapshot(self, corpus):
        """A cold builder has no caches: its first build is the
        degenerate all-dirty case and must equal the batch build of the
        batch study — digest and all."""
        dataset, name, study = corpus
        accumulator, builder = folded(dataset, name)
        live = builder.build()
        assert_snapshots_identical(live, ServingSnapshot.from_study(study))
        assert live.digest == study_digest(study)

    def test_empty_accumulator_builds_an_empty_snapshot(self, small_ctx):
        dataset = small_ctx.korean_dataset
        accumulator = IncrementalStudyAccumulator(dataset.gazetteer, dataset.users)
        builder = DeltaSnapshotBuilder(accumulator, dataset_name="korean")
        live = builder.build()
        assert live.total_users == 0
        assert live.users == {}
        assert_snapshots_identical(live, batch_snapshot_of(accumulator, "korean"))


class TestIncrementalBuild:
    def test_every_mid_stream_build_matches_batch(self, corpus):
        """Fold the corpus in five chunks, building after each: every
        intermediate snapshot must be byte-identical to the batch build
        over the accumulator's state at that instant."""
        dataset, name, _ = corpus
        accumulator = IncrementalStudyAccumulator(dataset.gazetteer, dataset.users)
        builder = DeltaSnapshotBuilder(accumulator, dataset_name=name)
        tweets = list(dataset.tweets)
        step = max(1, len(tweets) // 5)
        for start in range(0, len(tweets), step):
            accumulator.fold(tweets[start : start + step])
            live = builder.build()
            assert_snapshots_identical(live, batch_snapshot_of(accumulator, name))

    def test_rebuild_without_new_folds_is_content_equal(self, small_ctx):
        dataset = small_ctx.korean_dataset
        _, builder = folded(dataset, "korean", count=500)
        first = builder.build()
        second = builder.build()
        assert second.digest == first.digest
        assert builder.builds == 2

    def test_dirty_accounting(self, small_ctx):
        """Folds mark only touched users dirty; a successful build drains
        both the accumulator's dirty set and the builder's pending pool."""
        dataset = small_ctx.korean_dataset
        accumulator, builder = folded(dataset, "korean", count=400)
        assert accumulator.dirty_count > 0
        builder.build()
        assert accumulator.dirty_count == 0
        assert builder.pending_count == 0
        tail = list(dataset.tweets)[400:600]
        accumulator.fold(tail)
        touched = {tweet.user_id for tweet in tail}
        assert 0 < accumulator.dirty_count <= len(touched)

    def test_delta_build_rebuilds_only_the_marked_users(self, small_ctx, monkeypatch):
        """A warm build costs O(churn): marking k users dirty re-derives
        exactly those k users, and the snapshot is still the batch one."""
        dataset = small_ctx.korean_dataset
        accumulator, builder = folded(dataset, "korean")
        builder.build()  # cold build: warms every per-user cache
        study_ids = sorted(accumulator.study_user_ids())
        churned = study_ids[::20]
        assert 0 < len(churned) < len(study_ids)

        rebuilt = []
        rebuild_user = builder._rebuild_user

        def spy(uid):
            rebuilt.append(uid)
            rebuild_user(uid)

        monkeypatch.setattr(builder, "_rebuild_user", spy)
        accumulator.mark_dirty(churned)
        live = builder.build()
        assert sorted(rebuilt) == churned
        assert live.digest == batch_snapshot_of(accumulator, "korean").digest


class TestFailureContainment:
    def test_failed_build_loses_no_dirt(self, corpus, monkeypatch):
        """An exception mid-build leaves the claimed users pending; the
        next build retries them and converges to the batch snapshot."""
        dataset, name, _ = corpus
        accumulator = IncrementalStudyAccumulator(dataset.gazetteer, dataset.users)
        builder = DeltaSnapshotBuilder(accumulator, dataset_name=name)
        tweets = list(dataset.tweets)
        accumulator.fold(tweets[: len(tweets) // 2])
        builder.build()
        accumulator.fold(tweets[len(tweets) // 2 :])

        def explode(uid):
            raise RuntimeError("mid-build crash")

        monkeypatch.setattr(builder, "_rebuild_user", explode)
        with pytest.raises(RuntimeError):
            builder.build()
        assert builder.pending_count > 0
        monkeypatch.undo()
        live = builder.build()
        assert builder.pending_count == 0
        assert_snapshots_identical(live, batch_snapshot_of(accumulator, name))

    def test_builds_counter_skips_failures(self, small_ctx, monkeypatch):
        dataset = small_ctx.korean_dataset
        _, builder = folded(dataset, "korean", count=300)
        monkeypatch.setattr(
            builder, "_rebuild_user",
            lambda uid: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(RuntimeError):
            builder.build()
        assert builder.builds == 0
        monkeypatch.undo()
        builder.build()
        assert builder.builds == 1
