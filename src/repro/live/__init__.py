"""Live study pipeline (`repro live`): firehose to serving in one process.

The batch pipeline answers "what was the study at ingest time T0"; this
package keeps the answer *current*.  It closes the loop between three
subsystems that previously never touched:

* **streaming** (:mod:`repro.streaming`) folds firehose micro-batches
  into an :class:`~repro.analysis.incremental.IncrementalStudyAccumulator`
  with journal-first durability — and now tracks which users each batch
  dirtied;
* **live** (this package) turns accumulator state into serving snapshots
  at cost proportional to *churn*, not study size
  (:class:`DeltaSnapshotBuilder` + the exact-digest fragment cache of
  :mod:`repro.live.fragments`), on a batch-count or wall-clock cadence
  (:class:`LiveStudyPipeline`);
* **serving** (:mod:`repro.serving`) publishes each build through the
  atomic :meth:`~repro.serving.state.SnapshotStore.swap` a running
  :class:`~repro.serving.http.StudyServer` reads — no SIGHUP, no file
  round-trip, old snapshot retained on build failure.

The core invariant — property-tested in
``tests/live/test_swap_equivalence.py`` on both datasets — is that at
every swap the served snapshot is **byte-identical** to
``ServingSnapshot.from_study(accumulator.snapshot())`` at that
checkpoint: the full batch build is just the delta build's degenerate
all-dirty case, so there is one code path to trust.

Layer map:

* :mod:`repro.live.fragments` — exact incremental composition of the
  canonical study JSON document (the content digest without O(full
  study) re-serialisation).
* :mod:`repro.live.builder` — :class:`DeltaSnapshotBuilder`, per-user /
  per-region cached snapshot assembly.
* :mod:`repro.live.pipeline` — :class:`LiveConfig` /
  :class:`LiveStudyPipeline`, the cadence loop and swap publisher.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "builder": ("DeltaSnapshotBuilder",),
    "pipeline": ("LiveConfig", "LiveStudyPipeline"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
