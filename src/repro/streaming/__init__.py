"""Streaming ingestion: live firehose → incremental study.

The paper's Lady Gaga dataset came down the Streaming API as a live
firehose; this subpackage reproduces that regime end to end.  A
:class:`~repro.streaming.source.FirehoseSource` replays a corpus with
Streaming-API semantics (track filtering, deterministic disconnects), a
:class:`~repro.streaming.queue.BoundedTweetQueue` applies an explicit
backpressure policy between producer and consumer, and a
:class:`~repro.streaming.consumer.StreamConsumer` folds micro-batches
into the :class:`~repro.analysis.incremental.IncrementalStudyAccumulator`
while journaling to a write-ahead tweet log plus a checkpoint log, so
``repro stream --resume`` can continue after a crash with at most one
micro-batch of rework.  The :class:`~repro.streaming.consumer.StreamPump`
wires it all together under an engine
:class:`~repro.engine.context.RunContext` (per-batch spans, queue/lag/
drop/checkpoint metrics).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "checkpoint": ("Checkpoint", "CheckpointLog"),
    "consumer": ("StreamConfig", "StreamConsumer", "StreamPump"),
    "queue": ("BackpressurePolicy", "BoundedTweetQueue", "PutOutcome", "QueueStats"),
    "snapshot": ("StreamSnapshot", "state_digest"),
    "source": ("FirehoseSource", "FirehoseStats"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
