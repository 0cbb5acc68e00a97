"""Stream snapshots and the grouping-state digest checkpoints carry.

A stream run can be asked for its study at any moment; the answer is a
:class:`StreamSnapshot` — the assembled
:class:`~repro.analysis.correlation.StudyResult` plus enough stream
position to say *which* prefix of the firehose it covers.  Snapshots are
cheap: geocode cell outcomes are pure functions of the cell key (see
:mod:`repro.geocode.service`), so assembly reuses fold-time resolutions
— no snapshot-time re-geocode of the retained tweets.  The
:func:`state_digest` hash is what ties a durable
:class:`~repro.streaming.checkpoint.Checkpoint` to the in-memory grouping
state: resume rebuilds the accumulator from the write-ahead log and must
reproduce the digest bit for bit before it is allowed to continue.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.analysis.result import StudyResult
from repro.engine.context import RunContext
from repro.grouping.incremental import IncrementalGrouper


def state_digest(grouper: IncrementalGrouper) -> str:
    """SHA-256 over the grouper's canonical per-user merge counters.

    Built from the grouper's ``export_counts`` serialised with sorted
    keys, so the digest depends only on *state*, never on arrival
    order — two accumulators that folded the same tweets in
    different batchings digest identically.
    """
    payload = json.dumps(grouper.export_counts(), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class StreamSnapshot:
    """A study captured at one point in a stream run.

    Attributes:
        result: The full study over every tweet folded so far, assembled
            in batch-canonical order (byte-identical to ``run_study``
            over the same tweets).
        offset: Source offset of the next tweet the run would have
            produced when the snapshot was taken.
        batches: Micro-batches folded across the consumer's lifetime
            (survives resume).
        digest: :func:`state_digest` of the grouping state.
        exhausted: ``True`` when the source was fully drained; ``False``
            for a paused (``max_batches``) run.
        context: The run's engine context — per-batch spans and the
            stream metrics live in ``context.metrics``.
    """

    result: StudyResult
    offset: int
    batches: int
    digest: str
    exhausted: bool
    context: RunContext
