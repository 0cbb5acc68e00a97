"""Single-process HTTP load generator: a closed loop and an open loop.

Both loops run inside the calling process on at most ``os.cpu_count()``
worker threads, each holding whatever its ``connect`` callable opens (a
keep-alive connection, or nothing when ``send`` connects per request),
so at most that many requests are ever in flight.

* :func:`closed_loop` models callers that wait for each reply: every
  worker sends its next request only when the previous one returned, so a
  slower server simply receives less load.  Its figure is throughput.
* :func:`open_loop` models independent users arriving on a fixed
  schedule: request ``i`` is due at ``t0 + i / rate`` whatever the server
  is doing.  Latency is timed from the *due* time, so a stall is charged
  to every request queued behind it, and the generator reports how late
  it ran (start minus due) and the largest backlog of due-but-unsent
  requests it saw.

:func:`tail_summary` implements the reporting rule for every timing: the
median plus the highest percentile of a fixed ladder that still has at
least ten samples beyond it, with the sample count.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

#: Percentiles a tail may be reported at, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: An open loop stops sending once it has run this many times its
#: scheduled length; what it did not send is reported as unsent.
OVERRUN_LIMIT = 2.0


def max_connections() -> int:
    """The connection/thread cap: one per available core."""
    return os.cpu_count() or 1


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def supported_percentile(count: int) -> float | None:
    """Highest ladder percentile leaving at least :data:`MIN_BEYOND`
    samples beyond it in a sample of ``count`` (``None`` if none does)."""
    for q in PERCENTILE_LADDER:
        if count * (100.0 - q) >= MIN_BEYOND * 100.0 - 1e-6:
            return q
    return None


def tail_summary(values: list[float]) -> dict[str, float | int | None]:
    """Median, the highest supported tail percentile, and the count."""
    ordered = sorted(values)
    q = supported_percentile(len(ordered))
    return {
        "count": len(ordered),
        "p50": percentile(ordered, 50.0) if ordered else None,
        "tail_q": q,
        "tail": percentile(ordered, q) if q is not None else None,
    }


@dataclass
class Sample:
    """One completed request.

    Attributes:
        item: What was sent (opaque to the generator).
        ok: Whether the sender judged the reply correct.
        due: When the request was due (closed loop: when it was sent).
        start: When it was actually sent.
        end: When its reply was complete.
    """

    item: object
    ok: bool
    due: float
    start: float
    end: float

    @property
    def latency_s(self) -> float:
        """Latency charged to the request: reply time minus due time."""
        return self.end - self.due

    @property
    def late_s(self) -> float:
        """How late the generator sent the request."""
        return self.start - self.due


@dataclass
class LoopResult:
    """What one loop phase produced.

    Attributes:
        samples: Every completed request, in completion order per worker.
        elapsed_s: Wall time of the phase.
        workers: Connections (threads) the phase used.
        backlog_max: Largest number of due-but-unsent requests seen
            (always 0 for a closed loop).
        unsent: Scheduled requests abandoned at the overrun limit.
    """

    samples: list[Sample] = field(default_factory=list)
    elapsed_s: float = 0.0
    workers: int = 0
    backlog_max: int = 0
    unsent: int = 0

    @property
    def rps(self) -> float:
        """Completed requests per second of phase wall time."""
        return len(self.samples) / self.elapsed_s if self.elapsed_s > 0 else 0.0


Connect = Callable[[], object]
Send = Callable[[object, object], bool]


def _run_workers(count: int, body: Callable[[list[Sample]], None]) -> list[Sample]:
    """Run ``body`` on ``count`` threads; re-raise the first failure."""
    per_worker: list[list[Sample]] = [[] for _ in range(count)]
    errors: list[BaseException] = []

    def target(out: list[Sample]) -> None:
        try:
            body(out)
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = [
        threading.Thread(target=target, args=(out,), daemon=True)
        for out in per_worker
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [sample for out in per_worker for sample in out]


def closed_loop(
    connect: Connect,
    send: Send,
    next_item: Callable[[], object],
    connections: int,
    duration_s: float,
) -> LoopResult:
    """Closed loop: ``connections`` callers (capped at the core count),
    each sending its next request when the previous reply is complete,
    until ``duration_s`` has passed."""
    workers = max(1, min(connections, max_connections()))
    start = time.perf_counter()
    deadline = start + duration_s

    def body(out: list[Sample]) -> None:
        conn = connect()
        try:
            while time.perf_counter() < deadline:
                item = next_item()
                sent = time.perf_counter()
                ok = send(conn, item)
                out.append(Sample(item, ok, sent, sent, time.perf_counter()))
        finally:
            close = getattr(conn, "close", None)
            if close is not None:
                close()

    samples = _run_workers(workers, body)
    return LoopResult(samples, time.perf_counter() - start, workers)


def open_loop(
    connect: Connect,
    send: Send,
    next_item: Callable[[], object],
    rate: float,
    duration_s: float,
    connections: int,
) -> LoopResult:
    """Open loop: ``rate * duration_s`` requests due at ``t0 + i / rate``,
    sent by up to ``connections`` workers (capped at the core count).

    A worker takes the next index, waits until it is due if it is early,
    and sends it; if every worker is busy the request waits, and that
    wait is part of its latency.  Sending stops at
    :data:`OVERRUN_LIMIT` times the scheduled length, so a stalled server
    cannot hold the generator forever; the rest is counted as unsent.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    workers = max(1, min(connections, max_connections()))
    total = int(rate * duration_s)
    lock = threading.Lock()
    state = {"next": 0, "backlog_max": 0}
    t0 = time.perf_counter()
    give_up = t0 + duration_s * OVERRUN_LIMIT

    def body(out: list[Sample]) -> None:
        conn = connect()
        try:
            while True:
                with lock:
                    index = state["next"]
                    now = time.perf_counter()
                    if index >= total or now > give_up:
                        return
                    state["next"] = index + 1
                    due_by_now = min(total, math.floor((now - t0) * rate) + 1)
                    state["backlog_max"] = max(state["backlog_max"], due_by_now - index)
                    item = next_item()
                due = t0 + index / rate
                now = time.perf_counter()
                if due > now:
                    time.sleep(due - now)
                start = time.perf_counter()
                ok = send(conn, item)
                out.append(Sample(item, ok, due, start, time.perf_counter()))
        finally:
            close = getattr(conn, "close", None)
            if close is not None:
                close()

    samples = _run_workers(workers, body)
    return LoopResult(samples, time.perf_counter() - t0, workers, state["backlog_max"],
                      total - state["next"])
