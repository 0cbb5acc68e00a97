"""Tests of the load generator: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import threading
import time

import pytest

from loadgen import (
    closed_loop,
    max_connections,
    open_loop,
    percentile,
    supported_percentile,
    tail_summary,
)


class Recorder:
    """Fake transport: counts connections and concurrent sends."""

    def __init__(self, service_s: float = 0.0):
        self.service_s = service_s
        self.lock = threading.Lock()
        self.connections = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.items = iter(range(10**9))

    def connect(self) -> object:
        with self.lock:
            self.connections += 1
        return object()

    def next_item(self) -> int:
        with self.lock:
            return next(self.items)

    def send(self, conn: object, item: int) -> bool:
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(self.service_s)
        with self.lock:
            self.in_flight -= 1
        return True


def test_open_loop_follows_the_schedule():
    rec = Recorder()
    result = open_loop(rec.connect, rec.send, rec.next_item, rate=200.0,
                       duration_s=0.5, connections=2)
    assert len(result.samples) == 100 and result.unsent == 0
    dues = sorted(sample.due for sample in result.samples)
    gaps = [b - a for a, b in zip(dues, dues[1:])]
    assert all(gap == pytest.approx(1 / 200.0, abs=1e-9) for gap in gaps)
    # An idle server: nothing is sent before it is due.
    assert all(sample.start >= sample.due for sample in result.samples)


def test_open_loop_charges_queueing_to_the_due_time():
    rec = Recorder(service_s=0.01)  # capacity 100/s on one connection
    result = open_loop(rec.connect, rec.send, rec.next_item, rate=150.0,
                       duration_s=0.4, connections=1)
    samples = sorted(result.samples, key=lambda sample: sample.due)
    assert len(samples) == 60 and result.unsent == 0
    last = samples[-1]
    # The last request waited behind the others: its latency is its queue
    # wait plus its own service time, not the service time alone.
    assert last.latency_s == pytest.approx(last.late_s + (last.end - last.start))
    assert last.late_s > 0.1
    assert last.latency_s > 10 * rec.service_s
    assert result.backlog_max > 10


def test_open_loop_gives_up_on_a_stalled_server():
    rec = Recorder(service_s=0.05)
    result = open_loop(rec.connect, rec.send, rec.next_item, rate=100.0,
                       duration_s=0.2, connections=1)
    assert result.unsent > 0
    assert len(result.samples) + result.unsent == 20


def test_loops_never_exceed_one_connection_per_core():
    cap = max_connections()
    rec = Recorder(service_s=0.002)
    closed = closed_loop(rec.connect, rec.send, rec.next_item, connections=64,
                         duration_s=0.2)
    assert closed.workers == cap and rec.connections == cap
    assert rec.max_in_flight <= cap
    rec = Recorder(service_s=0.002)
    opened = open_loop(rec.connect, rec.send, rec.next_item, rate=500.0,
                       duration_s=0.2, connections=64)
    assert opened.workers == cap and rec.connections == cap
    assert rec.max_in_flight <= cap


def test_closed_loop_sends_only_after_each_reply():
    rec = Recorder(service_s=0.01)
    result = closed_loop(rec.connect, rec.send, rec.next_item, connections=1,
                         duration_s=0.2)
    samples = sorted(result.samples, key=lambda sample: sample.start)
    assert all(a.end <= b.start for a, b in zip(samples, samples[1:]))
    assert all(sample.due == sample.start for sample in samples)
    assert result.rps == pytest.approx(len(samples) / result.elapsed_s)


@pytest.mark.parametrize("count, expected", [
    (10_000, 99.9), (1_000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0),
    (40, 75.0), (39, None), (0, None),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected):
    assert supported_percentile(count) == expected


def test_tail_summary_reports_median_tail_and_count():
    summary = tail_summary([float(v) for v in range(1000, 0, -1)])
    assert summary == {"count": 1000, "p50": 500.0, "tail_q": 99.0, "tail": 990.0}
    assert tail_summary([]) == {"count": 0, "p50": None, "tail_q": None, "tail": None}


def test_percentile_is_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 50.0) == 2.0
    assert percentile(values, 75.0) == 3.0
    assert percentile(values, 100.0) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50.0)
