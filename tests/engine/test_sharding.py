"""Unit tests for deterministic sharded execution."""

import os

import pytest

from repro.engine.sharding import ShardedExecutor, WorkerFaultPlan, partition
from repro.errors import ConfigurationError, ShardExecutionError


def _double(chunk, payload):
    return [x * 2 for x in chunk]


def _with_payload(chunk, payload):
    return [x + payload for x in chunk]


def _chunk_pid(chunk, payload):
    return (list(chunk), os.getpid())


def _boom_on_seven(chunk, payload):
    if 7 in chunk:
        raise ValueError("cannot handle seven")
    return list(chunk)


class TestPartition:
    def test_concatenation_preserves_order(self):
        items = list(range(17))
        for shards in (1, 2, 3, 8, 17, 25):
            chunks = partition(items, shards)
            assert len(chunks) == shards
            assert [x for chunk in chunks for x in chunk] == items

    def test_near_equal_sizes(self):
        chunks = partition(list(range(10)), 3)
        assert sorted(len(c) for c in chunks) == [3, 3, 4]

    def test_more_shards_than_items_pads_empty(self):
        chunks = partition([1, 2], 5)
        assert chunks == [[1], [2], [], [], []]

    def test_invalid_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            partition([1], 0)


class TestExecutor:
    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedExecutor(shards=0)
        with pytest.raises(ConfigurationError):
            ShardedExecutor(backend="threads")

    def test_serial_maps_in_shard_order(self):
        executor = ShardedExecutor(shards=3, backend="serial")
        results = executor.map_shards(list(range(7)), _double)
        assert [x for shard in results for x in shard] == [0, 2, 4, 6, 8, 10, 12]

    def test_process_backend_matches_serial(self):
        items = list(range(23))
        serial = ShardedExecutor(shards=4, backend="serial").map_shards(
            items, _with_payload, payload=100
        )
        process = ShardedExecutor(shards=4, backend="process").map_shards(
            items, _with_payload, payload=100
        )
        assert process == serial

    def test_empty_items(self):
        executor = ShardedExecutor(shards=3, backend="serial")
        assert executor.map_shards([], _double) == [[], [], []]

    def test_pool_capped_at_cpu_count(self):
        cpus = os.cpu_count() or 1
        assert ShardedExecutor(shards=64, backend="process").max_workers == min(
            64, cpus
        )
        # The explicit override still never exceeds the shard count.
        assert ShardedExecutor(shards=2, backend="process", max_workers=8).max_workers == 2
        with pytest.raises(ConfigurationError):
            ShardedExecutor(shards=2, backend="process", max_workers=0)

    def test_empty_shards_answered_in_parent(self):
        """Shards beyond the item count never reach the process pool."""
        with ShardedExecutor(shards=5, backend="process") as executor:
            report = executor.run_shards([1, 2], _chunk_pid)
        assert [r[0] for r in report.results] == [[1], [2], [], [], []]
        for outcome in report.outcomes[2:]:
            assert outcome.via == "inline-empty"
            assert outcome.attempts == 0
            assert outcome.result[1] == os.getpid()

    def test_shard_payloads_one_per_shard(self):
        executor = ShardedExecutor(shards=3, backend="serial")
        report = executor.run_shards(
            [1, 2, 3], _with_payload, shard_payloads=[10, 20, 30]
        )
        assert report.results == [[11], [22], [33]]
        with pytest.raises(ConfigurationError):
            executor.run_shards([1, 2, 3], _with_payload, shard_payloads=[10])

    def test_pool_reused_across_calls(self):
        with ShardedExecutor(shards=2, backend="process") as executor:
            first = executor.run_shards(list(range(4)), _chunk_pid)
            pool = executor._pool
            second = executor.run_shards(list(range(4)), _chunk_pid)
            assert pool is not None and executor._pool is pool
        # Either call may hand both shards to one worker, so the two pid
        # sets need not be equal; together they stay within the pool's
        # two workers (a pool re-forked per call would add new pids).
        pids = {r[1] for r in first.results} | {r[1] for r in second.results}
        assert len(pids) <= 2 and os.getpid() not in pids

    def test_close_is_idempotent(self):
        executor = ShardedExecutor(shards=2, backend="process")
        executor.map_shards([1, 2], _double)
        executor.close()
        executor.close()
        # A later call transparently re-forks a pool.
        assert executor.map_shards([1, 2], _double) == [[2], [4]]


class TestFailureSemantics:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_worker_exception_names_shard_and_range(self, backend):
        executor = ShardedExecutor(shards=4, backend=backend)
        with pytest.raises(ShardExecutionError) as excinfo:
            executor.run_shards(list(range(12)), _boom_on_seven)
        executor.close()
        err = excinfo.value
        assert err.shard_index == 2  # items [6:9]
        assert err.item_range == (6, 9)
        assert "shard 3/4" in str(err)
        assert "[6:9)" in str(err)
        assert "cannot handle seven" in str(err)

    def test_crashed_worker_retried_on_fresh_pool(self, tmp_path):
        plan = WorkerFaultPlan.arm(tmp_path / "token", shard=1, crashes=1)
        with ShardedExecutor(shards=2, backend="process", fault_plan=plan) as ex:
            with pytest.warns(RuntimeWarning, match="retrying once"):
                report = ex.run_shards(list(range(6)), _double)
        assert report.results == [[0, 2, 4], [6, 8, 10]]
        assert report.worker_retries >= 1
        assert report.serial_fallbacks == 0
        assert report.outcomes[1].via == "retry"

    def test_repeated_crash_falls_back_to_serial(self, tmp_path):
        plan = WorkerFaultPlan.arm(tmp_path / "token", shard=0, crashes=2)
        with ShardedExecutor(shards=2, backend="process", fault_plan=plan) as ex:
            with pytest.warns(RuntimeWarning) as warned:
                report = ex.run_shards(list(range(6)), _double)
        messages = [str(w.message) for w in warned]
        assert any("retrying once" in m for m in messages)
        assert any("serially in the parent" in m for m in messages)
        assert report.results == [[0, 2, 4], [6, 8, 10]]
        assert report.serial_fallbacks >= 1
        assert report.outcomes[0].via == "serial-fallback"
        assert report.outcomes[0].attempts == 3

    def test_fault_plan_never_kills_parent(self, tmp_path):
        """The serial fallback runs the faulting shard in the parent."""
        plan = WorkerFaultPlan.arm(tmp_path / "token", shard=0, crashes=99)
        with ShardedExecutor(shards=2, backend="process", fault_plan=plan) as ex:
            with pytest.warns(RuntimeWarning):
                report = ex.run_shards(list(range(6)), _double)
        assert report.results == [[0, 2, 4], [6, 8, 10]]
