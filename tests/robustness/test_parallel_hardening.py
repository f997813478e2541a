"""The hardened fan-out: per-future error collection, broken-pool
retry, re-entrancy guard, and ``default_jobs`` — the REPRO_JOBS
diagnostics and the cgroup CPU-quota cap (a pod granted 2 CPUs on a
64-core node should fork 2 workers, not 64)."""

import os
import time

import pytest

import repro.parallel as parallel
from repro import faultinject
from repro.errors import WorkerCrashed
from repro.obs.metrics import metrics
from repro.parallel import (
    PARALLEL_STATS,
    cgroup_cpu_quota,
    default_jobs,
    fanout,
    fork_available,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="needs fork start method"
)


# Module-level workers: pickled by reference into pool processes.
def double(payload, item):
    return item * 2


def fail_on_three(payload, item):
    if item == 3:
        raise ValueError(f"cannot process {item}")
    return item * 2


def slow_zero(payload, item):
    if item == 0:
        time.sleep(0.5)
    return item * 2


def slower_when_earlier(payload, item):
    # Earlier items sleep longer, so they complete last.
    time.sleep(0.02 * (6 - item))
    return item * 2


def exit_on_three(payload, item):
    if item == 3 and parallel.multiprocessing.parent_process() is not None:
        os._exit(1)
    return item * 2


def die_hard_on_two(payload, item):
    # Item 2 is unrecoverable: kills any worker that runs it, and
    # raises when the parent's serial retry has a go.
    if item == 2:
        if parallel.multiprocessing.parent_process() is not None:
            os._exit(1)
        raise ValueError("fails in the parent too")
    return item * 2


def pid_with_item_one_dying(payload, item):
    # Item 0 keeps its worker busy while item 1 kills the other, so
    # both are in flight when the pool breaks.
    if item == 0:
        time.sleep(0.2)
    if item == 1 and parallel.multiprocessing.parent_process() is not None:
        os._exit(1)
    return item, os.getpid()


def degrade(item, exc):
    return ("failed", item)


def reraise(item, exc):
    raise exc


def write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


@pytest.fixture(autouse=True)
def clean_faults():
    faultinject.clear()
    yield
    faultinject.clear()


class TestSerialPath:
    def test_plain(self):
        assert fanout(double, None, [1, 2, 3], 1, degrade) == [2, 4, 6]

    def test_on_error_maps_failures(self):
        out = fanout(
            fail_on_three, None, [1, 3, 5], jobs=1,
            on_error=lambda item, exc: ("failed", item, type(exc).__name__),
        )
        assert out == [2, ("failed", 3, "ValueError"), 10]

    def test_without_on_error_raises(self):
        # on_error is required: there is no re-raise mode.
        with pytest.raises(TypeError, match="on_error"):
            fanout(fail_on_three, None, [1, 3, 5], jobs=1)


def stop_after(n, log):
    """A stop hook that lets ``n`` items out, noting before each call
    how many results had arrived."""

    def stop():
        log.append(len(arrived))
        return "enough" if len(log) > n else None

    arrived = []
    return stop, arrived


class TestHooks:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stop_hands_out_a_prefix(self, jobs):
        if jobs > 1 and not fork_available():
            pytest.skip("needs fork start method")
        log = []
        stop, arrived = stop_after(2, log)
        out = fanout(
            double, None, list(range(6)), jobs, degrade,
            on_result=lambda item, result: arrived.append(item),
            stop=stop,
        )
        assert out == [0, 2]
        assert sorted(arrived) == [0, 1]
        # Asked before each hand-out, never again after the reason; at
        # jobs=2 the third ask waits for a result (two in flight).
        if jobs == 1:
            assert log == [0, 1, 2]
        else:
            assert log[:2] == [0, 0] and log[2] >= 1

    @needs_fork
    def test_results_arrive_in_completion_order(self):
        arrived = []
        out = fanout(
            slow_zero, None, [0, 1], 2, degrade,
            on_result=lambda item, result: arrived.append((item, result)),
        )
        assert out == [0, 2]
        assert arrived == [(1, 2), (0, 0)]

    @needs_fork
    def test_stand_ins_reach_on_result(self):
        arrived = {}
        out = fanout(
            fail_on_three, None, [1, 2, 3], 2, degrade,
            on_result=arrived.__setitem__,
        )
        assert out == [2, 4, ("failed", 3)]
        assert arrived == {1: 2, 2: 4, 3: ("failed", 3)}


@needs_fork
class TestPoolPath:
    def test_worker_exception_does_not_lose_siblings(self):
        metrics.reset("parallel")
        out = fanout(
            fail_on_three, None, [1, 2, 3, 4, 5], jobs=2,
            on_error=lambda item, exc: ("failed", item),
        )
        assert out == [2, 4, ("failed", 3), 8, 10]
        assert PARALLEL_STATS["worker_failures"] == 1

    def test_results_in_item_order(self):
        items = list(range(6))
        assert fanout(slower_when_earlier, None, items, 3, degrade) == [
            i * 2 for i in items
        ]

    def test_matches_serial(self):
        items = list(range(7))
        serial = fanout(double, None, items, 1, degrade)
        assert fanout(double, None, items, 4, degrade) == serial

    def test_raising_item_maps_through_on_error(self):
        # on_error sees the worker's own exception, message intact.
        metrics.reset("parallel")
        out = fanout(
            fail_on_three, None, [1, 2, 3], jobs=2,
            on_error=lambda item, exc: f"degraded:{item}:{exc}",
        )
        assert out == [2, 4, "degraded:3:cannot process 3"]
        assert PARALLEL_STATS["worker_failures"] == 1

    def test_killed_worker_recovers_via_parent_retry(self):
        # The crash rule fires in workers only; the parent's serial
        # retry (where it never fires) recovers the lost item.
        metrics.reset("parallel")
        faultinject.install("parallel.worker@3:crash")
        out = fanout(double, None, list(range(6)), 2, degrade)
        assert out == [i * 2 for i in range(6)]
        assert PARALLEL_STATS["broken_pools"] == 1
        assert PARALLEL_STATS["serial_retries"] >= 1

    def test_crashed_item_recovers_in_parent(self):
        # A crash the parent's retry recovers never reaches on_error.
        metrics.reset("parallel")
        faultinject.install("parallel.worker@2:crash::100")
        seen = []
        out = fanout(
            double, None, list(range(4)), jobs=2,
            on_error=lambda item, exc: seen.append(item),
        )
        assert out == [0, 2, 4, 6]
        assert seen == []
        assert PARALLEL_STATS["broken_pools"] == 1
        assert PARALLEL_STATS["serial_retries"] >= 1

    def test_broken_pool_retries_serially(self):
        """os._exit(1) in a worker breaks the pool; the affected items
        re-run serially in the parent (where the guard in the worker fn
        keeps them alive) and the full result set comes back."""
        metrics.reset("parallel")
        out = fanout(exit_on_three, None, [1, 2, 3, 4, 5], 2, degrade)
        assert out == [2, 4, 6, 8, 10]
        assert PARALLEL_STATS["broken_pools"] == 1
        assert PARALLEL_STATS["serial_retries"] >= 1

    def test_all_workers_crashing_completes(self):
        # The crash rule fires in workers only, on every item: the pool
        # breaks once, and the parent's serial retry finishes the batch.
        metrics.reset("parallel")
        faultinject.install("parallel.worker:crash::100")
        out = fanout(double, None, [0, 1, 2, 3], 2, degrade)
        assert out == [0, 2, 4, 6]
        assert PARALLEL_STATS["broken_pools"] == 1
        assert PARALLEL_STATS["serial_retries"] >= 1

    def test_unrecoverable_item_is_worker_crashed(self):
        metrics.reset("parallel")
        seen = {}

        def on_error(item, exc):
            seen[item] = exc
            return "gone"

        out = fanout(
            die_hard_on_two, None, [0, 1, 2, 3], jobs=2, on_error=on_error
        )
        assert out == [0, 2, "gone", 6]
        assert isinstance(seen[2], WorkerCrashed)
        assert PARALLEL_STATS["broken_pools"] == 1

    def test_broken_windowed_pool_is_replaced_once(self):
        # Under a stop hook, what the dead pool lost runs in the parent;
        # what was handed out after the break goes to a new pool.
        metrics.reset("parallel")
        broken_at_hand_out = []

        def stop():
            broken_at_hand_out.append(PARALLEL_STATS["broken_pools"])
            return None

        items = list(range(8))
        out = fanout(
            pid_with_item_one_dying, None, items, 2, degrade, stop=stop
        )
        assert [item for item, _ in out] == items
        assert PARALLEL_STATS["broken_pools"] == 1
        assert len(broken_at_hand_out) == len(items)
        after = [i for i, b in enumerate(broken_at_hand_out) if b]
        assert after, "no item was handed out after the break"
        assert all(out[i][1] != os.getpid() for i in after)
        assert out[1][1] == os.getpid()
        ran_in_parent = [i for i, (_, pid) in enumerate(out) if pid == os.getpid()]
        assert len(ran_in_parent) == PARALLEL_STATS["serial_retries"]

    def test_reentrant_fanout_degrades_to_serial(self):
        metrics.reset("parallel")
        parallel._ACTIVE = True
        try:
            out = fanout(double, None, [1, 2, 3], 4, degrade)
        finally:
            parallel._ACTIVE = False
        assert out == [2, 4, 6]
        assert PARALLEL_STATS["serial_fallbacks"] == 1
        assert PARALLEL_STATS["fanouts"] == 0

    def test_payload_cleared_after_failure(self):
        with pytest.raises(ValueError):
            fanout(fail_on_three, None, [1, 3], 2, reraise)
        assert parallel._PAYLOAD is None
        assert parallel._ACTIVE is False


class TestDefaultJobs:
    def test_valid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_invalid_env_warns_and_names_the_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        monkeypatch.setattr(parallel, "cgroup_cpu_quota", lambda: None)
        with pytest.warns(RuntimeWarning, match="'lots'"):
            assert default_jobs() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_env_warns(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        monkeypatch.setattr(parallel, "cgroup_cpu_quota", lambda: None)
        with pytest.warns(RuntimeWarning, match="not a positive integer"):
            assert default_jobs() == (os.cpu_count() or 1)

    def test_unset_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(parallel, "cgroup_cpu_quota", lambda: None)
        assert default_jobs() == (os.cpu_count() or 1)

    def test_quota_caps_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(parallel, "cgroup_cpu_quota", lambda: 1)
        assert default_jobs() == 1

    def test_quota_above_cpu_count_is_ignored(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(parallel, "cgroup_cpu_quota", lambda: 4096)
        assert default_jobs() == (os.cpu_count() or 1)

    def test_env_knob_beats_quota(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        monkeypatch.setattr(parallel, "cgroup_cpu_quota", lambda: 1)
        assert default_jobs() == 7


class TestCgroupV2:
    def test_quota_two_cpus(self, tmp_path):
        write(tmp_path, "cpu.max", "200000 100000\n")
        assert cgroup_cpu_quota(root=str(tmp_path)) == 2

    def test_fractional_quota_rounds_up(self, tmp_path):
        write(tmp_path, "cpu.max", "150000 100000\n")
        assert cgroup_cpu_quota(root=str(tmp_path)) == 2

    def test_sub_cpu_quota_is_one(self, tmp_path):
        write(tmp_path, "cpu.max", "50000 100000\n")
        assert cgroup_cpu_quota(root=str(tmp_path)) == 1

    def test_max_means_unlimited(self, tmp_path):
        write(tmp_path, "cpu.max", "max 100000\n")
        assert cgroup_cpu_quota(root=str(tmp_path)) is None

    def test_v2_beats_v1(self, tmp_path):
        write(tmp_path, "cpu.max", "400000 100000\n")
        write(tmp_path, "cpu/cpu.cfs_quota_us", "100000\n")
        write(tmp_path, "cpu/cpu.cfs_period_us", "100000\n")
        assert cgroup_cpu_quota(root=str(tmp_path)) == 4


class TestCgroupV1:
    def test_quota_pair(self, tmp_path):
        write(tmp_path, "cpu/cpu.cfs_quota_us", "300000\n")
        write(tmp_path, "cpu/cpu.cfs_period_us", "100000\n")
        assert cgroup_cpu_quota(root=str(tmp_path)) == 3

    def test_minus_one_means_unlimited(self, tmp_path):
        write(tmp_path, "cpu/cpu.cfs_quota_us", "-1\n")
        write(tmp_path, "cpu/cpu.cfs_period_us", "100000\n")
        assert cgroup_cpu_quota(root=str(tmp_path)) is None


class TestCgroupUnreadable:
    def test_missing_root_is_unlimited(self, tmp_path):
        assert cgroup_cpu_quota(root=str(tmp_path / "absent")) is None

    def test_garbage_files_are_unlimited(self, tmp_path):
        write(tmp_path, "cpu.max", "banana\n")
        write(tmp_path, "cpu/cpu.cfs_quota_us", "many\n")
        assert cgroup_cpu_quota(root=str(tmp_path)) is None
