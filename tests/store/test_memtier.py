"""The store hierarchy's memory tier and write-behind buffer: LRU
semantics, the mem/disk hit split (the warm-run zero-disk-read
guarantee), read-your-writes for buffered publishes, and the flush
durability invariant — a journal record always implies a readable
entry, even under SIGKILL mid-flush."""

import multiprocessing
import os
import signal
import time

import pytest

from repro import faultinject
from repro.hybrid.pipeline import HybridVerifier
from repro.parallel import fork_available
from repro.store import MemTier, ProofStore, STORE_STATS

from tests.hybrid.test_parallel import _fingerprint
from tests.robustness.conftest import FAST_FNS
from tests.store.test_store import FP, FP2, entries_for

FP3 = "ef" + "2" * 62


class TestMemTierUnit:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MemTier(0)

    def test_lru_eviction_order(self):
        tier = MemTier(2)
        tier.put("a", [1])
        tier.put("b", [2])
        tier.put("c", [3])  # evicts "a"
        assert "a" not in tier and "b" in tier and "c" in tier
        assert tier.evictions == 1

    def test_get_refreshes_recency(self):
        tier = MemTier(2)
        tier.put("a", [1])
        tier.put("b", [2])
        assert tier.get("a") == [1]
        tier.put("c", [3])  # evicts "b", the least recently used
        assert "a" in tier and "b" not in tier

    def test_miss_is_none(self):
        assert MemTier(1).get("nope") is None

    def test_invalidate_and_len(self):
        tier = MemTier(4)
        tier.put("a", [1])
        assert len(tier) == 1
        tier.invalidate("a")
        assert len(tier) == 0
        tier.invalidate("a")  # idempotent


class TestReadThrough:
    def test_own_publish_is_memory_resident(self, tmp_path):
        store = ProofStore(tmp_path, mem=8)
        store.put(FP, "fn0", entries_for("fn0"))
        [e] = store.get(FP)
        assert e.function == "fn0"
        assert STORE_STATS["mem_hits"] == 1
        assert STORE_STATS["disk_reads"] == 0

    def test_first_read_warms_the_tier(self, tmp_path):
        ProofStore(tmp_path).put(FP, "fn0", entries_for("fn0"))
        store = ProofStore(tmp_path, mem=8)
        store.get(FP)  # cold: disk
        store.get(FP)  # warm: memory
        assert STORE_STATS["disk_hits"] == 1
        assert STORE_STATS["mem_hits"] == 1
        assert STORE_STATS["disk_reads"] == 1
        assert STORE_STATS["hits"] == 2  # total stays mem + disk

    def test_warm_run_has_zero_disk_reads(self, tmp_path):
        # The PR's acceptance gate: once resident, repeat lookups
        # never touch disk.
        store = ProofStore(tmp_path, mem=8)
        for fp, fn in ((FP, "fn0"), (FP2, "fn1")):
            store.put(fp, fn, entries_for(fn))
        before = STORE_STATS["disk_reads"]
        for _ in range(5):
            assert store.get(FP) is not None
            assert store.get(FP2) is not None
        assert STORE_STATS["disk_reads"] == before == 0

    def test_eviction_falls_back_to_disk(self, tmp_path):
        store = ProofStore(tmp_path, mem=1)
        store.put(FP, "fn0", entries_for("fn0"))
        store.put(FP2, "fn1", entries_for("fn1"))  # evicts FP
        assert store.get(FP) is not None
        assert STORE_STATS["disk_reads"] == 1

    def test_quarantine_invalidates_the_tier(self, tmp_path):
        ProofStore(tmp_path).put(FP, "fn0", entries_for("fn0"))
        store = ProofStore(tmp_path, mem=8)
        store.get(FP)  # now memory-resident
        # Corrupt the disk entry, then force a disk path via a fresh
        # store: quarantine must not leave a stale decoded copy behind
        # in any tier that saw it.
        path = store._entry_path(FP)
        path.write_bytes(path.read_bytes()[:40])
        fresh = ProofStore(tmp_path, mem=8)
        assert fresh.get(FP) is None
        assert STORE_STATS["quarantined"] == 1
        assert FP not in fresh.memtier

    def test_mem_zero_disables_the_tier(self, tmp_path):
        store = ProofStore(tmp_path, mem=0)
        assert store.memtier is None
        store.put(FP, "fn0", entries_for("fn0"))
        store.get(FP)
        assert STORE_STATS["mem_hits"] == 0
        assert STORE_STATS["disk_hits"] == 1


class TestPipelineWarmRun:
    """The same guarantees seen through ``HybridVerifier.run`` and its
    report's store counters."""

    def test_second_run_is_zero_disk_reads(self, env, tmp_path):
        store = ProofStore(tmp_path, mem=64, write_behind=True)
        first = HybridVerifier(*env, {}, store=store).run(FAST_FNS, jobs=1)
        assert first.ok
        assert store.pending() == 0  # end_run flushed the buffer
        second = HybridVerifier(*env, {}, store=store).run(FAST_FNS, jobs=1)
        assert _fingerprint(second) == _fingerprint(first)
        assert second.store_stats["hits"] == len(FAST_FNS)
        assert second.store_stats["mem_hits"] == len(FAST_FNS)
        assert second.store_stats["disk_reads"] == 0

    def test_cold_reopen_reads_disk_once_then_memory(self, env, tmp_path):
        HybridVerifier(
            *env, {}, store=ProofStore(tmp_path, mem=64, write_behind=True)
        ).run(FAST_FNS, jobs=1)
        store = ProofStore(tmp_path, mem=64)
        warm1 = HybridVerifier(*env, {}, store=store).run(FAST_FNS, jobs=1)
        assert warm1.store_stats["disk_reads"] == len(FAST_FNS)
        warm2 = HybridVerifier(*env, {}, store=store).run(FAST_FNS, jobs=1)
        assert warm2.store_stats["disk_reads"] == 0
        assert warm2.store_stats["mem_hits"] == len(FAST_FNS)

    def test_store_line_splits_mem_and_disk(self, env, tmp_path):
        store = ProofStore(tmp_path, mem=64)
        HybridVerifier(*env, {}, store=store).run(FAST_FNS, jobs=1)
        warm = HybridVerifier(*env, {}, store=store).run(FAST_FNS, jobs=1)
        line = [
            l for l in warm.render().splitlines() if l.startswith("-- store:")
        ][0]
        assert f"{len(FAST_FNS)} mem / 0 disk hits" in line


class TestWriteBehind:
    def test_put_buffers_until_flush(self, tmp_path):
        store = ProofStore(tmp_path, write_behind=True)
        assert store.put(FP, "fn0", entries_for("fn0"))
        assert store.pending() == 1
        assert not store._entry_path(FP).exists()
        # Not yet acknowledged to the journal either: a record would
        # claim durability the entry does not have.
        assert FP not in store.journal.completed_fingerprints()

    def test_read_your_buffered_writes(self, tmp_path):
        store = ProofStore(tmp_path, write_behind=True)
        store.put(FP, "fn0", entries_for("fn0"))
        [e] = store.get(FP)
        assert e.function == "fn0"
        assert STORE_STATS["mem_hits"] == 1
        assert store.has(FP)

    def test_flush_makes_durable_then_journals(self, tmp_path):
        store = ProofStore(tmp_path, write_behind=True)
        store.put(FP, "fn0", entries_for("fn0"))
        store.put(FP2, "fn1", entries_for("fn1"))
        assert store.flush() == 2
        assert store.pending() == 0
        assert store._entry_path(FP).exists()
        completed = store.journal.completed_fingerprints()
        assert FP in completed and FP2 in completed
        assert STORE_STATS["wb_flushes"] == 1
        # And a fresh process reads them straight off disk.
        fresh = ProofStore(tmp_path)
        assert fresh.get(FP) is not None

    def test_end_run_flushes(self, tmp_path):
        store = ProofStore(tmp_path, write_behind=True)
        store.begin_run(["fn0"])
        store.put(FP, "fn0", entries_for("fn0"))
        store.end_run()
        assert store.pending() == 0
        assert store._entry_path(FP).exists()

    def test_flush_on_empty_buffer_is_free(self, tmp_path):
        store = ProofStore(tmp_path, write_behind=True)
        assert store.flush() == 0
        assert STORE_STATS["wb_flushes"] == 0

    def test_forked_worker_writes_through(self, tmp_path):
        # A worker's buffer would die with its process; workers must
        # publish durably even on a write-behind store.
        store = ProofStore(tmp_path, write_behind=True)

        def child():
            store.put(FP, "fn0", entries_for("fn0"))
            os._exit(0)

        p = multiprocessing.get_context("fork").Process(target=child)
        p.start()
        p.join(timeout=30)
        assert p.exitcode == 0
        assert store._entry_path(FP).exists()


@pytest.mark.skipif(
    not fork_available(), reason="durability tests fork a victim process"
)
class TestFlushDurability:
    def _fork(self, target):
        """A raw ``os.fork`` victim: unlike a multiprocessing child it
        has no multiprocessing parent, so the store treats it as the
        *main* process and write-behind buffering actually engages."""
        pid = os.fork()
        if pid == 0:
            try:
                target()
            finally:
                os._exit(0)
        return pid

    def _kill(self, pid):
        os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status)
        assert os.WTERMSIG(status) == signal.SIGKILL

    def test_sigkill_before_flush_loses_only_unacknowledged(self, tmp_path):
        """Buffered-but-never-flushed publishes may die with the
        process; everything a flush checkpoint acknowledged must
        survive."""

        def victim():
            store = ProofStore(tmp_path, write_behind=True)
            store.put(FP, "fn0", entries_for("fn0"))
            store.put(FP2, "fn1", entries_for("fn1"))
            store.flush()  # the checkpoint: fn0/fn1 acknowledged
            store.put(FP3, "fn2", entries_for("fn2"))
            (tmp_path / "checkpointed").touch()
            time.sleep(60)  # hold the buffer; the parent kills us

        pid = self._fork(victim)
        deadline = time.monotonic() + 60
        while not (tmp_path / "checkpointed").exists():
            assert time.monotonic() < deadline
            time.sleep(0.02)
        self._kill(pid)

        store = ProofStore(tmp_path)
        completed = store.journal.completed_fingerprints()
        assert sorted(completed.values()) == ["fn0", "fn1"]
        assert store.get(FP) is not None
        assert store.get(FP2) is not None
        # fn2 was buffered, never acknowledged: gone, and — crucially —
        # not claimed by any journal record.
        assert FP3 not in completed
        assert store.get(FP3) is None

    def test_sigkill_mid_flush_never_journals_unwritten(self, tmp_path):
        """Kill delivered *inside* flush, while an entry write is in
        flight: entries flushed before the kill are journalled and
        readable; the in-flight and queued ones have no record."""

        def victim():
            faultinject.install("store.write@fn1:delay:30")
            store = ProofStore(tmp_path, write_behind=True)
            store.put(FP, "fn0", entries_for("fn0"))
            store.put(FP2, "fn1", entries_for("fn1"))
            store.put(FP3, "fn2", entries_for("fn2"))
            store.flush()  # writes fn0, stalls inside fn1's write
            os._exit(0)

        pid = self._fork(victim)
        journal = ProofStore(tmp_path).journal
        deadline = time.monotonic() + 60
        while FP not in journal.completed_fingerprints():
            assert time.monotonic() < deadline
            time.sleep(0.02)
        self._kill(pid)

        completed = ProofStore(tmp_path).journal.completed_fingerprints()
        readable = ProofStore(tmp_path)
        # The invariant under test: every journalled fingerprint is
        # readable (entry-before-record ordering), no torn entries.
        for fp in completed:
            assert readable.get(fp) is not None
        assert FP in completed
        assert FP2 not in completed and FP3 not in completed
        assert STORE_STATS["corrupt"] == 0
