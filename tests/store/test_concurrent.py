"""Concurrent multi-process store access: many writers racing on the
same root (and the same fingerprint) must never produce a torn or
half-visible entry — publishes are atomic renames of fsynced temp
files, so readers see nothing or a valid entry, and content-addressed
keys make double-publishes benign."""

import multiprocessing
import os
import time

import pytest

from repro.parallel import fork_available
from repro.store import ProofStore, STORE_STATS

from tests.store.test_store import FP, entries_for

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="contention tests fork writer processes"
)

FPS = [f"{i:02x}" + f"{i:x}" * 62 for i in range(8)]


def _writer(root, fps, barrier):
    store = ProofStore(root)
    barrier.wait(timeout=30)
    for i, fp in enumerate(fps):
        store.put(fp, f"fn{i}", entries_for(f"fn{i}"))
    os._exit(0)


def _spawn_writers(root, groups):
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(len(groups))
    procs = [
        ctx.Process(target=_writer, args=(root, fps, barrier))
        for fps in groups
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    return procs


class TestContention:
    def test_disjoint_writers_all_land(self, tmp_path):
        _spawn_writers(tmp_path, [FPS[:4], FPS[4:]])
        reader = ProofStore(tmp_path)
        for fp in FPS:
            entries = reader.get(fp)
            assert entries is not None
            assert entries[0].status == "verified"
        assert STORE_STATS["corrupt"] == 0
        assert list(reader.tmp_dir.iterdir()) == []

    def test_same_fingerprint_racers_publish_once_atomically(self, tmp_path):
        # Four processes all publishing FP simultaneously (barrier-
        # released): last rename wins, every intermediate state is a
        # complete entry.
        _spawn_writers(tmp_path, [[FP]] * 4)
        reader = ProofStore(tmp_path)
        [e] = reader.get(FP)
        assert e.function == "fn0" and e.ok
        assert STORE_STATS["corrupt"] == 0
        assert list(reader.tmp_dir.iterdir()) == []

    def test_reader_races_writers(self, tmp_path):
        # A reader polling while writers publish must only ever see
        # misses or complete entries — never corruption.
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        p = ctx.Process(target=_writer, args=(tmp_path, FPS, barrier))
        p.start()
        reader = ProofStore(tmp_path)
        barrier.wait(timeout=30)
        seen = set()
        deadline = time.monotonic() + 120
        while len(seen) < len(FPS) and time.monotonic() < deadline:
            for fp in FPS:
                if fp not in seen and reader.get(fp) is not None:
                    seen.add(fp)
        p.join(timeout=120)
        assert p.exitcode == 0
        assert seen == set(FPS)
        assert STORE_STATS["corrupt"] == 0


class TestTornShard:
    def test_heal_on_torn_entry_under_shared_root(self, tmp_path):
        # One process's entry is torn on disk (simulated truncation);
        # another process sharing the root quarantines it and heals by
        # republishing — the damage stays per-entry.
        writer = ProofStore(tmp_path)
        writer.put(FP, "fn0", entries_for("fn0"))
        path = writer._entry_path(FP)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        other = ProofStore(tmp_path)
        assert other.get(FP) is None
        assert STORE_STATS["quarantined"] == 1
        assert other.put(FP, "fn0", entries_for("fn0"))
        assert STORE_STATS["healed"] == 1
        assert other.get(FP) is not None
        # The torn original is kept as evidence, not deleted.
        assert len(list(other.quarantine_dir.iterdir())) == 1
