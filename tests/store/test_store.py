"""The store's durability contract: atomic publishes, checksummed
reads, quarantine/heal, env configuration."""

import json
import os

import pytest

from repro.hybrid.pipeline import HybridEntry
from repro.store import CACHEABLE_STATUSES, ProofStore, STORE_STATS

FP = "ab" + "0" * 62
FP2 = "cd" + "1" * 62


def entries_for(name, status="verified"):
    return [
        HybridEntry(
            name, "gillian-rust", ok=status == "verified", detail=None,
            note="1 VCs, 3 ms", status=status,
        )
    ]


def entry_file(store, fp):
    return store.entries_dir / fp[:2] / f"{fp}.json"


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        store = ProofStore(tmp_path)
        assert store.put(FP, "fn0", entries_for("fn0"))
        got = store.get(FP, context="fn0")
        assert got is not None
        [e] = got
        assert (e.function, e.half, e.ok, e.status, e.note) == (
            "fn0", "gillian-rust", True, "verified", "1 VCs, 3 ms",
        )
        assert STORE_STATS["hits"] == 1 and STORE_STATS["stores"] == 1

    def test_entry_path_is_the_two_hex_prefix(self, tmp_path):
        store = ProofStore(tmp_path)
        store.put(FP, "fn0", entries_for("fn0"))
        rel = store._entry_path(FP).relative_to(store.entries_dir)
        assert rel.parts == (FP[:2], f"{FP}.json")
        assert entry_file(store, FP).exists()
        # One fixed layout: nothing but the three fixed members.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "entries", "quarantine", "tmp",
        ]

    def test_miss_is_none(self, tmp_path):
        assert ProofStore(tmp_path).get(FP) is None
        assert STORE_STATS["misses"] == 1
        assert STORE_STATS["io_retries"] == 0  # absence is not an I/O fault

    def test_put_is_idempotent(self, tmp_path):
        store = ProofStore(tmp_path)
        store.put(FP, "fn0", entries_for("fn0"))
        mtime = entry_file(store, FP).stat().st_mtime_ns
        assert store.put(FP, "fn0", entries_for("fn0"))
        assert entry_file(store, FP).stat().st_mtime_ns == mtime
        assert STORE_STATS["stores"] == 1

    def test_no_tmp_litter(self, tmp_path):
        store = ProofStore(tmp_path)
        store.put(FP, "fn0", entries_for("fn0"))
        store.put(FP2, "fn1", entries_for("fn1"))
        assert list(store.tmp_dir.iterdir()) == []

    def test_tmp_litter_of_a_killed_writer_is_ignored(self, tmp_path):
        # A writer killed between its staging write and the rename
        # leaves a half-written tmp file; it is never read as a proof.
        store = ProofStore(tmp_path)
        (store.tmp_dir / f"{FP}.4242.tmp").write_bytes(b'{"version": ')
        assert store.get(FP) is None
        assert STORE_STATS["misses"] == 1 and STORE_STATS["corrupt"] == 0
        assert store.put(FP, "fn0", entries_for("fn0"))
        assert store.get(FP) is not None

    @pytest.mark.parametrize("status", ["timeout", "crashed", "error"])
    def test_nondeterministic_verdicts_not_persisted(self, tmp_path, status):
        # A timeout depends on the machine's day; caching it would make
        # a bad day permanent.
        assert status not in CACHEABLE_STATUSES
        store = ProofStore(tmp_path)
        assert not store.put(FP, "fn0", entries_for("fn0", status=status))
        assert not entry_file(store, FP).exists()
        assert STORE_STATS["skipped"] == 1

    def test_refuted_is_persisted(self, tmp_path):
        store = ProofStore(tmp_path)
        assert store.put(FP, "fn0", entries_for("fn0", status="refuted"))
        [e] = store.get(FP)
        assert e.status == "refuted" and not e.ok

    def test_entry_payload_is_plain_json(self, tmp_path):
        # The on-disk format is data, not code: an attacker-writable
        # cache dir (cwd checkout, shared CI cache) must never reach an
        # executable deserialiser like pickle.
        import base64

        store = ProofStore(tmp_path)
        store.put(FP, "fn0", entries_for("fn0"))
        envelope = json.loads(entry_file(store, FP).read_text())
        payload = json.loads(base64.b64decode(envelope["payload"]))
        assert payload[0]["function"] == "fn0"

    def test_unencodable_entries_skipped_not_pickled(self, tmp_path):
        store = ProofStore(tmp_path)
        bad = entries_for("fn0")
        bad[0].detail = object()  # no plain-data representation
        assert not store.put(FP, "fn0", bad)
        assert not entry_file(store, FP).exists()
        assert STORE_STATS["skipped"] == 1


class TestCorruption:
    def corrupt_one_byte(self, store, fp):
        path = entry_file(store, fp)
        blob = bytearray(path.read_bytes())
        # Flip inside the payload so JSON still parses but the
        # checksum does not.
        pos = blob.find(b'"payload": "') + 20
        blob[pos] ^= 0x01
        path.write_bytes(bytes(blob))
        return path

    def test_bitflip_quarantined_and_healed(self, tmp_path):
        store = ProofStore(tmp_path)
        store.put(FP, "fn0", entries_for("fn0"))
        path = self.corrupt_one_byte(store, FP)
        assert store.get(FP) is None  # heal mode: a miss, never a lie
        assert not path.exists()
        assert len(list(store.quarantine_dir.iterdir())) == 1
        assert STORE_STATS["corrupt"] == 1
        assert STORE_STATS["quarantined"] == 1
        # Re-publishing the re-verified result heals the fingerprint.
        assert store.put(FP, "fn0", entries_for("fn0"))
        assert STORE_STATS["healed"] == 1
        assert store.get(FP) is not None

    def test_truncated_entry_detected(self, tmp_path):
        store = ProofStore(tmp_path)
        store.put(FP, "fn0", entries_for("fn0"))
        path = entry_file(store, FP)
        path.write_bytes(path.read_bytes()[: 40])  # torn write
        assert store.get(FP) is None
        assert STORE_STATS["corrupt"] == 1

    def test_wrong_fingerprint_echo_detected(self, tmp_path):
        store = ProofStore(tmp_path)
        store.put(FP, "fn0", entries_for("fn0"))
        os.makedirs(entry_file(store, FP2).parent, exist_ok=True)
        os.rename(entry_file(store, FP), entry_file(store, FP2))
        assert store.get(FP2) is None
        assert STORE_STATS["corrupt"] == 1



class TestFromEnv:
    def test_off_by_default(self):
        assert ProofStore.from_env({}) is None
        assert ProofStore.from_env({"REPRO_CACHE": "0"}) is None

    def test_enabled_with_dir(self, tmp_path):
        store = ProofStore.from_env(
            {"REPRO_CACHE": "1", "REPRO_CACHE_DIR": str(tmp_path / "c")}
        )
        assert store is not None
        assert store.root == tmp_path / "c"

    def test_unopenable_store_warns_and_disables(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not dir")
        with pytest.warns(RuntimeWarning, match="without a cache"):
            store = ProofStore.from_env(
                {"REPRO_CACHE": "1", "REPRO_CACHE_DIR": str(blocker)}
            )
        assert store is None
