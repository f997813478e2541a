"""Injected store faults: torn writes, bit-flips, transient and
persistent I/O errors — each must degrade (retry, quarantine, heal,
re-verify), never crash a run or serve a wrong answer."""

import json
import os

import pytest

from repro import faultinject
from repro.hybrid.pipeline import HybridVerifier
from repro.store import ProofStore, STORE_STATS

from tests.robustness.conftest import FAST_FNS, fingerprint
from tests.store.test_store import FP, entries_for, entry_file


def make_verifier(env, tmp_path):
    program, ownables = env
    return HybridVerifier(program, ownables, {}, store=ProofStore(tmp_path))


class TestIoErrors:
    def test_transient_write_error_retried(self, tmp_path):
        store = ProofStore(tmp_path)
        faultinject.install("store.write:ioerror::1")  # first attempt only
        assert store.put(FP, "fn0", entries_for("fn0"))
        assert STORE_STATS["io_retries"] == 1
        assert STORE_STATS["io_errors"] == 0
        assert store.get(FP) is not None

    def test_persistent_write_error_swallowed(self, tmp_path):
        store = ProofStore(tmp_path)
        faultinject.install("store.write:ioerror")
        assert not store.put(FP, "fn0", entries_for("fn0"))
        assert STORE_STATS["io_errors"] == 1
        assert STORE_STATS["io_retries"] >= 2
        assert not entry_file(store, FP).exists()

    def test_failed_publish_removes_its_staging_file(self, tmp_path, monkeypatch):
        store = ProofStore(tmp_path)

        def fail(fd):
            raise OSError("EIO")

        monkeypatch.setattr(os, "fsync", fail)
        assert not store.put(FP, "fn0", entries_for("fn0"))
        assert list(store.tmp_dir.iterdir()) == []
        assert not entry_file(store, FP).exists()
        assert STORE_STATS["io_errors"] == 1 and STORE_STATS["stores"] == 0

    def test_persistent_read_error_is_a_miss(self, tmp_path):
        store = ProofStore(tmp_path)
        store.put(FP, "fn0", entries_for("fn0"))
        faultinject.install("store.read:ioerror")
        assert store.get(FP) is None
        assert STORE_STATS["io_errors"] == 1

    def test_pipeline_survives_unwritable_store(self, env, tmp_path):
        faultinject.install("store.write:ioerror")
        report = make_verifier(env, tmp_path).run(FAST_FNS, jobs=1)
        assert report.ok
        assert report.store_stats["io_errors"] == len(FAST_FNS)
        assert report.store_stats["stores"] == 0


class TestTornWriteAndBitflip:
    def test_count_limited_torn_write_heals_then_succeeds(self, env, tmp_path):
        """The acceptance scenario: exactly one torn write; the next
        run detects it, quarantines, re-verifies that one function,
        republishes — and the third run is all hits."""
        faultinject.install("store.write@fn1:torn::1")
        cold = make_verifier(env, tmp_path).run(FAST_FNS, jobs=1)
        assert cold.ok and cold.store_stats["stores"] == len(FAST_FNS)
        faultinject.clear()

        heal = make_verifier(env, tmp_path).run(FAST_FNS, jobs=1)
        assert fingerprint(heal) == fingerprint(cold)
        assert heal.store_stats == dict(
            heal.store_stats,
            hits=len(FAST_FNS) - 1, misses=1, corrupt=1,
            quarantined=1, stores=1, healed=1,
        )

        warm = make_verifier(env, tmp_path).run(FAST_FNS, jobs=1)
        assert fingerprint(warm) == fingerprint(cold)
        assert warm.store_stats["hits"] == len(FAST_FNS)
        assert warm.store_stats["misses"] == 0

    def test_bitflip_write_detected_on_read(self, env, tmp_path):
        faultinject.install("store.write@fn2:bitflip")
        cold = make_verifier(env, tmp_path).run(FAST_FNS, jobs=1)
        assert cold.ok
        faultinject.clear()
        heal = make_verifier(env, tmp_path).run(FAST_FNS, jobs=1)
        assert heal.ok and fingerprint(heal) == fingerprint(cold)
        assert heal.store_stats["corrupt"] == 1
        assert heal.store_stats["quarantined"] == 1


class TestEditedEnvelope:
    """``function`` and ``statuses`` sit outside the payload checksum;
    an envelope that no longer echoes its payload is corruption."""

    EDITS = [
        pytest.param({"function": "fn9", "statuses": ["refuted"]}, id="both"),
        pytest.param({"function": "fn9"}, id="function"),
        pytest.param({"statuses": ["refuted"]}, id="statuses"),
    ]

    def edit(self, store, fields):
        store.put(FP, "fn0", entries_for("fn0"))
        path = entry_file(store, FP)
        envelope = json.loads(path.read_text())
        envelope.update(fields)
        path.write_text(json.dumps(envelope, sort_keys=True) + "\n")
        return path

    @pytest.mark.parametrize("fields", EDITS)
    def test_heal_mode_quarantines_and_misses(self, tmp_path, fields):
        store = ProofStore(tmp_path)
        path = self.edit(store, fields)
        assert store.get(FP, context="fn0") is None
        assert not path.exists()
        assert len(list(store.quarantine_dir.iterdir())) == 1
        assert STORE_STATS["corrupt"] == STORE_STATS["quarantined"] == 1
        assert STORE_STATS["misses"] == 1 and STORE_STATS["hits"] == 0


class TestGrammar:
    def test_new_actions_parse(self):
        rules = faultinject.parse(
            "store.write@fn1:torn::1, store.read:ioerror, store.write:bitflip:7"
        )
        assert [r.action for r in rules] == ["torn", "ioerror", "bitflip"]
        assert rules[0].remaining == 1
        assert rules[2].arg == "7"

    def test_data_action_arg_must_be_int(self):
        with pytest.raises(ValueError, match="byte offset"):
            faultinject.parse("store.write:torn:half")

    def test_fire_ignores_data_actions(self):
        faultinject.install("store.write:torn")
        faultinject.fire("store.write", "fn0")  # inert through fire()
        assert faultinject._rules[0].remaining is None

    def test_corrupt_ignores_control_actions(self):
        faultinject.install("store.write:ioerror")
        data = b"x" * 64
        assert faultinject.corrupt("store.write", "fn0", data) == data

    def test_corrupt_torn_truncates(self):
        faultinject.install("store.write:torn:10")
        assert faultinject.corrupt("store.write", "f", b"y" * 64) == b"y" * 10

    def test_corrupt_bitflip_flips_one_bit(self):
        faultinject.install("store.write:bitflip:3")
        out = faultinject.corrupt("store.write", "f", b"\x00" * 8)
        assert out == b"\x00\x00\x00\x01\x00\x00\x00\x00"

    def test_corrupt_count_exhausts(self):
        faultinject.install("store.write:torn::1")
        assert faultinject.corrupt("store.write", "f", b"z" * 8) == b"z" * 4
        assert faultinject.corrupt("store.write", "f", b"z" * 8) == b"z" * 8

    def test_ioerror_fires(self):
        faultinject.install("s:ioerror:disk full")
        with pytest.raises(OSError, match="disk full"):
            faultinject.fire("s")
