"""Cache roots written by the earlier, sharded store.

That store stamped a shard count into a ``layout`` JSON file at the
root and, at 4096 shards, kept its entries under three-hex-digit
directories (``entries/abc/<fp>.json``). The one-tier store ignores
the stamp: an entry outside ``entries/<fp[:2]>/`` is a miss, the run
re-verifies it and republishes at the fixed path. A stamp of 256 — the
``fp[:2]`` layout — changes nothing, so its entries still hit.
"""

import json

import pytest

from repro.hybrid.pipeline import HybridVerifier
from repro.store import ProofStore

from tests.robustness.conftest import FAST_FNS, fingerprint


def _run(env, root, jobs=1):
    return HybridVerifier(*env, {}, store=ProofStore(root)).run(
        FAST_FNS, jobs=jobs
    )


def _stamp(root, shards):
    """The earlier store's layout stamp."""
    root.joinpath("layout").with_suffix(".json").write_text(
        json.dumps({"shards": shards, "version": 1}) + "\n"
    )


def _regroup(root, width):
    """Move every entry file under a ``width``-hex-digit directory, as
    the sharded store's migration did; returns the new paths."""
    entries = root / "entries"
    old = sorted(entries.glob("*/*.json"))
    moved = []
    for src in old:
        dest = entries / src.stem[:width] / src.name
        dest.parent.mkdir(exist_ok=True)
        src.rename(dest)
        moved.append(dest)
    for d in {src.parent for src in old}:
        d.rmdir()
    return moved


@pytest.mark.parametrize("jobs", [1, 2])
def test_4096_root_reverifies_and_republishes(env, tmp_path, jobs):
    cold = _run(env, tmp_path / "cold", jobs)
    root = tmp_path / "legacy"
    _run(env, root, jobs)
    old = _regroup(root, 3)
    _stamp(root, 4096)
    assert len(old) == len(FAST_FNS)

    store = ProofStore(root)  # opens without error
    assert all(store.get(p.stem) is None for p in old)

    report = _run(env, root, jobs)
    n = len(FAST_FNS)
    assert report.store_stats["misses"] == n
    assert report.store_stats["hits"] == 0
    assert report.store_stats["stores"] == n
    assert fingerprint(report) == fingerprint(cold)
    for p in old:
        assert (root / "entries" / p.stem[:2] / p.name).exists()
    # The next run replays the republished entries.
    warm = _run(env, root, jobs)
    assert warm.store_stats["hits"] == n
    assert fingerprint(warm) == fingerprint(cold)


def test_256_stamp_is_ignored_and_entries_hit(env, tmp_path):
    cold = _run(env, tmp_path)
    _stamp(tmp_path, 256)
    warm = _run(env, tmp_path)
    assert warm.store_stats["hits"] == len(FAST_FNS)
    assert warm.store_stats["misses"] == 0
    assert fingerprint(warm) == fingerprint(cold)
