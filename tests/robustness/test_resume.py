"""Checkpoint/resume: a run killed mid-flight (``kill -9`` semantics —
no cleanup, no atexit, no flushed buffers) loses only its in-flight
functions. The next run resumes from the store's entry files,
re-verifies exactly the incomplete functions, and produces a report
identical to an uninterrupted run's.

The victim pipeline runs in a forked child process so the kill is
real process death, not a simulated exception unwinding the stack.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro import faultinject
from repro.gilsonite.ownable import OwnableRegistry
from repro.hybrid.pipeline import HybridVerifier
from repro.lang.mir import Program
from repro.parallel import fork_available
from repro.store import ProofStore

from tests.robustness.conftest import FAST_FNS, _fast_body, fingerprint

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="resume tests fork a victim process"
)


def fresh_env():
    program = Program()
    for n in FAST_FNS:
        program.add_body(_fast_body(n))
    return program, OwnableRegistry(program)


def run_victim(env, store_root, jobs):
    """Fork a child that runs the pipeline against the store; returns
    the joined Process (caller asserts on exitcode)."""
    program, ownables = env

    def victim():
        HybridVerifier(
            program, ownables, {}, store=ProofStore(store_root)
        ).run(FAST_FNS, jobs=jobs)
        os._exit(0)

    p = multiprocessing.get_context("fork").Process(target=victim)
    p.start()
    return p


def completed(store_root):
    """The functions with a published entry, from the envelopes'
    ``function`` field: the rename into ``entries/`` is the publish, so
    an entry file is never partly written."""
    return sorted(
        json.loads(path.read_text())["function"]
        for path in (store_root / "entries").rglob("*.json")
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_killed_run_resumes_with_identical_report(tmp_path, jobs):
    env = fresh_env()
    baseline = HybridVerifier(*env, {}).run(FAST_FNS, jobs=1)
    assert baseline.ok

    # The child dies via os._exit the moment fn2's verification starts:
    # kill -9 semantics, after some functions have been published.
    faultinject.install("pipeline.verify_one@fn2:crash")
    p = run_victim(env, tmp_path, jobs)
    p.join(timeout=120)
    assert p.exitcode == 1
    faultinject.clear()

    done = completed(tmp_path)
    assert "fn2" not in done  # the in-flight function
    if jobs == 1:
        # Serial order is deterministic: fn0 and fn1 made it.
        assert done == ["fn0", "fn1"]
    else:
        # Pool scheduling is not, but something completed and fn2 never.
        assert 1 <= len(done) <= 3

    store = ProofStore(tmp_path)
    resumed = HybridVerifier(*env, {}, store=store).run(FAST_FNS, jobs=jobs)
    assert fingerprint(resumed) == fingerprint(baseline)
    # Exactly the incomplete functions were re-verified.
    assert resumed.store_stats["hits"] == len(done)
    assert resumed.store_stats["misses"] == len(FAST_FNS) - len(done)
    assert resumed.store_stats["stores"] == len(FAST_FNS) - len(done)

    # And the run after that is pure replay.
    warm = HybridVerifier(*env, {}, store=ProofStore(tmp_path)).run(
        FAST_FNS, jobs=jobs
    )
    assert fingerprint(warm) == fingerprint(baseline)
    assert warm.store_stats["hits"] == len(FAST_FNS)


def test_sigkill_during_publish_resumes(tmp_path):
    """A literal SIGKILL, delivered from outside while the victim is
    inside the store's write path (the worst instant: entry durable
    for some functions, mid-publish for the next)."""
    env = fresh_env()
    baseline = HybridVerifier(*env, {}).run(FAST_FNS, jobs=1)

    # Stall fn2's publish long enough to land the kill inside it.
    faultinject.install("store.write@fn2:delay:30")
    p = run_victim(env, tmp_path, jobs=1)
    deadline = time.monotonic() + 60
    while len(completed(tmp_path)) < 2 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert len(completed(tmp_path)) >= 2
    os.kill(p.pid, signal.SIGKILL)
    p.join(timeout=60)
    assert p.exitcode == -signal.SIGKILL
    faultinject.clear()

    assert completed(tmp_path) == ["fn0", "fn1"]

    store = ProofStore(tmp_path)
    resumed = HybridVerifier(*env, {}, store=store).run(FAST_FNS, jobs=1)
    assert fingerprint(resumed) == fingerprint(baseline)
    assert resumed.store_stats["hits"] == 2
    assert resumed.store_stats["misses"] == 2
    # No torn entry: fn2 was staged in tmp/, never published.
    assert resumed.store_stats["corrupt"] == 0


def test_two_interrupted_runs_accumulate(tmp_path):
    """Resume composes: kill twice at different functions, and the
    third run still converges to the baseline report."""
    env = fresh_env()
    baseline = HybridVerifier(*env, {}).run(FAST_FNS, jobs=1)

    for target in ("fn1", "fn3"):
        faultinject.install(f"pipeline.verify_one@{target}:crash")
        p = run_victim(env, tmp_path, jobs=1)
        p.join(timeout=120)
        assert p.exitcode == 1
        faultinject.clear()

    assert completed(tmp_path) == ["fn0", "fn1", "fn2"]

    store = ProofStore(tmp_path)

    resumed = HybridVerifier(*env, {}, store=store).run(FAST_FNS, jobs=1)
    assert fingerprint(resumed) == fingerprint(baseline)
    assert resumed.store_stats["hits"] == 3
    assert resumed.store_stats["misses"] == 1
