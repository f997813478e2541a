"""SIGTERM mid-dispatch: the daemon finishes the chunk in flight,
answers what it never got to as drained, exits 0, and a restarted
daemon over the shared store misses on exactly the drained remainder
and answers the finished half from the store."""

import threading
import time


def _submit_in_background(daemon, out, jobs=1):
    def run():
        with daemon.client() as c:
            out["response"] = c.submit("demo", jobs=jobs)

    t = threading.Thread(target=run)
    t.start()
    return t


def _resume(subproc_daemon, cache):
    """A restarted daemon over ``cache``: the drained half misses and
    re-verifies, the finished half is answered from the store."""
    d2 = subproc_daemon(cache_dir=cache)
    with d2.client() as c:
        r2 = c.submit("demo")
        assert r2["ok"]
        assert sorted(r2["reverified"]) == ["demo::side", "demo::top"]
        assert sorted(r2["cached"]) == ["demo::leaf", "demo::mid"]


class TestSigtermSerial:
    def test_drain_and_resume(self, subproc_daemon, tmp_path):
        cache = tmp_path / "shared-cache"
        d = subproc_daemon(
            fault="pipeline.verify_one@mid:delay:1.5", cache_dir=cache
        )
        out = {}
        t = _submit_in_background(d, out)
        # leaf publishes fast; mid is the 1.5s chunk in flight when the
        # signal lands. The pause lets the dispatcher pass the stop
        # check before mid's chunk, which follows leaf's publish.
        d.wait_for_first_publish()
        time.sleep(0.3)
        d.sigterm()
        assert d.wait() == 0
        t.join(timeout=30)

        r = out["response"]
        assert not r["ok"]
        assert sorted(r["drained"]) == ["demo::side", "demo::top"]
        assert r["functions"]["demo::leaf"] == "verified"
        assert r["functions"]["demo::mid"] == "verified"  # chunk finished

        # Restart over the same store: only the drained half re-runs.
        _resume(subproc_daemon, cache)


class TestSigtermParallel:
    def test_drain_with_a_forked_pool(self, subproc_daemon, tmp_path):
        cache = tmp_path / "shared-cache"
        d = subproc_daemon(
            jobs=2, fault="pipeline.verify_one@mid:delay:1.5", cache_dir=cache
        )
        out = {}
        t = _submit_in_background(d, out, jobs=2)
        # Chunks at jobs=2 are [leaf, mid], [top, side]; the fault keeps
        # chunk 1 in flight long enough for the signal to land there.
        d.wait_for_first_publish()
        d.sigterm()
        assert d.wait() == 0  # clean exit, pool reaped, no orphans
        t.join(timeout=30)

        r = out["response"]
        assert not r["ok"]
        assert sorted(r["drained"]) == ["demo::side", "demo::top"]
        assert r["functions"]["demo::leaf"] == "verified"
        assert r["functions"]["demo::mid"] == "verified"
        _resume(subproc_daemon, cache)
