"""SIGTERM mid-dispatch: the daemon finishes the functions in flight,
answers what it never handed out as drained, exits 0, and a restarted
daemon over the shared store misses on exactly the drained remainder
and answers the finished rest from the store."""

import threading
import time


def _submit_in_background(daemon, out, jobs=1):
    def run():
        with daemon.client() as c:
            out["response"] = c.submit("demo", jobs=jobs)

    t = threading.Thread(target=run)
    t.start()
    return t


def _resume(subproc_daemon, cache, drained):
    """A restarted daemon over ``cache``: the ``drained`` functions
    miss and re-verify, the rest is answered from the store."""
    d2 = subproc_daemon(cache_dir=cache)
    with d2.client() as c:
        r2 = c.submit("demo")
        assert r2["ok"]
        assert sorted(r2["reverified"]) == drained
        assert sorted(r2["cached"]) == sorted(
            set(r2["functions"]) - set(drained)
        )


class TestSigtermSerial:
    def test_drain_and_resume(self, subproc_daemon, tmp_path):
        cache = tmp_path / "shared-cache"
        d = subproc_daemon(
            fault="pipeline.verify_one@mid:delay:1.5", cache_dir=cache
        )
        out = {}
        t = _submit_in_background(d, out)
        # leaf publishes fast; mid is the 1.5s function in flight when
        # the signal lands. The pause lets the dispatcher pass the stop
        # check before mid, which follows leaf's publish.
        d.wait_for_first_publish()
        time.sleep(0.3)
        d.sigterm()
        assert d.wait() == 0
        t.join(timeout=30)

        r = out["response"]
        assert not r["ok"]
        assert sorted(r["drained"]) == ["demo::side", "demo::top"]
        assert r["functions"]["demo::leaf"] == "verified"
        assert r["functions"]["demo::mid"] == "verified"  # in flight

        # Restart over the same store: only the drained half re-runs.
        _resume(subproc_daemon, cache, ["demo::side", "demo::top"])


class TestSigtermParallel:
    def test_drain_with_a_forked_pool(self, subproc_daemon, tmp_path):
        cache = tmp_path / "shared-cache"
        d = subproc_daemon(
            jobs=2,
            fault="pipeline.verify_one@mid:delay:1.5,"
            "pipeline.verify_one@top:delay:1.5",
            cache_dir=cache,
        )
        out = {}
        t = _submit_in_background(d, out, jobs=2)
        # Two in flight, handed out in order leaf, mid, top, side: leaf
        # publishes fast and frees its slot for top, so mid and top are
        # the 1.5s functions in flight when the signal lands, and side
        # is the one never handed out. The pause lets the dispatcher
        # hand out top, which follows leaf's publish.
        d.wait_for_first_publish()
        time.sleep(0.3)
        d.sigterm()
        assert d.wait() == 0  # clean exit, pool reaped, no orphans
        t.join(timeout=30)

        r = out["response"]
        assert not r["ok"]
        assert r["drained"] == ["demo::side"]
        for name in ("demo::leaf", "demo::mid", "demo::top"):
            assert r["functions"][name] == "verified"
        _resume(subproc_daemon, cache, ["demo::side"])
