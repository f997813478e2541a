"""The fault-injection harness itself: parsing, matching, actions."""

import time

import pytest

from repro import faultinject
from repro.errors import InjectedFault, WorkerCrashed

# The synthetic sites this suite fires by hand; registering them keeps
# parse() from warning about rules that "may never fire" (they do —
# we fire them ourselves below).
for _site in ("s", "v", "other", "site", "anything"):
    faultinject.register_site(_site, "test-only synthetic site")


class TestParse:
    def test_basic_rule(self):
        [r] = faultinject.parse("solver.check_sat:raise")
        assert (r.site, r.match, r.action, r.arg, r.remaining) == (
            "solver.check_sat", "", "raise", "", None,
        )

    def test_full_rule(self):
        [r] = faultinject.parse("verifier.function@push:raise:WorkerCrashed:2")
        assert r.site == "verifier.function"
        assert r.match == "push"
        assert r.action == "raise"
        assert r.arg == "WorkerCrashed"
        assert r.remaining == 2

    def test_multiple_rules(self):
        rules = faultinject.parse(
            "engine.step@client:delay:0.01, parallel.worker:crash"
        )
        assert [r.action for r in rules] == ["delay", "crash"]

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown action"):
            faultinject.parse("site:explode")

    def test_store_site_rules(self):
        rules = faultinject.parse(
            "store.write@fn1:torn::1, store.read:ioerror, store.write:bitflip:7"
        )
        assert [(r.site, r.action) for r in rules] == [
            ("store.write", "torn"),
            ("store.read", "ioerror"),
            ("store.write", "bitflip"),
        ]

    def test_data_action_arg_must_be_an_offset(self):
        with pytest.raises(ValueError, match="byte offset"):
            faultinject.parse("store.write:bitflip:everywhere")

    def test_unknown_exception_rejected(self):
        with pytest.raises(ValueError, match="unknown exception"):
            faultinject.parse("site:raise:NoSuchError")

    def test_missing_action_rejected(self):
        with pytest.raises(ValueError, match="site:action"):
            faultinject.parse("just-a-site")

    def test_empty_spec(self):
        assert faultinject.parse("") == []
        faultinject.install("")
        assert not faultinject.active()

    def test_unknown_site_warns_but_keeps_the_rule(self):
        # A typo'd site must not silently test nothing.
        with pytest.warns(RuntimeWarning, match="not a registered"):
            [r] = faultinject.parse("store.wirte:torn")
        assert r.site == "store.wirte"  # kept: may register later

    def test_wildcard_site_never_warns(self):
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            faultinject.parse("*:raise")

    def test_registered_sites_cover_the_docstring_table(self):
        sites = faultinject.registered_sites()
        for expected in (
            "parallel.worker", "pipeline.verify_one", "store.write",
            "store.read", "service.accept", "service.dispatch",
            "service.invalidate", "service.drain",
        ):
            assert expected in sites

    def test_register_site_is_idempotent(self):
        faultinject.register_site("s", "should not clobber")
        assert faultinject.registered_sites()["s"] == (
            "test-only synthetic site"
        )


class TestFire:
    def test_inert_without_rules(self):
        faultinject.clear()
        faultinject.fire("solver.check_sat")  # no-op

    def test_raise_default_exception(self):
        faultinject.install("s:raise")
        with pytest.raises(InjectedFault, match="fault injected at s"):
            faultinject.fire("s")

    def test_raise_named_exception_with_context(self):
        faultinject.install("v:raise:WorkerCrashed")
        with pytest.raises(WorkerCrashed, match="my_fn"):
            faultinject.fire("v", "my_fn")

    def test_site_mismatch_is_inert(self):
        faultinject.install("other:raise")
        faultinject.fire("s")

    def test_wildcard_site(self):
        faultinject.install("*:raise")
        with pytest.raises(InjectedFault):
            faultinject.fire("anything")

    def test_context_match(self):
        faultinject.install("v@push:raise:RuntimeError")
        faultinject.fire("v", "pop_front")  # context mismatch: inert
        with pytest.raises(RuntimeError):
            faultinject.fire("v", "LinkedList::push_front")

    def test_count_exhausts(self):
        faultinject.install("s:raise::2")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                faultinject.fire("s")
        faultinject.fire("s")  # third firing: rule went inert

    def test_delay(self):
        faultinject.install("s:delay:0.05")
        t0 = time.perf_counter()
        faultinject.fire("s")
        assert time.perf_counter() - t0 >= 0.05

    def test_crash_skipped_in_parent_process(self):
        # The crash action only ever kills pool workers; in the parent
        # it must be skipped WITHOUT consuming the rule (the serial
        # retry of a crashed item relies on exactly this).
        faultinject.install("parallel.worker:crash:1:1")
        faultinject.fire("parallel.worker", "item")  # still alive
        assert faultinject._rules[0].remaining == 1

    def test_ioerror_action(self):
        faultinject.install("store.write:ioerror:ENOSPC")
        with pytest.raises(OSError, match="ENOSPC"):
            faultinject.fire("store.write", "fn0")

    def test_fire_and_corrupt_split_a_site(self):
        # One site can carry both kinds of rule; each helper consumes
        # only its own, so a single rule never fires twice.
        faultinject.install("store.write:torn:4, store.write:delay:0")
        faultinject.fire("store.write", "fn0")  # delay only
        assert faultinject.corrupt("store.write", "fn0", b"x" * 16) == b"x" * 4

    def test_reload_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "s:raise")
        faultinject.reload_env()
        assert faultinject.active()
        with pytest.raises(InjectedFault):
            faultinject.fire("s")
        monkeypatch.delenv("REPRO_FAULT")
        faultinject.reload_env()
        assert not faultinject.active()
