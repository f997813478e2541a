"""End-to-end adversary integration: cross_check over real runs, the
report model, and fault-boundary degradation."""

import pytest

from repro import faultinject
from repro.adversary import AdversaryConfig, cross_check
from repro.adversary.report import AdversaryEntry, AdversaryReport
from repro.hybrid.pipeline import HybridEntry, HybridReport, HybridVerifier
from repro.rustlib.contracts import (
    LINKED_LIST_CONTRACTS,
    MANUAL_PURE_PRECONDITIONS,
)

CORPUS = [
    "LinkedList::new",
    "LinkedList::push_front_node",
    "LinkedList::pop_front_node",
    "LinkedList::front_mut",
]


@pytest.fixture(scope="module")
def ll_verifier(ll_env):
    program, ownables = ll_env
    hv = HybridVerifier(
        program,
        ownables,
        LINKED_LIST_CONTRACTS,
        manual_pure_pre=MANUAL_PURE_PRECONDITIONS,
    )
    hv.store = None
    return hv


@pytest.fixture(scope="module")
def verified_run(ll_verifier):
    report = ll_verifier.run(CORPUS)
    assert report.ok, report.render()
    return report


class TestCrossCheck:
    def test_all_confirmed_on_corpus(self, ll_verifier, verified_run):
        adv = cross_check(ll_verifier, verified_run, AdversaryConfig())
        assert adv.ok, adv.render()
        assert adv.status == "confirmed"
        assert {e.function for e in adv.entries} == set(CORPUS)
        for e in adv.entries:
            assert e.status == "confirmed", str(e)
            # Every verified function must be killed by some mutant.
            assert "killed by" in e.mutation, str(e)

    def test_fault_in_replay_degrades(self, ll_verifier, verified_run):
        faultinject.install("adversary.replay:raise")
        adv = cross_check(ll_verifier, verified_run, AdversaryConfig())
        assert not adv.ok
        assert adv.status == "cross_check_failed"
        assert all(e.status == "cross_check_failed" for e in adv.entries)
        assert any("fault injected" in e.replay for e in adv.entries)

    def test_fault_in_mutate_degrades(self, ll_verifier, verified_run):
        # The rule grammar splits on ":", so the match substring cannot
        # contain the path separator — a function-name fragment works.
        faultinject.install("adversary.mutate@front_mut:raise")
        adv = cross_check(ll_verifier, verified_run, AdversaryConfig())
        by_fn = {e.function: e for e in adv.entries}
        assert by_fn["LinkedList::front_mut"].status == "cross_check_failed"
        assert by_fn["LinkedList::new"].status == "confirmed"

    def test_fault_in_diff_degrades(self, ll_verifier, verified_run):
        faultinject.install("adversary.diff:raise")
        adv = cross_check(ll_verifier, verified_run, AdversaryConfig())
        assert adv.status == "cross_check_failed"

    def test_deadline_leaves_unchecked(self, ll_verifier, verified_run):
        adv = cross_check(
            ll_verifier, verified_run, AdversaryConfig(deadline=0.0)
        )
        # Nothing crashed; everything left over is reported unchecked.
        assert all(e.status == "unchecked" for e in adv.entries)
        assert adv.ok

    def test_non_checkable_statuses_skipped(self, ll_verifier):
        report = HybridReport(
            entries=[
                HybridEntry("f", "creusot", False, None, status="timeout"),
                HybridEntry("g", "creusot", False, None, status="crashed"),
            ]
        )
        adv = cross_check(ll_verifier, report, AdversaryConfig())
        assert all(e.status == "unchecked" for e in adv.entries)


class TestPipelineIntegration:
    """The cross-check runs after ``run`` on its finished report."""

    def test_cross_check_after_run(self, ll_verifier):
        report = ll_verifier.run(["LinkedList::new"])
        adv = cross_check(ll_verifier, report)
        assert report.ok and report.status == "verified"
        assert adv.ok and adv.status == "confirmed"
        assert "adversary cross-check" in adv.render()
        assert "adversary" not in report.render()

    def test_injected_fault_never_crashes_run(self, ll_verifier, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "adversary.replay:raise")
        faultinject.reload_env()
        report = ll_verifier.run(["LinkedList::new"])
        assert report.ok  # the fault sits in the cross-check only
        adv = cross_check(ll_verifier, report)
        assert not adv.ok
        assert adv.status == "cross_check_failed"
        assert adv.entries[0].status == "cross_check_failed"

    def test_internal_error_contained(self, ll_verifier, monkeypatch):
        """Even the orchestrator itself dying yields a report."""
        import repro.adversary as adv_mod

        def boom(*a, **k):
            raise RuntimeError("orchestrator bug")

        monkeypatch.setattr(adv_mod, "_group_entries", boom)
        report = ll_verifier.run(["LinkedList::new"])
        adv = cross_check(ll_verifier, report)
        assert adv.internal_error
        assert "orchestrator bug" in adv.internal_error
        assert adv.status == "cross_check_failed"
        assert not adv.ok
        assert report.ok


class TestReportModel:
    def test_severity_ordering(self):
        r = AdversaryReport(
            entries=[
                AdversaryEntry("a", "confirmed"),
                AdversaryEntry("b", "unchecked"),
            ]
        )
        assert r.status == "unchecked" and r.ok
        r.entries.append(AdversaryEntry("c", "suspect"))
        assert r.status == "suspect" and not r.ok
        r.entries.append(AdversaryEntry("d", "cross_check_failed"))
        assert r.status == "cross_check_failed"

    def test_bad_status_rejected(self):
        with pytest.raises(ValueError):
            AdversaryEntry("f", "fine")

    def test_mixed_status_render(self):
        r = HybridReport(
            entries=[
                HybridEntry("f", "creusot", True, None),
                HybridEntry("g", "gillian-rust", False, None, status="timeout"),
            ]
        )
        adv = AdversaryReport(
            entries=[
                AdversaryEntry("f", "confirmed", replay="2 runs clean"),
                AdversaryEntry("g", "unchecked", replay="not verified"),
                AdversaryEntry("h", "suspect", mutation="no mutant refuted"),
                AdversaryEntry(
                    "i", "cross_check_failed", diff="FLIP: verdicts differ"
                ),
            ]
        )
        assert "1 verified, 1 timeout" in r.render()
        text = adv.render()
        assert "adversary cross-check" in text
        assert "1 confirmed" in text and "1 suspect" in text
        assert "1 cross_check_failed" in text
        assert "NOT OK" in text

    def test_internal_error_render(self):
        r = AdversaryReport(internal_error="boom")
        assert not r.ok
        assert r.status == "cross_check_failed"
        assert "adversary layer failed: boom" in r.render()
