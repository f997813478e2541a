"""Postcondition-only re-checks across contract edits.

The functional obligation reads its postcondition only in its last
stage (:mod:`repro.gillian.verifier`): stage A produces the
precondition, executes the body and closes every returning branch;
stage B consumes the postcondition against each exit state. A verifier
keeps each unsafe function's last clean stage A, keyed by everything
stage A reads, and an edit that moves none of it re-runs stage B alone
(``report.post_reused``, and no ``pre`` phase).

Every test ends where it started: the statuses equal a fresh
store-less run's.
"""

import re

import pytest

import repro.rustlib.linked_list as ll
from repro import faultinject
from repro.budget import BudgetSpec
from repro.gilsonite.ownable import OwnableRegistry
from repro.gilsonite.specs import show_safety_spec
from repro.hybrid.pipeline import HybridVerifier, entries_status
from repro.lang.builder import BodyBuilder
from repro.lang.mir import Program
from repro.lang.types import U64
from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
from repro.rustlib.specs import install_callee_specs

from tests.robustness.conftest import DIVERGING, FAST_FNS, _diverging_body, _fast_body

OWN = {"ensures": ["result@ == x@"]}
EDITED = {"ensures": ["result@ == x@", "x@ >= 0"]}
BROKEN = {"ensures": ["false"]}


@pytest.fixture(autouse=True)
def no_leaked_faults():
    faultinject.clear()
    yield
    faultinject.clear()


@pytest.fixture
def env():
    program = Program()
    for n in FAST_FNS:
        program.add_body(_fast_body(n))
    program.add_body(_diverging_body())
    return program, OwnableRegistry(program)


def verifier(env, contracts, **kw):
    """A store-less verifier: every run verifies every function, so a
    reuse shows on exactly the functions whose record still fits."""
    program, ownables = env
    return HybridVerifier(program, ownables, contracts, store=None, **kw)


def pre_calls(report, name):
    """Precondition productions for ``name`` in this run."""
    return report.phase_stats.get(name, {}).get("pre", {}).get("calls", 0)


def _scrub(text):
    return re.sub(r"#\d+", "#~", text)


def statuses(report):
    return {n: entries_status(es) for n, es in report.by_function().items()}


def fresh(hv, names, jobs=1):
    """A fresh store-less verifier's report over the same inputs."""
    return HybridVerifier(
        hv.program, hv.ownables, dict(hv.contracts),
        manual_pure_pre=dict(hv.manual_pure_pre), budget=hv.budget,
    ).run(names, jobs=jobs)


def test_ensures_only_edit_is_reused(env):
    contracts = {n: OWN for n in FAST_FNS}
    hv = verifier(env, contracts)
    cold = hv.run(FAST_FNS)
    assert cold.ok and cold.post_reused == 0
    assert all(pre_calls(cold, n) == 2 for n in FAST_FNS)

    contracts["fn1"] = EDITED
    report = hv.run(FAST_FNS)
    # Nothing stage A reads moved for any function: each re-checks
    # only its postcondition, and type safety is reused whole.
    assert report.post_reused == len(FAST_FNS)
    assert report.safety_reused == len(FAST_FNS)
    assert all(pre_calls(report, n) == 0 for n in FAST_FNS)
    assert "-- functional: 4 re-checked only the postcondition" in report.render(
        verbose=True
    )
    functional = report.by_function()["fn1"][1]
    assert functional.ok and functional.detail.branches == (
        cold.by_function()["fn1"][1].detail.branches
    )
    assert statuses(report) == statuses(fresh(hv, FAST_FNS))


def test_breaking_edit_is_refuted_like_a_fresh_run(env):
    contracts = {"fn0": OWN}
    hv = verifier(env, contracts)
    hv.run(["fn0"])
    contracts["fn0"] = BROKEN
    report = hv.run(["fn0"])
    assert report.post_reused == 1 and pre_calls(report, "fn0") == 0
    want = fresh(hv, ["fn0"])
    got = report.by_function()["fn0"][1]
    assert got.status == "refuted"
    assert [i.where for i in got.detail.issues] == ["postcondition"]
    # The same message, up to the fresh-variable counters in it.
    assert [_scrub(i.message) for i in got.detail.issues] == [
        _scrub(i.message) for i in want.by_function()["fn0"][1].detail.issues
    ]
    assert statuses(report) == statuses(want)
    # A refuted postcondition leaves the record: the exit states were
    # clean, and mending the clause re-checks only it.
    contracts["fn0"] = EDITED
    report = hv.run(["fn0"])
    assert report.ok and report.post_reused == 1


def _rerun(hv, names, edit):
    """Verify ``names``, apply ``edit``, verify again with a new
    postcondition, and return the second report."""
    hv.run(names)
    edit()
    for name in names:
        hv.contracts[name] = {**hv.contracts[name], "ensures": [
            *hv.contracts[name]["ensures"], "1 == 1",
        ]}
    return hv.run(names)


def assert_full_rerun(hv, report, name):
    assert report.post_reused == 0
    assert pre_calls(report, name) >= 1
    assert statuses(report) == statuses(fresh(hv, [name]))


def test_requires_edit_reruns_stage_a(env):
    hv = verifier(env, {"fn0": OWN})

    def edit():
        hv.contracts["fn0"] = {**OWN, "requires": ["x@ >= 0"]}

    report = _rerun(hv, ["fn0"], edit)
    # Type safety depends on no contract; stage A reads the requires.
    assert report.safety_reused == 1 and pre_calls(report, "fn0") == 1
    assert_full_rerun(hv, report, "fn0")


def test_body_edit_reruns_stage_a(env):
    program, _ = env
    hv = verifier(env, {"fn0": OWN})

    def edit():
        fn = BodyBuilder("fn0", params=[("x", U64)], ret=U64)
        bb = fn.block()
        bb.nop()
        bb.assign(fn.ret_place, fn.binop("add", fn.copy("x"), fn.const_int(0, U64)))
        bb.ret()
        program.bodies["fn0"] = fn.finish()

    report = _rerun(hv, ["fn0"], edit)
    assert report.safety_reused == 0 and pre_calls(report, "fn0") == 2
    assert_full_rerun(hv, report, "fn0")


def test_manual_pure_pre_change_reruns_stage_a(env):
    hv = verifier(env, {"fn0": OWN})

    def edit():
        hv.manual_pure_pre = {"fn0": ["x@ >= 0"]}

    report = _rerun(hv, ["fn0"], edit)
    assert_full_rerun(hv, report, "fn0")


def test_logic_edit_reruns_stage_a(env):
    program, ownables = env
    hv = verifier(env, {"fn0": OWN})

    def edit():
        program.specs["fn3"] = show_safety_spec(ownables, program.bodies["fn3"])

    report = _rerun(hv, ["fn0"], edit)
    assert report.safety_reused == 0 and pre_calls(report, "fn0") == 2
    assert_full_rerun(hv, report, "fn0")


def test_counting_budget_never_reuses(env):
    hv = verifier(env, {"fn0": OWN}, budget=BudgetSpec(max_steps=10_000))
    report = _rerun(hv, ["fn0"], lambda: None)
    assert_full_rerun(hv, report, "fn0")


def test_stage_a_timeout_is_never_recorded(env):
    # The diverging body exhausts its deadline inside symbolic
    # execution: no exit states exist, so none may stand in for it.
    hv = verifier(env, {DIVERGING: OWN}, budget=BudgetSpec(deadline=0.2))
    report = _rerun(hv, [DIVERGING], lambda: None)
    assert report.post_reused == 0 and pre_calls(report, DIVERGING) >= 1
    assert [e.status for e in report.entries] == ["timeout", "timeout"]


def test_callee_contract_edit_reruns_the_caller():
    program, ownables = ll.build_program()
    install_callee_specs(program, ownables)
    contracts = dict(LINKED_LIST_CONTRACTS)
    hv = HybridVerifier(
        program, ownables, contracts, manual_pure_pre=MANUAL_PURE_PRECONDITIONS,
        store=None,
    )
    caller, callee = "LinkedList::pop_front", "LinkedList::pop_front_node"
    hv.run([caller])
    assert hv.run([caller]).post_reused == 1
    base = contracts[callee]
    contracts[callee] = {**base, "ensures": [*base["ensures"], "1 == 1"]}
    report = hv.run([caller])
    assert report.post_reused == 0 and pre_calls(report, caller) == 1
    assert statuses(report) == statuses(fresh(hv, [caller]))


def test_jobs2_matches_a_fresh_run_and_keeps_only_parent_records(env):
    contracts = {n: OWN for n in FAST_FNS}
    hv = verifier(env, contracts)
    # Workers' records stay in the workers: nothing to reuse next.
    hv.run(FAST_FNS, jobs=2)
    contracts["fn0"] = EDITED
    report = hv.run(FAST_FNS, jobs=2)
    assert report.post_reused == 0
    assert statuses(report) == statuses(fresh(hv, FAST_FNS, jobs=2))
    # A serial run records in this process; forked workers inherit
    # the records and report their reuse back.
    hv.run(FAST_FNS)
    contracts["fn0"] = BROKEN
    report = hv.run(FAST_FNS, jobs=2)
    assert report.post_reused == len(FAST_FNS)
    assert statuses(report) == statuses(fresh(hv, FAST_FNS, jobs=2))
    assert statuses(report)["fn0"] == "refuted"


def test_distinct_requires_edits_keep_one_record_per_function(env):
    contracts = {n: OWN for n in FAST_FNS[:2]}
    hv = verifier(env, contracts)
    for k in range(10):
        contracts["fn0"] = {**OWN, "requires": [f"x@ >= {k}"]}
        report = hv.run(FAST_FNS[:2])
        # fn0's precondition moved every time; fn1's never did.
        assert report.post_reused == (0 if k == 0 else 1)
    kept = sorted(hv._kept)
    assert kept == [
        ("fn0", "post"), ("fn0", "safety"), ("fn1", "post"), ("fn1", "safety"),
    ]
    assert statuses(report) == statuses(fresh(hv, FAST_FNS[:2]))



def test_a_failed_stage_a_is_never_recorded(env):
    # ``x + 1`` may overflow: the functional obligation fails on a
    # panicking branch before any postcondition, and an edit of the
    # postcondition cannot mend that.
    program, _ = env
    fn = BodyBuilder("inc", params=[("x", U64)], ret=U64)
    bb = fn.block()
    bb.assign(fn.ret_place, fn.binop("add", fn.copy("x"), fn.const_int(1, U64)))
    bb.ret()
    program.add_body(fn.finish())
    hv = verifier(env, {"inc": {"ensures": ["result@ == x@ + 1"]}})
    report = _rerun(hv, ["inc"], lambda: None)
    assert report.post_reused == 0 and pre_calls(report, "inc") == 1
    functional = report.by_function()["inc"][1]
    assert functional.status == "refuted"
    assert "panic" in [i.where for i in functional.detail.issues]
    assert statuses(report) == statuses(fresh(hv, ["inc"]))
