"""Type-safety reuse across contract-only edits.

An unsafe function's ``#[show_safety]`` spec is built from its
signature, so its type-safety verdict depends on the body, the logic
context and the budget, never on a Pearlite contract. A verifier that
runs again after a contract edit keeps its deterministic type-safety
entries and re-runs only the functional obligation. These tests count
``verify_function`` calls through the ``symex`` phase, which forked
workers report back to the parent, so they hold at ``jobs=2`` too; and
after every step the statuses must equal a fresh store-less run's.
"""

import dataclasses

import pytest

import repro.rustlib.linked_list as ll
from repro import faultinject
from repro.budget import BudgetSpec
from repro.gilsonite.ownable import OwnableRegistry
from repro.hybrid.pipeline import HybridVerifier, entries_status
from repro.lang.builder import BodyBuilder
from repro.lang.mir import Program
from repro.lang.types import U64, USIZE
from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
from repro.rustlib.specs import install_callee_specs
from repro.store import ProofStore

from tests.robustness.conftest import DIVERGING, FAST_FNS, _diverging_body, _fast_body

OWN = {"ensures": ["result@ == x@"]}
EDITED = {"ensures": ["result@ == x@", "x@ >= 0"]}
REFUTING = {"ensures": ["result@ == x@ + 1"]}


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


def verifier(env, tmp_path, contracts, **kw):
    program, ownables = env
    return HybridVerifier(
        program, ownables, contracts, store=ProofStore(tmp_path / "cache"), **kw
    )


def symex_calls(report, name):
    """``verify_function`` calls for ``name`` in this run."""
    return report.phase_stats.get(name, {}).get("symex", {}).get("calls", 0)


def statuses(report):
    return {n: entries_status(es) for n, es in report.by_function().items()}


def fresh_statuses(hv, names):
    """A fresh store-less verifier over the same inputs."""
    return statuses(
        HybridVerifier(
            hv.program, hv.ownables, dict(hv.contracts), budget=hv.budget
        ).run(names)
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_contract_edit_reruns_only_the_functional_obligation(env, tmp_path, jobs):
    contracts = {n: OWN for n in FAST_FNS}
    hv = verifier(env, tmp_path, contracts)
    cold = hv.run(FAST_FNS, jobs=jobs)
    assert cold.ok and cold.safety_reused == 0
    assert all(symex_calls(cold, n) == 2 for n in FAST_FNS)

    for edit in (EDITED, REFUTING):
        contracts["fn1"] = edit
        report = hv.run(FAST_FNS, jobs=jobs)
        # Only fn1's key moved: the others are store hits, and fn1
        # runs one obligation, the functional one.
        assert report.outcomes["fn1"] == "verified"
        assert report.safety_reused == 1
        assert symex_calls(report, "fn1") == 1
        assert all(symex_calls(report, n) == 0 for n in FAST_FNS if n != "fn1")
        safety, functional = report.by_function()["fn1"]
        # The reused entry is the one the cold run produced.
        assert safety == cold.by_function()["fn1"][0]
        assert functional.note.startswith("functional")
        assert statuses(report) == fresh_statuses(hv, FAST_FNS)
    assert report.by_function()["fn1"][1].status == "refuted"
    assert "-- type safety: 1 reused from an earlier run --" in report.render(
        verbose=True
    )


def test_store_less_rerun_reuses_every_safety_entry(env, tmp_path):
    program, ownables = env
    contracts = {n: OWN for n in FAST_FNS}
    hv = HybridVerifier(program, ownables, contracts)
    hv.run(FAST_FNS)
    contracts["fn0"] = EDITED
    report = hv.run(FAST_FNS)
    assert report.safety_reused == len(FAST_FNS)
    assert all(symex_calls(report, n) == 1 for n in FAST_FNS)
    assert statuses(report) == fresh_statuses(hv, FAST_FNS)


def test_body_edit_reruns_both_obligations(env, tmp_path):
    program, _ = env
    hv = verifier(env, tmp_path, {"fn0": OWN})
    hv.run(["fn0"])
    fn = BodyBuilder("fn0", params=[("x", U64)], ret=U64)
    bb = fn.block()
    bb.nop()
    bb.assign(fn.ret_place, fn.binop("add", fn.copy("x"), fn.const_int(0, U64)))
    bb.ret()
    program.bodies["fn0"] = fn.finish()
    report = hv.run(["fn0"])
    assert report.safety_reused == 0 and symex_calls(report, "fn0") == 2
    assert statuses(report) == fresh_statuses(hv, ["fn0"])


def test_base_budget_change_reruns_both_obligations(env, tmp_path):
    contracts = {"fn0": OWN}
    hv = verifier(env, tmp_path, contracts)
    hv.run(["fn0"])
    hv.budget = BudgetSpec(deadline=60.0)
    report = hv.run(["fn0"])
    assert report.safety_reused == 0 and symex_calls(report, "fn0") == 2
    # Under the new budget, a contract edit reuses again.
    contracts["fn0"] = EDITED
    report = hv.run(["fn0"])
    assert report.safety_reused == 1 and symex_calls(report, "fn0") == 1
    assert statuses(report) == fresh_statuses(hv, ["fn0"])


def test_a_counting_budget_never_reuses(env, tmp_path):
    # Both obligations draw on one running budget, so under a step or
    # query limit the functional verdict depends on what type safety
    # spent: reuse would change it.
    contracts = {"fn0": OWN}
    hv = verifier(env, tmp_path, contracts, budget=BudgetSpec(max_steps=10_000))
    hv.run(["fn0"])
    contracts["fn0"] = EDITED
    report = hv.run(["fn0"])
    assert report.safety_reused == 0 and symex_calls(report, "fn0") == 2


def test_timeout_safety_entry_is_never_reused(env, tmp_path):
    contracts = {DIVERGING: OWN}
    hv = verifier(env, tmp_path, contracts, budget=BudgetSpec(deadline=0.2))
    cold = hv.run([DIVERGING])
    assert cold.by_function()[DIVERGING][0].status == "timeout"
    contracts[DIVERGING] = EDITED
    report = hv.run([DIVERGING])
    assert report.safety_reused == 0 and symex_calls(report, DIVERGING) == 2
    assert report.by_function()[DIVERGING][0].status == "timeout"


def test_error_safety_entry_is_never_reused(env, tmp_path):
    contracts = {"fn0": OWN}
    hv = verifier(env, tmp_path, contracts)
    faultinject.install("verifier.function@fn0:raise::1")
    cold = hv.run(["fn0"])
    faultinject.clear()
    assert [e.status for e in cold.entries] == ["error"]
    contracts["fn0"] = EDITED
    report = hv.run(["fn0"])
    assert report.safety_reused == 0 and symex_calls(report, "fn0") == 2
    assert report.ok


def test_a_refuted_safety_entry_is_reused(tmp_path):
    """A refutation is as deterministic as a proof: ``bad_new`` builds
    a list whose length field lies, which type safety rejects."""
    program, ownables = ll.build_program()
    fn = BodyBuilder("bad_new", params=[], ret=ll.LIST, generics=("T",))
    bb0 = fn.block()
    none = fn.temp(ll.OPT_NODE_PTR)
    bb0.assign(none, fn.aggregate(ll.OPT_NODE_PTR, [], variant=0))
    bb0.assign(
        fn.ret_place,
        fn.aggregate(ll.LIST, [fn.copy(none), fn.copy(none), fn.const_int(7, USIZE)]),
    )
    bb0.ret()
    program.add_body(fn.finish())
    contracts = {"bad_new": {"ensures": ["true"]}}
    hv = HybridVerifier(
        program, ownables, contracts, store=ProofStore(tmp_path / "cache")
    )
    cold = hv.run(["bad_new"])
    assert cold.by_function()["bad_new"][0].status == "refuted"
    contracts["bad_new"] = {"ensures": ["true", "1 == 1"]}
    report = hv.run(["bad_new"])
    assert report.safety_reused == 1 and symex_calls(report, "bad_new") == 1
    assert report.by_function()["bad_new"][0] == cold.by_function()["bad_new"][0]
    assert statuses(report) == fresh_statuses(hv, ["bad_new"])


def test_a_logic_edit_drops_every_safety_entry():
    # An installed spec is part of the logic context every type-safety
    # verdict may consult: replacing one re-runs both obligations.
    program, ownables = ll.build_program()
    install_callee_specs(program, ownables)
    hv = HybridVerifier(
        program, ownables, LINKED_LIST_CONTRACTS,
        manual_pure_pre=MANUAL_PURE_PRECONDITIONS,
    )
    name = "LinkedList::pop_front_node"
    hv.run([name])
    assert hv.run([name]).safety_reused == 1
    other = "LinkedList::push_front_node"
    spec = program.specs[other]
    program.specs[other] = dataclasses.replace(spec, trusted=not spec.trusted)
    report = hv.run([name])
    assert report.safety_reused == 0 and symex_calls(report, name) == 2
    assert report.ok and hv.run([name]).safety_reused == 1
