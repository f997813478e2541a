"""Tests for the hybrid pipeline (§2.1): safe half + unsafe half,
agreeing on the same Pearlite contracts."""

import pytest

import repro.rustlib.linked_list as ll
from repro.hybrid.pipeline import HybridVerifier
from repro.lang.builder import BodyBuilder
from repro.lang.types import UNIT, option_ty
from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
from repro.rustlib.linked_list import LIST, MUT_LIST, T, build_program
from repro.rustlib.specs import install_callee_specs
from repro.solver import Solver


def client_body():
    fn = BodyBuilder(
        "client::push_pop", params=[("x", T)], ret=option_ty(T),
        generics=("T",), is_safe=True,
    )
    bb0 = fn.block()
    bb1 = fn.block("bb1")
    bb2 = fn.block("bb2")
    bb3 = fn.block("bb3")
    l = fn.local("l", LIST)
    bb0.call(l, "LinkedList::new", [], bb1)
    r1 = fn.local("r1", MUT_LIST)
    bb1.assign(r1, fn.ref("l", mutable=True))
    u1 = fn.local("u1", UNIT)
    bb1.call(u1, "LinkedList::push_front", [fn.move(r1), fn.copy("x")], bb2)
    r2 = fn.local("r2", MUT_LIST)
    bb2.assign(r2, fn.ref("l", mutable=True))
    o = fn.local("o", option_ty(T))
    bb2.call(o, "LinkedList::pop_front", [fn.move(r2)], bb3)
    bb3.ghost_assert("match o { None => false, Some(v) => v == x }")
    bb3.assign(fn.ret_place, fn.copy("o"))
    bb3.ret()
    return fn.finish()


def lifo_client_body():
    """Push x, push y, pop: the popped value must be y."""
    fn = BodyBuilder(
        "client::push_push_pop", params=[("x", T), ("y", T)],
        ret=option_ty(T), generics=("T",), is_safe=True,
    )
    bbs = [fn.block() if i == 0 else fn.block(f"bb{i}") for i in range(5)]
    l = fn.local("l", LIST)
    bbs[0].call(l, "LinkedList::new", [], bbs[1])
    for i, arg in ((1, "x"), (2, "y")):
        r = fn.local(f"r{i}", MUT_LIST)
        bbs[i].assign(r, fn.ref("l", mutable=True))
        u = fn.local(f"u{i}", UNIT)
        bbs[i].call(u, "LinkedList::push_front", [fn.move(r), fn.copy(arg)], bbs[i + 1])
    r3 = fn.local("r3", MUT_LIST)
    bbs[3].assign(r3, fn.ref("l", mutable=True))
    o = fn.local("o", option_ty(T))
    bbs[3].call(o, "LinkedList::pop_front", [fn.move(r3)], bbs[4])
    bbs[4].ghost_assert("match o { None => false, Some(v) => v == y }")
    bbs[4].assign(fn.ret_place, fn.copy("o"))
    bbs[4].ret()
    return fn.finish()


@pytest.fixture(scope="module")
def env():
    program, ownables = build_program()
    install_callee_specs(program, ownables)
    program.add_body(client_body())
    program.add_body(lifo_client_body())
    return program, ownables


class TestDispatch:
    def test_safe_body_goes_to_creusot(self, env):
        program, ownables = env
        hv = HybridVerifier(
            program, ownables, LINKED_LIST_CONTRACTS,
            manual_pure_pre=MANUAL_PURE_PRECONDITIONS,
        )
        for client in ("client::push_pop", "client::push_push_pop"):
            entries = hv.verify_one(client)
            assert len(entries) == 1
            assert entries[0].half == "creusot"
            assert entries[0].ok, str(entries[0].detail.issues)

    def test_unsafe_body_goes_to_gillian(self, env):
        program, ownables = env
        hv = HybridVerifier(
            program, ownables, LINKED_LIST_CONTRACTS,
            manual_pure_pre=MANUAL_PURE_PRECONDITIONS,
        )
        entries = hv.verify_one("LinkedList::pop_front_node")
        halves = {e.half for e in entries}
        assert halves == {"gillian-rust"}
        # Both the type-safety and the functional (Pearlite) specs run.
        assert len(entries) == 2
        assert all(e.ok for e in entries), [str(e) for e in entries]

    def test_end_to_end_report(self, env):
        program, ownables = env
        hv = HybridVerifier(
            program, ownables, LINKED_LIST_CONTRACTS,
            manual_pure_pre=MANUAL_PURE_PRECONDITIONS,
        )
        report = hv.run(
            [
                "client::push_pop",
                "LinkedList::new",
                "LinkedList::push_front_node",
                "LinkedList::pop_front_node",
            ]
        )
        assert report.ok, report.render()
        rendered = report.render()
        assert "creusot" in rendered
        assert "gillian-rust" in rendered
        assert "ALL VERIFIED" in rendered

    def test_front_mut_type_safety_only(self, env):
        # §7.1: front_mut has no verifiable functional contract yet.
        program, ownables = env
        hv = HybridVerifier(
            program, ownables, LINKED_LIST_CONTRACTS,
            manual_pure_pre=MANUAL_PURE_PRECONDITIONS,
        )
        entries = hv.verify_one("LinkedList::front_mut")
        assert len(entries) == 1  # only the type-safety run
        assert entries[0].ok

    def test_auto_extract_mode(self, env):
        # With auto-extraction, the manual pure copies are unnecessary.
        program, ownables = env
        hv = HybridVerifier(
            program, ownables, LINKED_LIST_CONTRACTS, auto_extract=True
        )
        entries = hv.verify_one("LinkedList::push_front_node")
        assert all(e.ok for e in entries), [str(e) for e in entries]


def test_both_halves_read_a_replaced_contract():
    """A contract replaced in the verifier's table between runs reaches
    the Creusot half too: ``demo::mid`` (safe) assumes ``demo::leaf``'s
    contract at its call site, and a weakened one refutes it."""
    from repro.hybrid.pipeline import entries_status
    from repro.service.corpus import load_corpus

    corpus = load_corpus("demo")
    contracts = dict(corpus.contracts)
    hv = HybridVerifier(corpus.program, corpus.ownables, contracts, store=None)
    assert hv.run().ok
    contracts["demo::leaf"] = {"ensures": ["result >= x"]}
    report = hv.run()
    assert {n: entries_status(es) for n, es in report.by_function().items()} == {
        "demo::leaf": "verified", "demo::mid": "refuted",
        "demo::top": "verified", "demo::side": "verified",
    }
