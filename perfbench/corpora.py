"""The programs the benchmark verifies, built from ``repro.rustlib``.

Three crates, each verified by its own ``HybridVerifier``:

* ``LinkedList`` — the five functions of ``examples/hybrid_client.py``
  (the safe client ``client::stack_lifo`` plus the unsafe core) and
  four negative controls from
  ``tests/gillian/test_linked_list_verification.py::TestNegativeControls``;
* ``RawStack`` — the user-defined raw-pointer stack's API;
* ``RawVec`` — the laid-out vector's API and two negative controls from
  ``tests/gillian/test_raw_vec.py::TestNegative``.

The negative controls are rebuilt here rather than imported from the
test suite, so the benchmark depends only on the library. Every
function's expected verdicts live in ``expected.json``.

Imported only by child processes: it pulls in the whole verifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import repro.rustlib.linked_list as ll
import repro.rustlib.raw_stack as rs
import repro.rustlib.raw_vec as rv
from repro.lang.builder import BodyBuilder
from repro.lang.types import UNIT, USIZE, RefTy, option_ty
from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
from repro.rustlib.specs import install_callee_specs


@dataclass
class Crate:
    """One program plus everything ``HybridVerifier`` needs for it."""

    program: object
    ownables: object
    contracts: dict
    manual_pure_pre: dict = field(default_factory=dict)


def linked_list_program():
    """The LinkedList program with callee specs installed (E1/E2)."""
    program, ownables = ll.build_program()
    install_callee_specs(program, ownables)
    return program, ownables


def _stack_lifo():
    """``client::stack_lifo``: push x, push y, pop, assert the pop is y."""
    fn = BodyBuilder(
        "client::stack_lifo", params=[("x", ll.T), ("y", ll.T)],
        ret=option_ty(ll.T), generics=("T",), is_safe=True,
    )
    bbs = [fn.block() if i == 0 else fn.block(f"bb{i}") for i in range(5)]
    lst = fn.local("l", ll.LIST)
    bbs[0].call(lst, "LinkedList::new", [], bbs[1])
    for i, arg in ((1, "x"), (2, "y")):
        r = fn.local(f"r{i}", ll.MUT_LIST)
        bbs[i].assign(r, fn.ref("l", mutable=True))
        u = fn.local(f"u{i}", UNIT)
        bbs[i].call(u, "LinkedList::push_front", [fn.move(r), fn.copy(arg)], bbs[i + 1])
    r3 = fn.local("r3", ll.MUT_LIST)
    bbs[3].assign(r3, fn.ref("l", mutable=True))
    top = fn.local("top", option_ty(ll.T))
    bbs[3].call(top, "LinkedList::pop_front", [fn.move(r3)], bbs[4])
    bbs[4].ghost_assert("match top { None => false, Some(v) => v == y }")
    bbs[4].assign(fn.ret_place, fn.copy("top"))
    bbs[4].ret()
    return fn.finish()


def _bad_new():
    """``new`` that sets ``len = 7`` on an empty list."""
    fn = BodyBuilder("bad_new", params=[], ret=ll.LIST, generics=("T",))
    bb0 = fn.block()
    t_none = fn.temp(ll.OPT_NODE_PTR)
    bb0.assign(t_none, fn.aggregate(ll.OPT_NODE_PTR, [], variant=0))
    bb0.assign(
        fn.ret_place,
        fn.aggregate(ll.LIST, [fn.copy(t_none), fn.copy(t_none), fn.const_int(7, USIZE)]),
    )
    bb0.ret()
    return fn.finish()


def _first_node_mut():
    """Fig. 7: hands out ``&mut Node<T>``, letting safe code make a cycle."""
    mut_node = RefTy(ll.NODE, mutable=True)
    ret_ty = option_ty(mut_node)
    fn = BodyBuilder(
        "first_node_mut", params=[("self", ll.MUT_LIST)], ret=ret_ty, generics=("T",)
    )
    bb0 = fn.block()
    bb0.apply_lemma("freeze_linked_list", fn.copy("self"))
    t_head = fn.local("t_head", ll.OPT_NODE_PTR)
    bb0.assign(t_head, fn.copy(fn.place("self").deref().field(ll.HEAD)))
    t_disc = fn.local("t_disc", USIZE)
    bb0.assign(t_disc, fn.discriminant(t_head))
    bb_none = fn.block("bb_none")
    bb_some = fn.block("bb_some")
    bb0.switch(fn.copy(t_disc), [(0, bb_none)], otherwise=bb_some)
    bb_none.assign(fn.ret_place, fn.aggregate(ret_ty, [], variant=0))
    bb_none.ret()
    bb_some.apply_lemma("extract_head_element", fn.copy("self"))
    t_node = fn.local("t_node", ll.NODE_PTR)
    bb_some.assign(t_node, fn.copy(fn.place("t_head").downcast(1).field(0)))
    t_ref = fn.local("t_ref", mut_node)
    bb_some.assign(t_ref, fn.ref(fn.place("t_node").deref(), mutable=True))
    bb_some.assign(fn.ret_place, fn.aggregate(ret_ty, [fn.copy(t_ref)], variant=1))
    bb_some.ret()
    return fn.finish()


def _double_free():
    """Frees the same box twice."""
    fn = BodyBuilder("double_free", params=[("v", USIZE)], ret=USIZE)
    bb0, bb1, bb2, bb3 = fn.block(), fn.block("bb1"), fn.block("bb2"), fn.block("bb3")
    t_box = fn.local("t_box", ll.box_ty(USIZE))
    bb0.call(t_box, "Box::new", [fn.copy("v")], bb1, ty_args=[USIZE])
    t_unit = fn.local("t_unit", UNIT)
    bb1.call(t_unit, "intrinsic::box_free", [fn.copy(t_box)], bb2, ty_args=[USIZE])
    t_unit2 = fn.local("t_unit2", UNIT)
    bb2.call(t_unit2, "intrinsic::box_free", [fn.copy(t_box)], bb3, ty_args=[USIZE])
    bb3.assign(fn.ret_place, fn.copy("v"))
    bb3.ret()
    return fn.finish()


def _bad_pop():
    """``pop_front_node`` without the prev/tail/len fix-up."""
    ret_ty = option_ty(ll.BOX_NODE)
    fn = BodyBuilder("bad_pop", params=[("self", ll.MUT_LIST)], ret=ret_ty, generics=("T",))
    bb0 = fn.block()
    self_list = fn.place("self").deref()
    t_head = fn.local("t_head", ll.OPT_NODE_PTR)
    bb0.assign(t_head, fn.copy(self_list.field(ll.HEAD)))
    t_disc = fn.local("t_disc", USIZE)
    bb0.assign(t_disc, fn.discriminant(t_head))
    bb_none = fn.block("bb_none")
    bb_some = fn.block("bb_some")
    bb0.switch(fn.copy(t_disc), [(0, bb_none)], otherwise=bb_some)
    bb_none.assign(fn.ret_place, fn.aggregate(ret_ty, [], variant=0))
    bb_none.ret()
    t_node = fn.local("t_node", ll.NODE_PTR)
    bb_some.assign(t_node, fn.copy(fn.place("t_head").downcast(1).field(0)))
    t_next = fn.local("t_next", ll.OPT_NODE_PTR)
    bb_some.assign(t_next, fn.copy(fn.place("t_node").deref().field(ll.NEXT)))
    bb_some.assign(self_list.field(ll.HEAD), fn.copy(t_next))
    t_box = fn.local("t_box", ll.BOX_NODE)
    bb_some.assign(t_box, fn.cast(fn.copy(t_node), ll.BOX_NODE))
    bb_some.assign(fn.ret_place, fn.aggregate(ret_ty, [fn.copy(t_box)], variant=1))
    bb_some.ret()
    return fn.finish()


def _raw_vec_bad_push():
    """``push`` that writes without checking ``len == cap``."""
    ret_ty = option_ty(rv.ELEM)
    fn = BodyBuilder(
        "RawVec::bad_push", params=[("self", rv.MUT_VEC), ("v", rv.ELEM)], ret=ret_ty
    )
    bb0 = fn.block()
    self_vec = fn.place("self").deref()
    t_len = fn.local("t_len", USIZE)
    bb0.assign(t_len, fn.copy(self_vec.field(rv.LEN)))
    t_buf = fn.local("t_buf", rv.BUF_PTR)
    bb0.assign(t_buf, fn.copy(self_vec.field(rv.BUF)))
    t_end = fn.local("t_end", rv.BUF_PTR)
    bb0.assign(t_end, fn.binop("offset", fn.copy(t_buf), fn.copy(t_len)))
    bb0.assign(fn.place("t_end").deref(), fn.move("v"))
    t_len2 = fn.local("t_len2", USIZE)
    bb0.assign(t_len2, fn.binop("add", fn.copy(t_len), fn.const_int(1, USIZE)))
    bb0.assign(self_vec.field(rv.LEN), fn.copy(t_len2))
    bb0.assign(fn.ret_place, fn.aggregate(ret_ty, [], variant=0))
    bb0.ret()
    return fn.finish()


def _raw_vec_bad_pop():
    """``pop`` that reads at ``len - 1`` without an emptiness check."""
    ret_ty = option_ty(rv.ELEM)
    fn = BodyBuilder("RawVec::bad_pop", params=[("self", rv.MUT_VEC)], ret=ret_ty)
    bb0 = fn.block()
    self_vec = fn.place("self").deref()
    t_len = fn.local("t_len", USIZE)
    bb0.assign(t_len, fn.copy(self_vec.field(rv.LEN)))
    t_len2 = fn.local("t_len2", USIZE)
    bb0.assign(t_len2, fn.binop("sub", fn.copy(t_len), fn.const_int(1, USIZE)))
    t_buf = fn.local("t_buf", rv.BUF_PTR)
    bb0.assign(t_buf, fn.copy(self_vec.field(rv.BUF)))
    t_end = fn.local("t_end", rv.BUF_PTR)
    bb0.assign(t_end, fn.binop("offset", fn.copy(t_buf), fn.copy(t_len2)))
    t_val = fn.local("t_val", rv.ELEM)
    bb0.assign(t_val, fn.move(fn.place("t_end").deref()))
    bb0.assign(self_vec.field(rv.LEN), fn.copy(t_len2))
    bb0.assign(fn.ret_place, fn.aggregate(ret_ty, [fn.move(t_val)], variant=1))
    bb0.ret()
    return fn.finish()


def build_crates() -> dict:
    """``{crate name: Crate}``; ``workloads.CRATES`` lists the functions."""
    program, ownables = linked_list_program()
    for body in (_stack_lifo(), _bad_new(), _first_node_mut(), _double_free(), _bad_pop()):
        program.add_body(body)
    linked_list = Crate(
        program, ownables, LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
    )

    program, ownables = rs.build_program()
    raw_stack = Crate(
        program, ownables, rs.RAW_STACK_CONTRACTS,
        {"RawStack::push": ["self@.len() < usize::MAX"]},
    )

    program, ownables = rv.build_program()
    program.add_body(_raw_vec_bad_push())
    program.add_body(_raw_vec_bad_pop())
    # bad_pop is checked against pop's contract, as in the test.
    contracts = {**rv.RAW_VEC_CONTRACTS, "RawVec::bad_pop": rv.RAW_VEC_CONTRACTS["RawVec::pop"]}
    raw_vec = Crate(program, ownables, contracts)
    return {"LinkedList": linked_list, "RawStack": raw_stack, "RawVec": raw_vec}
