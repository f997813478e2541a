"""End-to-end verification of the LinkedList module — the paper's §6
evaluation as a test suite (experiments E1 and E2, the §7.3 observation
ablation E8 and the §4.2 guarded-predicate ablation E9), plus negative
controls ensuring the verifier rejects genuinely broken code."""

import pytest

import repro.rustlib.linked_list as ll
from repro.gillian.matcher import TacticStats
from repro.gillian.verifier import verify_function
from repro.gilsonite.specs import show_safety_spec
from repro.lang.builder import BodyBuilder
from repro.lang.types import USIZE, RefTy, option_ty
from repro.pearlite.encode import PearliteEncoder
from repro.pearlite.parser import parse_pearlite
from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
from repro.rustlib.linked_list import build_program
from repro.rustlib.specs import (
    functional_new,
    functional_pop_front_node,
    functional_push_front_node,
    install_callee_specs,
)
from repro.solver import Solver


@pytest.fixture(scope="module")
def env():
    program, ownables = build_program()
    install_callee_specs(program, ownables)
    return program, ownables, Solver()


E1_FUNCTIONS = [
    "LinkedList::new",
    "LinkedList::push_front",
    "LinkedList::pop_front",
    "LinkedList::front_mut",
]

E2_FUNCTIONS = [
    "LinkedList::new",
    "LinkedList::push_front_node",
    "LinkedList::pop_front_node",
]


def _encoded(program, ownables, name, manual=True):
    """The §5.4 encoding of ``name``'s Pearlite contract, with its
    manually extracted pure preconditions unless ``manual`` is off."""
    pure = MANUAL_PURE_PRECONDITIONS.get(name, []) if manual else []
    return PearliteEncoder(ownables).encode_contract(
        program.bodies[name],
        LINKED_LIST_CONTRACTS[name],
        manual_pure_pre=[parse_pearlite(p) for p in pure],
    )


class TestTypeSafetyE1:
    """§6: type safety of new, push_front, pop_front, front_mut."""

    @pytest.mark.parametrize("name", E1_FUNCTIONS)
    def test_verifies(self, env, name):
        program, ownables, solver = env
        result = verify_function(
            program, program.bodies[name], program.specs[name], solver
        )
        assert result.ok, [str(i) for i in result.issues]

    def test_internal_helpers_also_safe(self, env):
        program, ownables, solver = env
        for name in (
            "LinkedList::push_front_node",
            "LinkedList::pop_front_node",
        ):
            result = verify_function(
                program, program.bodies[name], program.specs[name], solver
            )
            assert result.ok, [str(i) for i in result.issues]

    def test_only_front_mut_needs_lemmas(self, env):
        """§6: no function other than front_mut requires additional
        annotations (the two lemmas are declared+applied manually)."""
        program, _, _ = env
        from repro.lang.mir import ApplyLemma, Ghost

        for name, expected in [
            ("LinkedList::new", 0),
            ("LinkedList::push_front", 0),
            ("LinkedList::pop_front", 0),
            ("LinkedList::front_mut", 2),
        ]:
            count = 0
            for bb in program.bodies[name].blocks.values():
                for st in bb.statements:
                    if isinstance(st, Ghost) and isinstance(st.ghost, ApplyLemma):
                        count += 1
            assert count == expected, name


class TestFunctionalCorrectnessE2:
    """§6: functional correctness of new, push_front_node,
    pop_front_node (the strongest specs expressible)."""

    def test_new(self, env):
        program, ownables, solver = env
        spec = functional_new(program, ownables)
        r = verify_function(program, program.bodies["LinkedList::new"], spec, solver)
        assert r.ok, [str(i) for i in r.issues]

    def test_push_front_node(self, env):
        program, ownables, solver = env
        spec = functional_push_front_node(program, ownables)
        r = verify_function(
            program, program.bodies["LinkedList::push_front_node"], spec, solver
        )
        assert r.ok, [str(i) for i in r.issues]

    def test_pop_front_node(self, env):
        program, ownables, solver = env
        spec = functional_pop_front_node(program, ownables)
        r = verify_function(
            program, program.bodies["LinkedList::pop_front_node"], spec, solver
        )
        assert r.ok, [str(i) for i in r.issues]

    @pytest.mark.parametrize("name", E2_FUNCTIONS)
    def test_encoded_contract(self, env, name):
        """The same table through the §5.4 encoding of the Pearlite
        contracts, with the manually extracted pure preconditions."""
        program, ownables, solver = env
        r = verify_function(
            program, program.bodies[name], _encoded(program, ownables, name), solver
        )
        assert r.ok, [str(i) for i in r.issues]

    def test_front_mut_has_no_functional_contract(self):
        """§7.1: front_mut's functional spec needs borrow extraction
        with prophecies, which neither the paper nor we implement."""
        assert LINKED_LIST_CONTRACTS["LinkedList::front_mut"] == {}

    def test_push_front_node_needs_extracted_precondition(self, env):
        """§7.3 / E8: without manually extracting the len < usize::MAX
        precondition from its observation, the overflow obligation
        cannot be discharged — whether the spec is built by hand or
        encoded from the Pearlite contract."""
        program, ownables, solver = env
        name = "LinkedList::push_front_node"
        for spec in (
            functional_push_front_node(
                program, ownables, with_extracted_precondition=False
            ),
            _encoded(program, ownables, name, manual=False),
        ):
            r = verify_function(program, program.bodies[name], spec, solver)
            assert not r.ok
            assert any("panic" in str(i) for i in r.issues)


class TestGuardedPredicateAutomationE9:
    """§4.2: the fold/unfold heuristics open and close the guarded
    borrows on their own. The counts are the steps a VeriFast-style
    tool would need as manual ghost annotations."""

    @pytest.mark.parametrize(
        "name, expected",
        [
            # (unfolds, gunfolds, gfolds, auto_updates)
            ("LinkedList::push_front_node", (8, 1, 2, 2)),
            ("LinkedList::pop_front_node", (4, 1, 3, 3)),
        ],
    )
    def test_automation_counts(self, env, name, expected):
        program, _, _ = env
        stats = TacticStats()
        r = verify_function(
            program, program.bodies[name], program.specs[name], Solver(),
            stats=stats,
        )
        assert r.ok, [str(i) for i in r.issues]
        got = (stats.unfolds, stats.gunfolds, stats.gfolds, stats.auto_updates)
        assert got == expected

    @pytest.mark.parametrize(
        "name, ok",
        [
            ("LinkedList::new", True),  # touches no borrow
            ("LinkedList::push_front_node", False),
            ("LinkedList::pop_front_node", False),
        ],
    )
    def test_without_automation(self, env, name, ok):
        """With the repair heuristics off, the borrow-opening proofs
        fail: the automation is load-bearing."""
        program, _, _ = env
        r = verify_function(
            program, program.bodies[name], program.specs[name], Solver(),
            auto_repair=False,
        )
        assert r.ok == ok


class TestNegativeControls:
    """The verifier must reject broken implementations."""

    def test_wrong_len_in_new(self, env):
        program, ownables, solver = env
        fn = BodyBuilder("bad_new", params=[], ret=ll.LIST, generics=("T",))
        bb0 = fn.block()
        t_none = fn.temp(ll.OPT_NODE_PTR)
        bb0.assign(t_none, fn.aggregate(ll.OPT_NODE_PTR, [], variant=0))
        bb0.assign(
            fn.ret_place,
            fn.aggregate(
                ll.LIST,
                [fn.copy(t_none), fn.copy(t_none), fn.const_int(7, USIZE)],
            ),
        )
        bb0.ret()
        program.add_body(fn.finish())
        spec = show_safety_spec(ownables, program.bodies["bad_new"])
        r = verify_function(program, program.bodies["bad_new"], spec, solver)
        assert not r.ok

    def test_fig7_invalid_node_extraction(self, env):
        """Fig. 7: returning &mut Node<T> (not &mut T) would let safe
        code create a cycle — the extraction must be rejected."""
        program, ownables, solver = env
        mut_node = RefTy(ll.NODE, mutable=True)
        ret_ty = option_ty(mut_node)
        fn = BodyBuilder(
            "first_node_mut", params=[("self", ll.MUT_LIST)], ret=ret_ty,
            generics=("T",),
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
        program.add_body(fn.finish())
        spec = show_safety_spec(ownables, program.bodies["first_node_mut"])
        r = verify_function(program, program.bodies["first_node_mut"], spec, solver)
        assert not r.ok

    def test_use_after_free_detected(self, env):
        """Double-free / use-after-free through the Box intrinsics."""
        program, ownables, solver = env
        fn = BodyBuilder("double_free", params=[("v", USIZE)], ret=USIZE)
        bb0 = fn.block()
        bb1 = fn.block("bb1")
        bb2 = fn.block("bb2")
        bb3 = fn.block("bb3")
        t_box = fn.local("t_box", ll.box_ty(USIZE))
        bb0.call(t_box, "Box::new", [fn.copy("v")], bb1, ty_args=[USIZE])
        t_unit = fn.local("t_unit", ll.UNIT)
        bb1.call(t_unit, "intrinsic::box_free", [fn.copy(t_box)], bb2, ty_args=[USIZE])
        t_unit2 = fn.local("t_unit2", ll.UNIT)
        bb2.call(t_unit2, "intrinsic::box_free", [fn.copy(t_box)], bb3, ty_args=[USIZE])
        bb3.assign(fn.ret_place, fn.copy("v"))
        bb3.ret()
        program.add_body(fn.finish())
        spec = show_safety_spec(ownables, program.bodies["double_free"])
        r = verify_function(program, program.bodies["double_free"], spec, solver)
        assert not r.ok

    def test_buggy_pop_forgets_prev_fixup(self, env):
        """pop that does not clear the new head's prev pointer breaks
        the dllSeg invariant and must not verify."""
        program, ownables, solver = env
        ret_ty = option_ty(ll.BOX_NODE)
        fn = BodyBuilder(
            "bad_pop", params=[("self", ll.MUT_LIST)], ret=ret_ty, generics=("T",)
        )
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
        # BUG: no prev fix-up, no tail fix-up, no len decrement.
        t_box = fn.local("t_box", ll.BOX_NODE)
        bb_some.assign(t_box, fn.cast(fn.copy(t_node), ll.BOX_NODE))
        bb_some.assign(
            fn.ret_place, fn.aggregate(ret_ty, [fn.copy(t_box)], variant=1)
        )
        bb_some.ret()
        program.add_body(fn.finish())
        spec = show_safety_spec(ownables, program.bodies["bad_pop"])
        r = verify_function(program, program.bodies["bad_pop"], spec, solver)
        assert not r.ok
