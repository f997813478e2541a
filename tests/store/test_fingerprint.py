"""Fingerprint stability and sensitivity.

The store is only as sound as its keys: a fingerprint must be
*stable* across processes and rebuilds of the same program (else the
cache never hits) and *sensitive* to every input the proof depends on
(else it serves stale proofs). Both directions are tested here.
"""

from dataclasses import replace

from repro.budget import BudgetSpec
from repro.gilsonite.ownable import OwnableRegistry
from repro.gilsonite.specs import show_safety_spec
from repro.lang.builder import BodyBuilder
from repro.lang.mir import Program
from repro.lang.pretty import pretty_body
from repro.lang.types import U64, UNIT
from repro.store import canon, function_fingerprint, logic_digest

from tests.robustness.conftest import FAST_FNS, _fast_body


def build(ret_const: int = 0):
    program = Program()
    for n in FAST_FNS:
        program.add_body(_fast_body(n))
    fn = BodyBuilder("caller", params=[("x", U64)], ret=U64)
    bb0 = fn.block()
    bb1 = fn.block("bb1")
    r = fn.local("r", U64)
    bb0.call(r, "fn0", [fn.copy("x")], bb1)
    bb1.assign(
        fn.ret_place, fn.binop("add", fn.copy(r), fn.const_int(ret_const, U64))
    )
    bb1.ret()
    program.add_body(fn.finish())
    return program


def fp(program, name="caller", **kw):
    return function_fingerprint(name, program=program, **kw)


class TestStability:
    def test_same_program_same_fingerprint(self):
        assert fp(build()) == fp(build())

    def test_stable_across_unrelated_fresh_vars(self):
        # Global fresh-variable counters must not leak into the key:
        # burning a few thousand between builds changes nothing.
        a = fp(build())
        from repro.solver.sorts import INT
        from repro.solver.terms import fresh_var

        for _ in range(1000):
            fresh_var("noise", INT)
        assert fp(build()) == a

    def test_logic_digest_ignores_lazy_own_predicates(self, env):
        # Verification synthesises own:*/mutref_inv:* predicates on
        # demand; the digest must not depend on which proofs ran.
        program, ownables = env
        before = logic_digest(program, ownables)
        ownables.ensure_own(U64)
        assert "own:u64" in program.predicates
        assert logic_digest(program, ownables) == before

    def test_logic_digest_ignores_lemma_synthesised_predicates(self):
        # front_mut's freezing lemma defines ll_frozen on first use.
        from repro.rustlib.contracts import LINKED_LIST_CONTRACTS
        from repro.rustlib.linked_list import build_program
        from repro.hybrid.pipeline import HybridVerifier

        program, ownables = build_program()
        before = logic_digest(program, ownables)
        HybridVerifier(program, ownables, LINKED_LIST_CONTRACTS).run(
            ["LinkedList::front_mut"]
        )
        assert "ll_frozen" in program.predicates
        assert logic_digest(program, ownables) == before

    def test_canon_scrubs_addresses_and_counters_in_reprs(self):
        class Opaque:
            pass

        a, b = canon(Opaque()), canon(Opaque())
        assert a == b  # differing 0x addresses scrubbed
        assert canon(Opaque()) != canon(object())  # ...but not the type


class TestSensitivity:
    def test_body_change_changes_fingerprint(self):
        assert fp(build(0)) != fp(build(1))

    def test_plain_strings_hash_verbatim(self):
        # Spec source fragments are data: two contracts differing only
        # in a hex constant or a '#N' fragment must not collide.
        assert canon("x@ < 0x10") != canon("x@ < 0x20")
        assert canon("sv_x#17") != canon("sv_x#99")

    def test_deep_structures_hash_their_leaves(self):
        # No depth cap: graphs that differ only far below the surface
        # must still canonicalise differently (truncating to a constant
        # token made every deep contract collide — a stale-hit vector).
        def nest(leaf, levels):
            for _ in range(levels):
                leaf = {"ensures": [leaf]}
            return leaf

        assert canon(nest("a", 40)) != canon(nest("b", 40))
        assert canon(nest("a", 40)) == canon(nest("a", 40))
        assert canon(nest("a", 40)) != canon(nest("a", 41))

    def test_deep_pearlite_spec_leaves_distinguish(self):
        # Regression: PearliteSpec ensures terms nested beyond the old
        # depth cap of 12 used to truncate to a constant token, so two
        # contracts differing only in a deep leaf constant collided —
        # and a changed contract replayed the stale cached verdict.
        from repro.pearlite.ast import PBin, PInt, PearliteSpec

        def deep_spec(leaf):
            t = PInt(leaf)
            for _ in range(14):
                t = PBin("+", t, PInt(0))
            return PearliteSpec(ensures=(t,))

        assert canon(deep_spec(1)) != canon(deep_spec(2))
        assert canon(deep_spec(1)) == canon(deep_spec(1))

    def test_very_deep_structures_do_not_overflow(self):
        deep = "leaf"
        for _ in range(50_000):
            deep = [deep]
        assert canon(deep).endswith("s:leaf|" + "]|" * 49_999 + "]")

    def test_deep_cycles_are_detected(self):
        loop: list = ["x"]
        loop.append(loop)
        assert "<cycle>" in canon(loop)
        assert canon(loop) == canon(loop)

    def test_own_contract_changes_fingerprint(self):
        p = build()
        base = fp(p)
        with_contract = fp(p, contracts={"caller": {"ensures": ["result@ >= 0"]}})
        assert base != with_contract

    def test_callee_contract_changes_fingerprint(self):
        # The axioms a proof assumes are part of its identity: a new
        # contract on callee fn0 must invalidate caller's entry...
        p = build()
        base = fp(p)
        assert base != fp(p, contracts={"fn0": {"ensures": ["result@ == x@"]}})
        # ...but a contract on an unrelated function must not.
        assert base == fp(p, contracts={"fn3": {"ensures": ["true"]}})

    def test_callee_installed_spec_changes_fingerprint(self):
        # A callee's installed Gilsonite spec reaches the caller's key
        # through the logic digest, which hashes every installed spec.
        p = build()
        spec = show_safety_spec(OwnableRegistry(p), p.bodies["fn0"])
        p.specs["fn0"] = spec
        before, logic = fp(p), logic_digest(p)
        p.specs["fn0"] = replace(spec, trusted=True)
        assert logic_digest(p) != logic
        assert fp(p) != before
        assert fp(p, logic=logic_digest(p)) == fp(p) != fp(p, logic=logic)

    def test_budget_changes_fingerprint(self):
        p = build()
        assert fp(p, budget=BudgetSpec(max_branches=10)) != fp(
            p, budget=BudgetSpec(max_branches=1000)
        )
        assert fp(p, budget=BudgetSpec(max_branches=10)) == fp(
            p, budget=BudgetSpec(max_branches=10)
        )

    def test_encoder_config_changes_fingerprint(self):
        p = build()
        assert fp(p, auto_extract=True) != fp(p, auto_extract=False)
        assert fp(p, manual_pure_pre={"caller": ["x@ < 100"]}) != fp(p)

    def test_given_body_text_is_the_printed_body(self):
        p = build()
        text = pretty_body(p.bodies["caller"])
        assert fp(p, body_text=text) == fp(p)
        assert fp(p, body_text=text + "\n") != fp(p)

    def test_functions_do_not_share_fingerprints(self):
        p = build()
        fps = {function_fingerprint(n, program=p) for n in p.bodies}
        assert len(fps) == len(p.bodies)
