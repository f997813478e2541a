"""Tests for the systematic Pearlite → Gilsonite encoding (§5.4, E3)."""

import pytest

import repro.rustlib.linked_list as ll
from repro.gilsonite.ast import AliveLft, Exists, Observation, Pred, Pure, Star, iter_parts
from repro.pearlite.encode import EncodeError, PearliteEncoder, _Binding
from repro.pearlite.parser import parse_pearlite
from repro.rustlib.linked_list import build_program
from repro.solver import Solver
from repro.solver.sorts import INT, OptionSort, SeqSort
from repro.solver.terms import (
    Var,
    eq,
    intlit,
    is_some,
    ite,
    lt,
    seq_cons,
    seq_empty,
    seq_len,
    some,
    some_val,
    tuple_get,
    tuple_mk,
)


@pytest.fixture(scope="module")
def env():
    program, ownables = build_program()
    return program, ownables, PearliteEncoder(ownables)


class TestTermEncoding:
    def test_model_of_mut_ref_is_fst(self, env):
        _, ownables, enc = env
        m = Var("m", ownables.repr_sort(ll.MUT_LIST))
        penv = {"self": _Binding(m, True)}
        t = enc.encode_term(parse_pearlite("self@"), penv)
        assert t == tuple_get(m, 0)

    def test_final_model_is_snd(self, env):
        _, ownables, enc = env
        m = Var("m", ownables.repr_sort(ll.MUT_LIST))
        penv = {"self": _Binding(m, True)}
        t = enc.encode_term(parse_pearlite("(^self)@"), penv)
        assert t == tuple_get(m, 1)

    def test_owned_model_is_identity(self, env):
        _, ownables, enc = env
        m = Var("m", ownables.repr_sort(ll.T))
        penv = {"x": _Binding(m, False)}
        assert enc.encode_term(parse_pearlite("x@"), penv) == m

    def test_seq_empty_from_context(self, env):
        _, ownables, enc = env
        m = Var("m", SeqSort(INT))
        penv = {"s": _Binding(m, False)}
        t = enc.encode_term(parse_pearlite("s == Seq::EMPTY"), penv)
        assert t == eq(m, seq_empty(INT))

    def test_seq_cons_and_len(self, env):
        _, ownables, enc = env
        m = Var("m", SeqSort(INT))
        x = Var("x", INT)
        penv = {"s": _Binding(m, False), "x": _Binding(x, False)}
        t = enc.encode_term(parse_pearlite("Seq::cons(x, s).len()"), penv)
        solver = Solver()
        from repro.solver.terms import add

        assert solver.entails([], eq(t, add(seq_len(m), intlit(1))))

    def test_usize_max(self, env):
        _, ownables, enc = env
        t = enc.encode_term(parse_pearlite("usize::MAX"), {})
        assert t == intlit(2**64 - 1)

    def test_match_option_becomes_ite(self, env):
        _, ownables, enc = env
        o = Var("o", OptionSort(INT))
        y = Var("y", INT)
        penv = {"o": _Binding(o, False), "y": _Binding(y, False)}
        t = enc.encode_term(
            parse_pearlite("match o { None => false, Some(v) => v == y }"), penv
        )
        assert t == ite(is_some(o), eq(some_val(o), y), __import__("repro.solver.terms", fromlist=["FALSE"]).FALSE)

    def test_some_constructor(self, env):
        _, ownables, enc = env
        o = Var("o", OptionSort(INT))
        y = Var("y", INT)
        penv = {"o": _Binding(o, False), "y": _Binding(y, False)}
        t = enc.encode_term(parse_pearlite("o == Some(y)"), penv)
        assert t == eq(o, some(y))

    def test_unbound_variable_rejected(self, env):
        _, ownables, enc = env
        with pytest.raises(EncodeError):
            enc.encode_term(parse_pearlite("nope@"), {})

    def test_final_of_owned_rejected(self, env):
        _, ownables, enc = env
        m = Var("m", INT)
        with pytest.raises(EncodeError):
            enc.encode_term(parse_pearlite("^x"), {"x": _Binding(m, False)})


class TestContractEncoding:
    """E3: the §5.4 elaboration applied to the paper's pop_front spec."""

    def test_pop_front_node_shape(self, env):
        program, ownables, enc = env
        body = program.bodies["LinkedList::pop_front_node"]
        spec = enc.encode_contract(
            body,
            {
                "ensures": [
                    "match result { None => (^self)@ == Seq::EMPTY, "
                    "Some(x) => self@ == Seq::cons(x@, (^self)@) }"
                ]
            },
        )
        # Pre: token * ownership of self with a named repr; no
        # observation, since there is no requires clause.
        pre_parts = list(iter_parts(spec.pre))
        assert sum(isinstance(p, AliveLft) for p in pre_parts) == 1
        own_parts = [p for p in pre_parts if isinstance(p, Pred)]
        assert len(own_parts) == 1 and own_parts[0].name.startswith("own:&")
        assert not any(isinstance(p, Observation) for p in pre_parts)
        # Post: token * ∃m_ret. ownership of result * the observation.
        post_parts = list(iter_parts(spec.post))
        assert sum(isinstance(p, AliveLft) for p in post_parts) == 1
        ex = [p for p in post_parts if isinstance(p, Exists)]
        assert len(ex) == 1, "post must quantify the result repr once"
        inner = list(iter_parts(ex[0].body))
        assert any(isinstance(p, Observation) for p in inner)
        assert any(isinstance(p, Pred) and p.name.startswith("own:Option") for p in inner)
        # The forall row: the lifetime plus one repr value per parameter.
        assert len(spec.forall) == 1 + len(body.params)

    def test_requires_becomes_observation(self, env):
        program, ownables, enc = env
        body = program.bodies["LinkedList::push_front_node"]
        spec = enc.encode_contract(
            body, {"requires": ["self@.len() < usize::MAX"]}
        )
        pre_parts = list(iter_parts(spec.pre))
        assert any(isinstance(p, Observation) for p in pre_parts)
        # Not extracted by default (§7.3: hidden inside the observation).
        assert not any(isinstance(p, Pure) for p in pre_parts)

    def test_auto_extract_adds_pure_copy(self, env):
        program, ownables, enc = env
        body = program.bodies["LinkedList::push_front_node"]
        spec = enc.encode_contract(
            body, {"requires": ["self@.len() < usize::MAX"]}, auto_extract=True
        )
        pre_parts = list(iter_parts(spec.pre))
        assert any(isinstance(p, Pure) for p in pre_parts)

    def test_prophetic_requires_not_extracted(self, env):
        program, ownables, enc = env
        body = program.bodies["LinkedList::pop_front_node"]
        spec = enc.encode_contract(
            body,
            {"requires": ["(^self)@.len() < usize::MAX"]},
            auto_extract=True,
        )
        # Depends on ^: must stay inside the observation (§7.3's rule
        # only extracts prophecy-independent knowledge).
        pre_parts = list(iter_parts(spec.pre))
        assert not any(isinstance(p, Pure) for p in pre_parts)
