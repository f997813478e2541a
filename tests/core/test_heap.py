"""Tests for the Rust symbolic heap: load/store/alloc/free, moves,
structural expansion, points-to consume/produce (§3.2–3.3)."""

import pytest

from repro.core.address import ptr_field, ptr_offset
from repro.core.heap.heap import SymbolicHeap
from repro.core.heap.laidout import LaidOutNode, SeqContent, Entry, UninitContent
from repro.core.heap.structural import MISSING, UNINIT, HeapCtx, SingleNode
from repro.lang.types import (
    U32,
    U64,
    USIZE,
    AdtTy,
    ParamTy,
    RawPtrTy,
    TypeRegistry,
    option_ty,
    struct_def,
)
from repro.solver import Solver
from repro.solver.sorts import INT, LOC, SeqSort
from repro.solver.terms import (
    Var,
    add,
    eq,
    intlit,
    is_some,
    le,
    lt,
    none,
    not_,
    seq_len,
    some,
    tuple_mk,
)


@pytest.fixture()
def registry():
    reg = TypeRegistry()
    reg.define(struct_def("Pair", [("a", U32), ("b", U64)]))
    node_t = AdtTy("Node", (ParamTy("T"),))
    reg.define(
        struct_def(
            "Node",
            [
                ("elem", ParamTy("T")),
                ("next", option_ty(RawPtrTy(node_t))),
                ("prev", option_ty(RawPtrTy(node_t))),
            ],
            params=("T",),
        )
    )
    return reg


@pytest.fixture()
def ctx(registry):
    return HeapCtx(registry, Solver(), ())


def ok(outcomes):
    good = [o for o in outcomes if o.error is None]
    assert good, f"all branches failed: {[str(o.error) for o in outcomes]}"
    return good


class TestAllocLoadStore:
    def test_alloc_store_load(self, ctx):
        heap = SymbolicHeap()
        heap, p = heap.alloc_typed(U64)
        [st] = ok(heap.store(p, U64, intlit(42), ctx))
        [ld] = ok(st.heap.load(p, U64, ctx))
        assert ld.value == intlit(42)

    def test_load_uninit_is_ub(self, ctx):
        heap = SymbolicHeap()
        heap, p = heap.alloc_typed(U64)
        [out] = heap.load(p, U64, ctx)
        assert out.error is not None
        assert out.error.kind == "undefined-behaviour"

    def test_move_deinitialises(self, ctx):
        # §3.2: loading in move context deinitialises the memory.
        heap = SymbolicHeap()
        heap, p = heap.alloc_typed(U64)
        [st] = ok(heap.store(p, U64, intlit(7), ctx))
        [mv] = ok(st.heap.load(p, U64, ctx, move=True))
        [again] = mv.heap.load(p, U64, ctx)
        assert again.error is not None
        assert again.error.kind == "undefined-behaviour"

    def test_store_validity_checked(self, ctx):
        heap = SymbolicHeap()
        heap, p = heap.alloc_typed(U32)
        [out] = heap.store(p, U32, intlit(2**32), ctx)  # out of range
        assert out.error is not None
        assert "validity" in out.error.message

    def test_load_assumes_validity(self, ctx, registry):
        heap = SymbolicHeap()
        heap, p = heap.alloc_typed(U32)
        v = Var("v", INT)
        vctx = HeapCtx(registry, ctx.solver, (le(intlit(0), v), lt(v, intlit(2**32))))
        [st] = ok(heap.store(p, U32, v, vctx))
        [ld] = ok(st.heap.load(p, U32, vctx))
        # The facts must bound the loaded value by the u32 range.
        assert any("4294967295" in str(f) for f in ld.facts)

    def test_missing_allocation(self, ctx):
        heap = SymbolicHeap()
        q = Var("q", LOC)
        [out] = heap.load(q, U64, ctx)
        assert out.error.kind == "missing-resource"


class TestStructAccess:
    def test_store_load_field(self, ctx, registry):
        pair = AdtTy("Pair")
        heap = SymbolicHeap()
        heap, p = heap.alloc_typed(pair)
        pa = ptr_field(p, pair, 0)
        pb = ptr_field(p, pair, 1)
        [s1] = ok(heap.store(pa, U32, intlit(1), ctx))
        [s2] = ok(s1.heap.store(pb, U64, intlit(2), ctx))
        [l1] = ok(s2.heap.load(pa, U32, ctx))
        [l2] = ok(s2.heap.load(pb, U64, ctx))
        assert l1.value == intlit(1)
        assert l2.value == intlit(2)

    def test_whole_struct_roundtrip(self, ctx):
        pair = AdtTy("Pair")
        heap = SymbolicHeap()
        heap, p = heap.alloc_typed(pair)
        v = tuple_mk(intlit(3), intlit(4))
        [st] = ok(heap.store(p, pair, v, ctx))
        [fld] = ok(st.heap.load(ptr_field(p, pair, 1), U64, ctx))
        assert fld.value == intlit(4)
        [whole] = ok(st.heap.load(p, pair, ctx))
        assert ctx.solver.entails([], eq(whole.value, v))

    def test_partial_init_whole_read_fails(self, ctx):
        pair = AdtTy("Pair")
        heap = SymbolicHeap()
        heap, p = heap.alloc_typed(pair)
        [s1] = ok(heap.store(ptr_field(p, pair, 0), U32, intlit(1), ctx))
        [out] = s1.heap.load(p, pair, ctx)
        assert out.error is not None  # field b still uninit


class TestEnumAccess:
    def test_option_branching(self, ctx, registry):
        from repro.core.heap.values import validity_constraints
        from repro.solver.sorts import OptionSort

        opt = option_ty(U64)
        heap = SymbolicHeap()
        heap, p = heap.alloc_typed(opt)
        v = Var("o", OptionSort(INT))
        # A symbolic Option<u64> must be assumed valid to be storable.
        ctx = HeapCtx(registry, ctx.solver, tuple(validity_constraints(opt, v, registry)))
        [st] = ok(heap.store(p, opt, v, ctx))
        # Reading the Some payload with an undecided discriminant
        # branches; only the Some branch succeeds.
        outs = st.heap.load(ptr_field(p, opt, 0).args[0], opt, ctx)
        assert outs  # whole-value read fine
        payload = st.heap.load(
            __import__("repro.core.address", fromlist=["x"]).ptr_variant_field(
                p, opt, 1, 0
            ),
            U64,
            ctx,
        )
        succ = [o for o in payload if o.error is None]
        fail = [o for o in payload if o.error is not None]
        assert len(succ) == 1
        assert any(is_some(v) in o.facts for o in succ)
        assert fail  # the None branch is UB for this access

    def test_option_known_some(self, ctx, registry):
        opt = option_ty(U64)
        heap = SymbolicHeap()
        heap, p = heap.alloc_typed(opt)
        [st] = ok(heap.store(p, opt, some(intlit(9)), ctx))
        from repro.core.address import ptr_variant_field

        [ld] = ok(st.heap.load(ptr_variant_field(p, opt, 1, 0), U64, ctx))
        assert ld.value == intlit(9)
        assert ld.error is None

    def test_option_known_none_payload_is_ub(self, ctx, registry):
        opt = option_ty(U64)
        heap = SymbolicHeap()
        heap, p = heap.alloc_typed(opt)
        [st] = ok(heap.store(p, opt, none(INT), ctx))
        from repro.core.address import ptr_variant_field

        outs = st.heap.load(ptr_variant_field(p, opt, 1, 0), U64, ctx)
        assert all(o.error is not None for o in outs)


class TestFree:
    def test_alloc_free(self, ctx):
        heap = SymbolicHeap()
        heap, p = heap.alloc_typed(U64)
        [st] = ok(heap.store(p, U64, intlit(1), ctx))
        [fr] = ok(st.heap.free(p, U64, ctx))
        assert p not in fr.heap.allocs

    def test_double_free_is_ub(self, ctx):
        heap = SymbolicHeap()
        heap, p = heap.alloc_typed(U64)
        [st] = ok(heap.store(p, U64, intlit(1), ctx))
        [fr] = ok(st.heap.free(p, U64, ctx))
        [out] = fr.heap.free(p, U64, ctx)
        assert out.error is not None
        assert "double free" in out.error.message

    def test_free_with_framed_off_part_fails(self, ctx):
        pair = AdtTy("Pair")
        heap = SymbolicHeap()
        heap, p = heap.alloc_typed(pair)
        v = tuple_mk(intlit(3), intlit(4))
        [st] = ok(heap.store(p, pair, v, ctx))
        [con] = ok(st.heap.consume_points_to(ptr_field(p, pair, 0), U32, ctx))
        [out] = con.heap.free(p, pair, ctx)
        assert out.error is not None


class TestPointsTo:
    def test_consume_then_reload_fails(self, ctx):
        heap = SymbolicHeap()
        heap, p = heap.alloc_typed(U64)
        [st] = ok(heap.store(p, U64, intlit(5), ctx))
        [con] = ok(st.heap.consume_points_to(p, U64, ctx))
        assert con.value == intlit(5)
        [out] = con.heap.load(p, U64, ctx)
        assert out.error.kind == "missing-resource"

    def test_produce_fills_back(self, ctx):
        heap = SymbolicHeap()
        heap, p = heap.alloc_typed(U64)
        [st] = ok(heap.store(p, U64, intlit(5), ctx))
        [con] = ok(st.heap.consume_points_to(p, U64, ctx))
        [prod] = ok(con.heap.produce_points_to(p, U64, intlit(6), ctx))
        [ld] = ok(prod.heap.load(p, U64, ctx))
        assert ld.value == intlit(6)

    def test_produce_fresh_object(self, ctx):
        heap = SymbolicHeap()
        q = Var("fresh_l", LOC)
        [prod] = ok(heap.produce_points_to(q, U64, intlit(3), ctx))
        [ld] = ok(prod.heap.load(q, U64, ctx))
        assert ld.value == intlit(3)

    def test_produce_over_owned_is_error(self, ctx):
        # Producing P * P for the same cell must fail (separation!).
        heap = SymbolicHeap()
        heap, p = heap.alloc_typed(U64)
        [st] = ok(heap.store(p, U64, intlit(5), ctx))
        [out] = st.heap.produce_points_to(p, U64, intlit(6), ctx)
        assert out.error is not None

    def test_produce_field_of_fresh_object(self, ctx, registry):
        pair = AdtTy("Pair")
        heap = SymbolicHeap()
        q = Var("fresh_l2", LOC)
        pa = ptr_field(q, pair, 1)
        [prod] = ok(heap.produce_points_to(pa, U64, intlit(8), ctx))
        [ld] = ok(prod.heap.load(pa, U64, ctx))
        assert ld.value == intlit(8)
        # Sibling field is missing, not owned.
        [sib] = prod.heap.load(ptr_field(q, pair, 0), U32, ctx)
        assert sib.error.kind == "missing-resource"

    def test_consume_uninit_variant(self, ctx):
        heap = SymbolicHeap()
        heap, p = heap.alloc_typed(U64)
        [con] = ok(heap.consume_points_to(p, U64, ctx, uninit=True))
        assert con.value is None
        [out] = con.heap.load(p, U64, ctx)
        assert out.error.kind == "missing-resource"


class TestLaidOut:
    """Fig. 5: the vec-push pattern on a laid-out node."""

    def _vec_heap(self, ctx, k, n):
        elem_sort = INT
        vals = Var("vals", SeqSort(elem_sort))
        node = LaidOutNode(
            U64,
            (
                Entry(intlit(0), k, SeqContent(U64, vals)),
                Entry(k, n, UninitContent()),
            ),
        )
        heap = SymbolicHeap()
        base = Var("vbuf", LOC)
        heap = SymbolicHeap({base: node}, heap.types)
        return heap, base, vals

    def test_write_at_symbolic_k(self, ctx, registry):
        k = Var("k", INT)
        n = Var("n", INT)
        pc = (le(intlit(0), k), lt(k, n), eq(seq_len(Var("vals", SeqSort(INT))), k))
        vctx = HeapCtx(registry, ctx.solver, pc)
        heap, base, vals = self._vec_heap(vctx, k, n)
        p = ptr_offset(base, U64, k)
        outs = heap.store(p, U64, intlit(99), vctx)
        good = ok(outs)
        # Fig. 5 right: three pieces — values, the written cell, uninit.
        assert len(good[0].heap.allocs[base].entries) == 3
        # After the write, reading back at k yields the value.
        for o in good:
            rctx = vctx.with_facts(o.facts)
            [ld] = [x for x in o.heap.load(p, U64, rctx) if x.error is None]
            assert ld.value == intlit(99)

    @pytest.mark.parametrize("pushes", [1, 2, 4, 8])
    def test_consecutive_pushes_grow_linearly(self, ctx, registry, pushes):
        """Pushes at k, k+1, ... add at most one entry each: no
        quadratic re-splitting."""
        k = Var("k", INT)
        n = Var("n", INT)
        pc = (
            le(intlit(0), k),
            lt(add(k, intlit(pushes - 1)), n),
            eq(seq_len(Var("vals", SeqSort(INT))), k),
        )
        vctx = HeapCtx(registry, ctx.solver, pc)
        heap, base, _ = self._vec_heap(vctx, k, n)
        for i in range(pushes):
            p = ptr_offset(base, U64, add(k, intlit(i)))
            out = ok(heap.store(p, U64, intlit(i), vctx))[0]
            heap = out.heap
            vctx = vctx.with_facts(out.facts)
        assert len(heap.allocs[base].entries) <= 2 + pushes

    def test_read_uninit_region_is_ub(self, ctx, registry):
        k = Var("k", INT)
        n = Var("n", INT)
        pc = (le(intlit(0), k), lt(add(k, intlit(1)), n))
        vctx = HeapCtx(registry, ctx.solver, pc)
        heap, base, vals = self._vec_heap(vctx, k, n)
        p = ptr_offset(base, U64, add(k, intlit(1)))
        outs = heap.load(p, U64, vctx)
        assert all(o.error is not None for o in outs)
