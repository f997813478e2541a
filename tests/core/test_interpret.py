"""Tests for byte-level interpretation of structural nodes (Fig. 4)."""

import pytest

from repro.core.heap.interpret import (
    PAD,
    UNINIT_BYTE,
    SymByte,
    interpret_node,
    render_image,
)
from repro.core.heap.structural import UNINIT, EnumNode, SingleNode, StructNode
from repro.lang.layout import (
    ALL_STRATEGIES,
    DECLARED,
    LARGEST_FIRST,
    LayoutEngine,
    SMALLEST_FIRST,
)
from repro.lang.types import (
    BOOL,
    U8,
    U32,
    U64,
    AdtTy,
    I8,
    RawPtrTy,
    TypeRegistry,
    option_ty,
    struct_def,
)
from repro.solver.sorts import INT
from repro.solver.terms import Var, boollit, intlit, none, tuple_mk


@pytest.fixture()
def registry():
    reg = TypeRegistry()
    reg.define(struct_def("S", [("x", U32), ("y", U64)]))
    return reg


def fig4_node():
    """The Fig. 4 structural node: ⟨S⟩{⟨x:u32⟩, ⟨y:u64⟩}."""
    x = Var("x", INT)
    y = Var("y", INT)
    return StructNode(
        AdtTy("S"), (SingleNode(U32, x), SingleNode(U64, y))
    ), x, y


class TestFig4:
    def test_largest_first_interpretation(self, registry):
        node, x, y = fig4_node()
        image = interpret_node(node, LayoutEngine(registry, LARGEST_FIRST))
        # Fig. 4 top: y first (8 bytes), then x (4 bytes), then padding.
        assert image[:8] == [SymByte(y, i) for i in range(8)]
        assert image[8:12] == [SymByte(x, i) for i in range(4)]
        assert image[12:] == [PAD] * 4

    def test_smallest_first_interpretation(self, registry):
        node, x, y = fig4_node()
        image = interpret_node(node, LayoutEngine(registry, SMALLEST_FIRST))
        # Fig. 4 bottom: x first, padding, then y.
        assert image[:4] == [SymByte(x, i) for i in range(4)]
        assert image[4:8] == [PAD] * 4
        assert image[8:] == [SymByte(y, i) for i in range(8)]

    def test_same_node_different_images(self, registry):
        node, _, _ = fig4_node()
        images = {
            tuple(map(repr, interpret_node(node, LayoutEngine(registry, s))))
            for s in ALL_STRATEGIES
        }
        assert len(images) > 1  # the point of Fig. 4

    def test_every_strategy_covers_all_value_bytes(self, registry):
        # Layout independence: all 12 value bytes and 4 padding bytes
        # appear under every strategy, only their positions move.
        node, x, y = fig4_node()
        expected = {SymByte(x, i) for i in range(4)} | {SymByte(y, i) for i in range(8)}
        for s in ALL_STRATEGIES:
            image = interpret_node(node, LayoutEngine(registry, s))
            got = {b for b in image if isinstance(b, SymByte)}
            assert got == expected
            assert sum(1 for b in image if b is PAD) == 4


class TestConcreteValues:
    def test_little_endian_int(self, registry):
        node = SingleNode(U32, intlit(0x01020304))
        image = interpret_node(node, LayoutEngine(registry))
        assert image == [0x04, 0x03, 0x02, 0x01]

    def test_negative_int_twos_complement(self, registry):
        node = SingleNode(I8, intlit(-1))
        image = interpret_node(node, LayoutEngine(registry))
        assert image == [0xFF]

    def test_bool_validity_bit_patterns(self, registry):
        # §3.2: booleans are represented only by 0b0 and 0b1.
        eng = LayoutEngine(registry)
        assert interpret_node(SingleNode(BOOL, boollit(True)), eng) == [1]
        assert interpret_node(SingleNode(BOOL, boollit(False)), eng) == [0]

    def test_uninit_bytes(self, registry):
        node = SingleNode(U32, UNINIT)
        image = interpret_node(node, LayoutEngine(registry))
        assert image == [UNINIT_BYTE] * 4

    def test_niche_none_is_null(self, registry):
        # §3: Option<*mut T> niche — None is the all-zero bit pattern.
        opt = option_ty(RawPtrTy(U64))
        from repro.solver.sorts import LOC

        node = EnumNode(opt, 0, ())
        image = interpret_node(node, LayoutEngine(registry))
        assert image == [0] * 8

    def test_tagged_enum_discriminant(self, registry):
        opt = option_ty(U64)
        node = EnumNode(opt, 1, (SingleNode(U64, intlit(7)),))
        image = interpret_node(node, LayoutEngine(registry))
        assert image[0] == 1  # tag
        assert 7 in image  # payload byte

    def test_struct_value_expansion(self, registry):
        node = SingleNode(AdtTy("S"), tuple_mk(intlit(1), intlit(2)))
        image = interpret_node(node, LayoutEngine(registry, DECLARED))
        assert image[0] == 1
        assert image[8] == 2

    def test_render(self, registry):
        node = SingleNode(U32, intlit(0xAB))
        assert render_image(interpret_node(node, LayoutEngine(registry))) == (
            "ab 00 00 00"
        )
