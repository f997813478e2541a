"""Sort grammar for the solver's term language.

The solver is many-sorted first-order logic. Sorts are immutable,
hash-consed-by-value dataclasses so they can be used as dict keys and
compared structurally.

The sorts cover exactly what the Gillian-Rust pipeline needs:

* ``Int``  — unbounded mathematical integers (machine integers are
  modelled as ``Int`` plus range constraints in the path condition,
  mirroring how the paper treats validity invariants);
* ``Bool`` — propositions and boolean program values;
* ``Real`` — used only for lifetime-token fractions ``q ∈ (0, 1]``;
* ``Loc``  — abstract allocation identifiers (object locations);
* ``Lft``  — lifetimes, encoded in the paper as opaque sets of integers;
  we keep them opaque and reason via dedicated inclusion atoms;
* ``Seq s``    — mathematical sequences (representations of collections);
* ``Option s`` — optional values (representation of Rust ``Option``);
* ``Tuple ss`` — finite products (e.g. ``⌊&mut T⌋ = ⌊T⌋ × ⌊T⌋``);
* ``Uninterp name`` — escape hatch for opaque representation types of
  abstract type parameters (the paper's abstract ``T::ReprTy``).
"""

from __future__ import annotations

from dataclasses import dataclass, field


class Sort:
    """Base class for all sorts."""

    __slots__ = ()

    def is_numeric(self) -> bool:
        return isinstance(self, (IntSort, RealSort))


@dataclass(frozen=True)
class IntSort(Sort):
    def __str__(self) -> str:
        return "Int"

    def __hash__(self) -> int:
        try:
            return self._h
        except AttributeError:
            h = hash((type(self),))
            object.__setattr__(self, "_h", h)
            return h


@dataclass(frozen=True)
class BoolSort(Sort):
    def __str__(self) -> str:
        return "Bool"

    def __hash__(self) -> int:
        try:
            return self._h
        except AttributeError:
            h = hash((type(self),))
            object.__setattr__(self, "_h", h)
            return h


@dataclass(frozen=True)
class RealSort(Sort):
    def __str__(self) -> str:
        return "Real"

    def __hash__(self) -> int:
        try:
            return self._h
        except AttributeError:
            h = hash((type(self),))
            object.__setattr__(self, "_h", h)
            return h


@dataclass(frozen=True)
class LocSort(Sort):
    def __str__(self) -> str:
        return "Loc"

    def __hash__(self) -> int:
        try:
            return self._h
        except AttributeError:
            h = hash((type(self),))
            object.__setattr__(self, "_h", h)
            return h


@dataclass(frozen=True)
class LftSort(Sort):
    def __str__(self) -> str:
        return "Lft"

    def __hash__(self) -> int:
        try:
            return self._h
        except AttributeError:
            h = hash((type(self),))
            object.__setattr__(self, "_h", h)
            return h


@dataclass(frozen=True)
class SeqSort(Sort):
    elem: Sort

    def __str__(self) -> str:
        return f"Seq<{self.elem}>"

    def __hash__(self) -> int:
        try:
            return self._h
        except AttributeError:
            h = hash((type(self), self.elem))
            object.__setattr__(self, "_h", h)
            return h


@dataclass(frozen=True)
class OptionSort(Sort):
    elem: Sort

    def __str__(self) -> str:
        return f"Option<{self.elem}>"

    def __hash__(self) -> int:
        try:
            return self._h
        except AttributeError:
            h = hash((type(self), self.elem))
            object.__setattr__(self, "_h", h)
            return h


@dataclass(frozen=True)
class TupleSort(Sort):
    elems: tuple[Sort, ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        inner = ", ".join(str(e) for e in self.elems)
        return f"({inner})"

    def __hash__(self) -> int:
        try:
            return self._h
        except AttributeError:
            h = hash((type(self), self.elems))
            object.__setattr__(self, "_h", h)
            return h


@dataclass(frozen=True)
class UninterpSort(Sort):
    name: str

    def __str__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        try:
            return self._h
        except AttributeError:
            h = hash((type(self), self.name))
            object.__setattr__(self, "_h", h)
            return h


# Canonical singletons for the nullary sorts.
INT = IntSort()
BOOL = BoolSort()
REAL = RealSort()
LOC = LocSort()
LFT = LftSort()


def seq_of(elem: Sort) -> SeqSort:
    return SeqSort(elem)


def option_of(elem: Sort) -> OptionSort:
    return OptionSort(elem)
