"""Sorted term language and smart constructors.

Terms are immutable dataclasses forming a DAG. Equality and hashing are
object identity (``object.__eq__``/``object.__hash__``, served by
CPython's C slots), which coincides with structural equality because
terms are *hash-consed*: every constructor routes through a global
intern table (:func:`_interned`), so two structurally equal live terms
are always the same object. That lets terms serve as dictionary keys
throughout the engine (the union-find, the interval store, the symbolic
heap) at the cost of one pointer hash per probe.

The table holds weak references, so interning never leaks terms that
the engine has dropped. Every other route that makes a term goes
through the constructor too: unpickling, ``copy.copy`` and
``copy.deepcopy`` rebuild via :meth:`__reduce__`, and
``dataclasses.replace`` calls the class. That is what lets terms cross
process boundaries in the parallel pipeline and land canonical on the
other side.

Smart constructors perform *local* constant folding only; full
normalisation lives in :mod:`repro.solver.rewrite`. Keeping the two
layers separate makes rewriting rules testable in isolation.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from repro.solver.sorts import (
    BOOL,
    INT,
    LFT,
    LOC,
    REAL,
    OptionSort,
    SeqSort,
    Sort,
    TupleSort,
)

# ---------------------------------------------------------------------------
# Hash-consing (interning)
# ---------------------------------------------------------------------------

#: key = (class, *fields) -> canonical instance. Weak values: an interned
#: term is dropped as soon as nothing outside the table references it.
_INTERN_TABLE: "weakref.WeakValueDictionary[tuple, Term]" = (
    weakref.WeakValueDictionary()
)
_INTERN_STATS = {"hits": 0, "misses": 0}


def interner_stats() -> dict:
    """Hit/miss counters plus the current live table size."""
    return {
        "hits": _INTERN_STATS["hits"],
        "misses": _INTERN_STATS["misses"],
        "live_terms": len(_INTERN_TABLE),
    }


def _interned(cls, *fields):
    """Return the canonical instance for ``cls(*fields)`` (or a fresh
    uninitialised one that the dataclass ``__init__`` will fill in)."""
    key = (cls, *fields)
    t = _INTERN_TABLE.get(key)
    if t is not None:
        _INTERN_STATS["hits"] += 1
        return t
    _INTERN_STATS["misses"] += 1
    t = object.__new__(cls)
    _INTERN_TABLE[key] = t
    return t


class Term:
    """Base class of all terms. Subclasses are frozen dataclasses."""

    __slots__ = ()

    sort: Sort

    def children(self) -> tuple["Term", ...]:
        return ()

    def is_lit(self) -> bool:
        return isinstance(self, (IntLit, BoolLit, RealLit))


@dataclass(frozen=True, eq=False)
class Var(Term):
    name: str
    sort: Sort

    def __new__(cls, name: str, sort: Sort) -> "Var":
        return _interned(cls, name, sort)

    def __reduce__(self):
        return (Var, (self.name, self.sort))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class IntLit(Term):
    value: int

    def __new__(cls, value: int) -> "IntLit":
        return _interned(cls, value)

    @property
    def sort(self) -> Sort:
        return INT

    def __reduce__(self):
        return (IntLit, (self.value,))

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, eq=False)
class BoolLit(Term):
    value: bool

    def __new__(cls, value: bool) -> "BoolLit":
        return _interned(cls, value)

    @property
    def sort(self) -> Sort:
        return BOOL

    def __reduce__(self):
        return (BoolLit, (self.value,))

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True, eq=False)
class RealLit(Term):
    value: Fraction

    def __new__(cls, value: Fraction) -> "RealLit":
        return _interned(cls, value)

    @property
    def sort(self) -> Sort:
        return REAL

    def __reduce__(self):
        return (RealLit, (self.value,))

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, eq=False)
class App(Term):
    op: str
    args: tuple[Term, ...]
    sort: Sort

    def __new__(cls, op: str, args: tuple, sort: Sort) -> "App":
        return _interned(cls, op, args, sort)

    def children(self) -> tuple[Term, ...]:
        return self.args

    def __reduce__(self):
        return (App, (self.op, self.args, self.sort))

    def __str__(self) -> str:
        try:
            return self._s
        except AttributeError:
            if not self.args:
                s = self.op
            else:
                inner = ", ".join(str(a) for a in self.args)
                s = f"{self.op}({inner})"
            object.__setattr__(self, "_s", s)
            return s


TRUE = BoolLit(True)
FALSE = BoolLit(False)

_fresh_counter = itertools.count()


def fresh_var(prefix: str, sort: Sort) -> Var:
    """Create a globally fresh variable with a readable prefix."""
    return Var(f"{prefix}#{next(_fresh_counter)}", sort)


def intlit(value: int) -> IntLit:
    return IntLit(value)


def boollit(value: bool) -> BoolLit:
    return TRUE if value else FALSE


def reallit(value: Fraction | int | str) -> RealLit:
    return RealLit(Fraction(value))


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def _numeric_sort(args: Sequence[Term]) -> Sort:
    for a in args:
        if a.sort == REAL:
            return REAL
    return INT


def add(*args: Term) -> Term:
    """N-ary addition with constant folding and flattening."""
    sort = _numeric_sort(args)
    flat: list[Term] = []
    const: int | Fraction = Fraction(0) if sort == REAL else 0
    for a in args:
        if isinstance(a, App) and a.op == "+":
            parts: Iterable[Term] = a.args
        else:
            parts = (a,)
        for p in parts:
            if isinstance(p, IntLit):
                const += p.value
            elif isinstance(p, RealLit):
                const += p.value
            else:
                flat.append(p)
    if not flat:
        return reallit(const) if sort == REAL else intlit(int(const))
    if const != 0:
        flat.append(reallit(const) if sort == REAL else intlit(int(const)))
    if len(flat) == 1:
        return flat[0]
    return App("+", tuple(flat), sort)


def neg(a: Term) -> Term:
    if isinstance(a, IntLit):
        return intlit(-a.value)
    if isinstance(a, RealLit):
        return reallit(-a.value)
    if isinstance(a, App) and a.op == "neg":
        return a.args[0]
    return App("neg", (a,), a.sort)


def sub(a: Term, b: Term) -> Term:
    return add(a, neg(b))


def mul(a: Term, b: Term) -> Term:
    if isinstance(a, IntLit) and isinstance(b, IntLit):
        return intlit(a.value * b.value)
    if isinstance(a, RealLit) and isinstance(b, RealLit):
        return reallit(a.value * b.value)
    if isinstance(a, IntLit):
        a, b = b, a
    if isinstance(b, IntLit):
        if b.value == 0:
            return intlit(0)
        if b.value == 1:
            return a
        if b.value == -1:
            return neg(a)
    return App("*", (a, b), _numeric_sort((a, b)))


def div(a: Term, b: Term) -> Term:
    """Euclidean integer division (total; division by zero stays symbolic)."""
    if isinstance(a, IntLit) and isinstance(b, IntLit) and b.value != 0:
        return intlit(a.value // b.value)
    if isinstance(b, IntLit) and b.value == 1:
        return a
    return App("div", (a, b), INT)


def mod(a: Term, b: Term) -> Term:
    if isinstance(a, IntLit) and isinstance(b, IntLit) and b.value != 0:
        return intlit(a.value % b.value)
    return App("mod", (a, b), INT)


# ---------------------------------------------------------------------------
# Comparisons and boolean structure
# ---------------------------------------------------------------------------


def eq(a: Term, b: Term) -> Term:
    if a == b:
        return TRUE
    if a.is_lit() and b.is_lit():
        return boollit(a == b)
    # Boolean equality simplifies to the formula (or its negation).
    if a.sort == BOOL:
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a == FALSE:
            return not_(b)
        if b == FALSE:
            return not_(a)
    # Constructor clash detection for common container ops.
    if _constructor_clash(a, b):
        return FALSE
    # Canonical argument ordering keeps eq(a, b) == eq(b, a).
    if str(b) < str(a):
        a, b = b, a
    return App("=", (a, b), BOOL)


_CONSTRUCTORS = {"none", "some", "seq.empty", "seq.cons", "tuple", "true", "false"}


def _constructor_clash(a: Term, b: Term) -> bool:
    if isinstance(a, App) and isinstance(b, App):
        if a.op in _CONSTRUCTORS and b.op in _CONSTRUCTORS and a.op != b.op:
            return True
    return False


def distinct(a: Term, b: Term) -> Term:
    return not_(eq(a, b))


def le(a: Term, b: Term) -> Term:
    if isinstance(a, IntLit) and isinstance(b, IntLit):
        return boollit(a.value <= b.value)
    if isinstance(a, RealLit) and isinstance(b, RealLit):
        return boollit(a.value <= b.value)
    if a == b:
        return TRUE
    return App("<=", (a, b), BOOL)


def lt(a: Term, b: Term) -> Term:
    if isinstance(a, IntLit) and isinstance(b, IntLit):
        return boollit(a.value < b.value)
    if isinstance(a, RealLit) and isinstance(b, RealLit):
        return boollit(a.value < b.value)
    if a == b:
        return FALSE
    return App("<", (a, b), BOOL)


def ge(a: Term, b: Term) -> Term:
    return le(b, a)


def gt(a: Term, b: Term) -> Term:
    return lt(b, a)


def not_(a: Term) -> Term:
    if isinstance(a, BoolLit):
        return boollit(not a.value)
    if isinstance(a, App) and a.op == "not":
        return a.args[0]
    if isinstance(a, App) and a.op == "<=":
        return lt(a.args[1], a.args[0])
    if isinstance(a, App) and a.op == "<":
        return le(a.args[1], a.args[0])
    return App("not", (a,), BOOL)


def and_(*args: Term) -> Term:
    flat: list[Term] = []
    for a in args:
        if a == TRUE:
            continue
        if a == FALSE:
            return FALSE
        if isinstance(a, App) and a.op == "and":
            flat.extend(a.args)
        else:
            flat.append(a)
    # Deduplicate while preserving order.
    seen: set[Term] = set()
    out: list[Term] = []
    for a in flat:
        if a not in seen:
            seen.add(a)
            out.append(a)
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return App("and", tuple(out), BOOL)


def or_(*args: Term) -> Term:
    flat: list[Term] = []
    for a in args:
        if a == FALSE:
            continue
        if a == TRUE:
            return TRUE
        if isinstance(a, App) and a.op == "or":
            flat.extend(a.args)
        else:
            flat.append(a)
    seen: set[Term] = set()
    out: list[Term] = []
    for a in flat:
        if a not in seen:
            seen.add(a)
            out.append(a)
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return App("or", tuple(out), BOOL)


def implies(a: Term, b: Term) -> Term:
    return or_(not_(a), b)


def ite(c: Term, t: Term, e: Term) -> Term:
    if c == TRUE:
        return t
    if c == FALSE:
        return e
    if t == e:
        return t
    if t == TRUE and e == FALSE:
        return c
    if t == FALSE and e == TRUE:
        return not_(c)
    return App("ite", (c, t, e), t.sort)


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------


def seq_empty(elem_sort: Sort) -> Term:
    return App("seq.empty", (), SeqSort(elem_sort))


def seq_cons(head: Term, tail: Term) -> Term:
    assert isinstance(tail.sort, SeqSort), tail
    return App("seq.cons", (head, tail), tail.sort)


def seq_append(a: Term, b: Term) -> Term:
    if isinstance(a, App) and a.op == "seq.empty":
        return b
    if isinstance(b, App) and b.op == "seq.empty":
        return a
    if isinstance(a, App) and a.op == "seq.cons":
        return seq_cons(a.args[0], seq_append(a.args[1], b))
    return App("seq.append", (a, b), a.sort)


def seq_len(s: Term) -> Term:
    if isinstance(s, App):
        if s.op == "seq.empty":
            return intlit(0)
        if s.op == "seq.cons":
            return add(intlit(1), seq_len(s.args[1]))
        if s.op == "seq.append":
            return add(seq_len(s.args[0]), seq_len(s.args[1]))
    return App("seq.len", (s,), INT)


def seq_head(s: Term) -> Term:
    assert isinstance(s.sort, SeqSort)
    if isinstance(s, App) and s.op == "seq.cons":
        return s.args[0]
    return App("seq.head", (s,), s.sort.elem)


def seq_tail(s: Term) -> Term:
    if isinstance(s, App) and s.op == "seq.cons":
        return s.args[1]
    return App("seq.tail", (s,), s.sort)


def seq_at(s: Term, i: Term) -> Term:
    assert isinstance(s.sort, SeqSort)
    if isinstance(s, App) and s.op == "seq.cons" and isinstance(i, IntLit):
        if i.value == 0:
            return s.args[0]
        if i.value > 0:
            return seq_at(s.args[1], intlit(i.value - 1))
    return App("seq.at", (s, i), s.sort.elem)


def seq_last(s: Term) -> Term:
    assert isinstance(s.sort, SeqSort)
    if isinstance(s, App) and s.op == "seq.cons":
        if isinstance(s.args[1], App) and s.args[1].op == "seq.empty":
            return s.args[0]
    return App("seq.last", (s,), s.sort.elem)


def seq_repeat(x: Term, n: Term) -> Term:
    """Sequence of ``n`` copies of ``x`` (used for array reprs)."""
    if isinstance(n, IntLit) and 0 <= n.value <= 16:
        out: Term = seq_empty(x.sort)
        for _ in range(n.value):
            out = seq_cons(x, out)
        return out
    return App("seq.repeat", (x, n), SeqSort(x.sort))


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------


def none(elem_sort: Sort) -> Term:
    return App("none", (), OptionSort(elem_sort))


def some(x: Term) -> Term:
    return App("some", (x,), OptionSort(x.sort))


def some_val(x: Term) -> Term:
    assert isinstance(x.sort, OptionSort)
    if isinstance(x, App) and x.op == "some":
        return x.args[0]
    return App("some.val", (x,), x.sort.elem)


def is_some(x: Term) -> Term:
    if isinstance(x, App) and x.op == "some":
        return TRUE
    if isinstance(x, App) and x.op == "none":
        return FALSE
    return App("is_some", (x,), BOOL)


# ---------------------------------------------------------------------------
# Tuples
# ---------------------------------------------------------------------------


def tuple_mk(*elems: Term) -> Term:
    return App("tuple", tuple(elems), TupleSort(tuple(e.sort for e in elems)))


def tuple_get(t: Term, i: int) -> Term:
    assert isinstance(t.sort, TupleSort), t
    if isinstance(t, App) and t.op == "tuple":
        return t.args[i]
    return App(f"tuple.{i}", (t,), t.sort.elems[i])


# ---------------------------------------------------------------------------
# Locations and lifetimes
# ---------------------------------------------------------------------------

_loc_counter = itertools.count()


def fresh_loc() -> Var:
    return Var(f"$loc{next(_loc_counter)}", LOC)


def lft_incl(a: Term, b: Term) -> Term:
    """``a ⊑ b``: lifetime ``b`` outlives ``a`` (set inclusion, §4.1)."""
    if a == b:
        return TRUE
    return App("lft.incl", (a, b), BOOL)


def lft_inter(a: Term, b: Term) -> Term:
    """Lifetime intersection (the shorter of the two)."""
    if a == b:
        return a
    return App("lft.inter", (a, b), LFT)


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16384)
def _subterms_tuple(t: Term) -> tuple[Term, ...]:
    """All subterms of ``t`` (including ``t``), deduplicated, in the
    traversal order of the original generator. Interning makes terms
    canonical, so this memo hits across unrelated queries."""
    seen: set[Term] = set()
    out: list[Term] = []
    stack = [t]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        out.append(cur)
        stack.extend(cur.children())
    return tuple(out)


@lru_cache(maxsize=16384)
def _subterm_set(t: Term) -> frozenset:
    return frozenset(_subterms_tuple(t))


def subterms(t: Term) -> Iterable[Term]:
    """Yield every subterm of ``t`` (including ``t``), deduplicated."""
    return iter(_subterms_tuple(t))


@lru_cache(maxsize=16384)
def _free_vars(t: Term) -> frozenset:
    return frozenset(s for s in _subterms_tuple(t) if isinstance(s, Var))


def free_vars(t: Term) -> frozenset:
    return _free_vars(t)


#: The name every variable takes in a skeleton (:func:`alpha_key`).
_PLACEHOLDER = "?"


@lru_cache(maxsize=16384)
def _skeleton(t: Term) -> tuple[Term, tuple]:
    """``t`` with every variable replaced by the placeholder variable of
    its sort, and ``t``'s variable occurrences, left to right.

    Built with the raw :class:`App` constructor, so no smart-constructor
    simplification runs, and from the children's skeletons, so a
    subterm's skeleton is shared by every term it occurs in.

    :func:`eq` orders its arguments by their printed names, so a
    renaming can swap them; the skeleton puts them back in an order
    that names do not decide (:func:`_eq_skeleton`)."""
    if isinstance(t, Var):
        return Var(_PLACEHOLDER, t.sort), (t,)
    if not isinstance(t, App):
        return t, ()
    if t.op == "=":
        return _eq_skeleton(t)
    skels = []
    occurrences: tuple = ()
    for a in t.args:
        s, occ = _skeleton(a)
        skels.append(s)
        if occ:
            occurrences += occ
    if not occurrences:
        return t, ()
    return App(t.op, tuple(skels), t.sort), occurrences


def _eq_skeleton(t: App) -> tuple[Term, tuple]:
    """The skeleton of ``a = b``: the side whose skeleton prints first
    goes first. When both sides have one skeleton, only the query's
    numbering can tell them apart, so the occurrences are one pair
    ``(a's, b's)`` that :func:`alpha_key` orders."""
    (sa, oa), (sb, ob) = _skeleton(t.args[0]), _skeleton(t.args[1])
    if not oa and not ob:
        return t, ()
    if sa is sb:
        return App("=", (sa, sa), t.sort), ((oa, ob),)
    if str(sb) < str(sa):
        sa, oa, sb, ob = sb, ob, sa, oa
    return App("=", (sa, sb), t.sort), oa + ob


def _number(occurrences: tuple, index: dict, out: list) -> None:
    """Number ``occurrences`` by first occurrence into ``out``; a pair
    of equal sides goes in the order of their numbering so far."""
    for v in occurrences:
        if type(v) is tuple:
            a, b = v
            if _signature(b, index) < _signature(a, index):
                a, b = b, a
            _number(a, index, out)
            _number(b, index, out)
        else:
            out.append(index.setdefault(v, len(index)))


def _signature(occurrences: tuple, index: dict) -> list[int]:
    """One side of an equality, as numbered so far: known variables by
    their number, new ones as ``-1, -2, ...`` in order of appearance."""
    flat: list = []
    _flatten(occurrences, flat)
    new: dict = {}
    return [
        index[v] if v in index else -1 - new.setdefault(v, len(new)) for v in flat
    ]


def _flatten(occurrences: tuple, out: list) -> None:
    for v in occurrences:
        if type(v) is tuple:
            _flatten(v[0], out)
            _flatten(v[1], out)
        else:
            out.append(v)


def alpha_key(fs: Sequence[Term]) -> tuple:
    """A key that two formula lists share only when one is the other
    under a bijective, sort-preserving renaming of variables (up to the
    order of an equality's sides).

    The key is the formulas' skeletons (:func:`_skeleton`) plus one
    tuple numbering the variable occurrences across the whole list by
    first occurrence: ``x < y, y < x`` and ``x < y, z < w`` share their
    skeletons but not their numbering. Skeletons are interned, so the
    key hashes and compares by identity."""
    skels = []
    occurrences: list = []
    for f in fs:
        s, occ = _skeleton(f)
        skels.append(s)
        occurrences += occ
    numbers: list[int] = []
    _number(occurrences, {}, numbers)
    return tuple(skels), tuple(numbers)


def substitute(t: Term, mapping: dict[Term, Term]) -> Term:
    """Capture-free simultaneous substitution (terms have no binders)."""
    if not mapping:
        return t
    # Fast path: nothing in the domain occurs in t at all.
    if _subterm_set(t).isdisjoint(mapping):
        return t
    cache: dict[Term, Term] = {}

    def go(u: Term) -> Term:
        hit = mapping.get(u)
        if hit is not None:
            return hit
        if u in cache:
            return cache[u]
        if isinstance(u, App):
            if _subterm_set(u).isdisjoint(mapping):
                result = u
            else:
                new_args = tuple(go(a) for a in u.args)
                result = (
                    rebuild(u.op, new_args, u.sort) if new_args != u.args else u
                )
        else:
            result = u
        cache[u] = result
        return result

    return go(t)


_SMART = {}


def _register_smart() -> None:
    """Map op names to smart constructors so substitution re-simplifies."""
    _SMART.update(
        {
            "+": lambda args, sort: add(*args),
            "neg": lambda args, sort: neg(args[0]),
            "*": lambda args, sort: mul(args[0], args[1]),
            "div": lambda args, sort: div(args[0], args[1]),
            "mod": lambda args, sort: mod(args[0], args[1]),
            "=": lambda args, sort: eq(args[0], args[1]),
            "<=": lambda args, sort: le(args[0], args[1]),
            "<": lambda args, sort: lt(args[0], args[1]),
            "not": lambda args, sort: not_(args[0]),
            "and": lambda args, sort: and_(*args),
            "or": lambda args, sort: or_(*args),
            "ite": lambda args, sort: ite(args[0], args[1], args[2]),
            "seq.cons": lambda args, sort: seq_cons(args[0], args[1]),
            "seq.append": lambda args, sort: seq_append(args[0], args[1]),
            "seq.len": lambda args, sort: seq_len(args[0]),
            "seq.head": lambda args, sort: seq_head(args[0]),
            "seq.tail": lambda args, sort: seq_tail(args[0]),
            "seq.at": lambda args, sort: seq_at(args[0], args[1]),
            "seq.last": lambda args, sort: seq_last(args[0]),
            "seq.repeat": lambda args, sort: seq_repeat(args[0], args[1]),
            "some": lambda args, sort: some(args[0]),
            "some.val": lambda args, sort: some_val(args[0]),
            "is_some": lambda args, sort: is_some(args[0]),
            "tuple": lambda args, sort: tuple_mk(*args),
            "lft.incl": lambda args, sort: lft_incl(args[0], args[1]),
            "lft.inter": lambda args, sort: lft_inter(args[0], args[1]),
        }
    )
    for i in range(16):
        _SMART[f"tuple.{i}"] = (
            lambda args, sort, i=i: tuple_get(args[0], i)
            if isinstance(args[0].sort, TupleSort)
            else App(f"tuple.{i}", args, sort)
        )


_register_smart()


def rebuild(op: str, args: tuple[Term, ...], sort: Sort) -> Term:
    """Rebuild an application through its smart constructor when known."""
    ctor = _SMART.get(op)
    if ctor is not None:
        return ctor(args, sort)
    return App(op, args, sort)
