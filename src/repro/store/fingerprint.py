"""Stable fingerprints for verification results (the store's keys).

A proof is reusable exactly when everything it *depended on* is
unchanged. Per function, that closure is (cf. Why3/Creusot session
shapes and Gillian's per-procedure summaries):

* the function's MIR body (pretty-printed — a canonical, readable
  serialisation that is independent of object identity; a verifier
  prints each body once and passes the text in as ``body_text``);
* its own Pearlite contract and manual pure preconditions, plus the
  encoder configuration (``auto_extract``);
* the Pearlite contracts of every callee the body can invoke — the
  axioms the proof *assumes* (compositionality: a callee's body may
  change freely, but its contract may not);
* the program's logic context — predicates, lemmas, Ownable impls and
  installed specs — which fold/unfold automation can consult anywhere.
  A callee's installed Gilsonite spec reaches the key only through
  this digest, which hashes every installed spec;
* the solver/budget configuration, because budgets change verdicts
  (a lower branch cap can turn ``verified`` into ``refuted``);
* a format version, bumped when entry layout or semantics change.

An unsafe function's type-safety obligation uses a subset of this
closure: its ``#[show_safety]`` spec is built from the signature, so
the verdict depends on the body, the logic context and the budget,
and on no contract. :class:`repro.hybrid.pipeline.HybridVerifier`
reuses it across contract-only edits on that basis; the store key
stays whole, one entry per function.

Everything is hashed through a canonicaliser that never depends on
memory addresses or global counter state: in ``repr`` *fallbacks*
(objects with no structural serialisation) heap addresses are scrubbed
and ``#N`` fresh-variable suffixes are normalised. Plain data strings
are hashed verbatim — a spec source fragment like ``x@ < 0x10`` must
never collide with ``x@ < 0x20``. The canonicaliser walks the graph
with an explicit stack, so arbitrarily deep structures serialise
exactly: there is no depth cap and therefore no truncation token under
which two different deep contracts could collide.

Fingerprints are intentionally conservative: any doubt hashes
differently and costs a re-verification, never a stale hit.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import fields, is_dataclass
from typing import Iterable, Iterator, Optional

from repro.lang.mir import Body, Call, Program
from repro.lang.pretty import pretty_body

#: Bump on any change to entry layout, payload semantics, or the
#: fingerprint recipe itself; old entries become misses, never lies.
STORE_FORMAT = 4

_ADDR = re.compile(r"0x[0-9a-fA-F]+")
_FRESH = re.compile(r"#\d+")


def _scrub(text: str) -> str:
    """Drop the two nondeterministic artefacts that leak into *reprs*:
    heap addresses and global fresh-variable counters. Applied only to
    the repr fallback — plain data strings hash verbatim, else two
    specs differing only in a hex constant or a ``#N`` fragment would
    collide into the same fingerprint (a stale-hit vector)."""
    return _FRESH.sub("#~", _ADDR.sub("0x~", text))


def _canon(obj, out: list, seen: set) -> None:
    """Serialise an arbitrary object graph into a deterministic token
    stream. Driven by an explicit work stack, so depth is bounded by
    memory, not the interpreter stack, and *every* level contributes
    its exact content — a depth cap that truncates to a constant would
    make all graphs beyond it hash identically. Cycle-safe; unknown
    objects degrade to scrubbed reprs.

    Dictionary keys and set elements are canonicalised eagerly (their
    own sub-walk) so entries can be sorted independent of insertion
    order; only *those* recurse, and only one frame per level of
    key-inside-key nesting, which hashability keeps shallow.
    """
    stack: list = [("visit", obj)]
    while stack:
        op, arg = stack.pop()
        if op == "token":
            out.append(arg)
            continue
        if op == "leave":
            seen.discard(arg)
            continue
        o = arg
        if o is None or isinstance(o, (bool, int, float)):
            out.append(f"{type(o).__name__}:{o!r}")
            continue
        if isinstance(o, str):
            out.append("s:" + o)
            continue
        if isinstance(o, bytes):
            out.append("b:" + o.hex())
            continue
        oid = id(o)
        if oid in seen:
            out.append("<cycle>")
            continue
        todo: list = []
        if is_dataclass(o) and not isinstance(o, type):
            seen.add(oid)
            out.append("d:" + type(o).__name__ + "(")
            for f in fields(o):
                todo.append(("token", f.name + "="))
                todo.append(("visit", getattr(o, f.name)))
            todo.append(("token", ")"))
            todo.append(("leave", oid))
        elif isinstance(o, dict):
            seen.add(oid)
            items = []
            for k, v in o.items():
                key: list = []
                _canon(k, key, seen)
                items.append(("".join(key), v))
            out.append("{")
            for key, v in sorted(items, key=lambda kv: kv[0]):
                todo.append(("token", key + ":"))
                todo.append(("visit", v))
            todo.append(("token", "}"))
            todo.append(("leave", oid))
        elif isinstance(o, (list, tuple)):
            seen.add(oid)
            out.append("[")
            for v in o:
                todo.append(("visit", v))
            todo.append(("token", "]"))
            todo.append(("leave", oid))
        elif isinstance(o, (set, frozenset)):
            seen.add(oid)
            elems = []
            for v in o:
                one: list = []
                _canon(v, one, seen)
                elems.append("".join(one))
            out.append("{*" + ",".join(sorted(elems)) + "*}")
            seen.discard(oid)
            continue
        else:
            out.append("r:" + _scrub(repr(o)))
            continue
        stack.extend(reversed(todo))


def canon(obj) -> str:
    """The deterministic token string for any object graph."""
    out: list = []
    _canon(obj, out, set())
    return "|".join(out)


def callees(body: Body) -> list[str]:
    """Callee names, sorted and deduplicated — the contracts this
    function's proof assumes."""
    names = set()
    for bb in body.blocks.values():
        if isinstance(bb.terminator, Call):
            names.add(bb.terminator.func)
    return sorted(names)


def logic_tables(program: Program) -> Iterator[tuple[str, str, object]]:
    """Every ``(label, name, value)`` of the program-wide logic context
    that :func:`logic_digest` hashes, in its order.

    Predicates named ``own:*`` / ``mutref_inv:*`` are *excluded*: the
    Ownable registry synthesises them lazily during verification, so
    hashing them would make the digest depend on which proofs already
    ran. They are pure functions of the registry's sources — the
    user-written predicate definitions (hashed here) and the custom
    Ownable builders (hashed via the registry in :func:`logic_digest`)
    — so the sources stand in for them. The predicates a lemma defines
    on first use (``synthesised_predicates``) are excluded for the same
    reason; the lemma itself is hashed."""
    derived = {
        name
        for lemma in program.lemmas.values()
        for name in lemma.synthesised_predicates()
    }
    for label, table in (
        ("pred", program.predicates),
        ("lemma", program.lemmas),
        ("ownable", program.ownables),
        ("spec", program.specs),
    ):
        for name in sorted(table):
            if label == "pred" and (
                name in derived or name.startswith(("own:", "mutref_inv:"))
            ):
                continue
            yield label, name, table[name]


def logic_digest(program: Program, ownables=None) -> str:
    """Digest of the program-wide logic context: predicates, lemmas,
    Ownable impls and installed specs (:func:`logic_tables`). Coarse by
    design — a change to any shared definition invalidates every entry
    (sound; the price is one cold run)."""
    h = hashlib.sha256()
    h.update(f"format={STORE_FORMAT}\n".encode())
    for label, name, value in logic_tables(program):
        h.update(f"{label} {name} = {canon(value)}\n".encode())
    if ownables is not None:
        h.update(("registry " + _scrub(repr(type(ownables)))).encode())
        for attr in ("_custom_build", "_custom_repr"):
            table = getattr(ownables, attr, None)
            if isinstance(table, dict):
                h.update(f"\n{attr}=".encode())
                h.update(canon(table).encode())
    return h.hexdigest()


def function_fingerprint(
    name: str,
    *,
    program: Program,
    contracts: Optional[dict] = None,
    manual_pure_pre: Optional[dict] = None,
    auto_extract: bool = False,
    budget=None,
    logic: Optional[str] = None,
    body_text: Optional[str] = None,
) -> str:
    """The content address of one function's verification result.

    ``logic`` and ``body_text`` (the body's :func:`pretty_body`) let a
    caller amortise :func:`logic_digest` and the printing over a run;
    omitted, they are computed here.
    """
    body = program.bodies[name]
    contracts = contracts or {}
    manual_pure_pre = manual_pure_pre or {}
    h = hashlib.sha256()
    h.update(f"format={STORE_FORMAT}\n".encode())
    h.update(f"fn={name}\n".encode())
    h.update((body_text if body_text is not None else pretty_body(body)).encode())
    h.update(b"\ncontract=")
    h.update(canon(contracts.get(name)).encode())
    h.update(b"\nmanual_pure_pre=")
    h.update(canon(manual_pure_pre.get(name)).encode())
    h.update(f"\nauto_extract={auto_extract}\n".encode())
    h.update(b"budget=")
    h.update(canon(budget).encode())
    for callee in callees(body):
        h.update(f"\ncallee {callee}\n".encode())
        h.update(canon(contracts.get(callee)).encode())
    h.update(b"\nlogic=")
    h.update((logic if logic is not None else logic_digest(program)).encode())
    return h.hexdigest()
