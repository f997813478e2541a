"""The registry of verification corpora a daemon can serve.

A *corpus* is everything one program needs to verify: the MIR bodies,
the Ownable registry, the Pearlite contracts and the manual pure
preconditions. Loaders are registered by name and called with the
request's ``params``, so a client can ask for a *variant* of a corpus
(e.g. the demo corpus with padding statements inserted into one body —
the service tests' stand-in for an edit) and the session's
fingerprint diff sees exactly the functions whose content changed.

Built-ins:

* ``demo`` — four safe functions forming the call chain
  ``demo::top → demo::mid → demo::leaf`` plus the independent
  ``demo::side``, each contracted ``ensures result == x``. Small
  enough to verify in milliseconds, shaped to exercise incremental
  re-verification: a *body* edit of ``leaf`` (``params={"pad":
  {"demo::leaf": 1}}``) re-verifies ``leaf`` alone; a *contract* edit
  of ``leaf`` re-verifies ``leaf`` and its direct caller ``mid``
  (whose fingerprint hashes callee contracts), while the transitive
  caller ``top`` (which assumes only ``mid``'s contract) and ``side``
  are reused.
* ``linked_list`` — the real ``rustlib`` LinkedList program (unsafe
  bodies, specs installed), loaded lazily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.gilsonite.ownable import OwnableRegistry
from repro.lang.builder import BodyBuilder
from repro.lang.mir import Program
from repro.lang.types import U64


@dataclass
class Corpus:
    """One loadable verification target."""

    program: Program
    ownables: OwnableRegistry
    contracts: dict
    manual_pure_pre: dict = field(default_factory=dict)
    auto_extract: bool = False


_REGISTRY: dict[str, Callable[[dict], Corpus]] = {}


def register_corpus(name: str, loader: Callable[[dict], Corpus]) -> None:
    """Register (or replace) a corpus loader; ``loader(params)`` must
    return a fresh :class:`Corpus` (sessions mutate nothing in it, but
    reloads assume value semantics)."""
    _REGISTRY[name] = loader


def corpus_names() -> list[str]:
    return sorted(_REGISTRY)


def load_corpus(name: str, params: Optional[dict] = None) -> Corpus:
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown corpus {name!r} (registered: {corpus_names()})"
        )
    return _REGISTRY[name](params or {})


# ---------------------------------------------------------------------------
# Built-in: demo (call-graph shaped, milliseconds per function)
# ---------------------------------------------------------------------------

DEMO_FNS = ("demo::leaf", "demo::mid", "demo::top", "demo::side")


def _demo_body(name: str, pad: int, callee: Optional[str] = None):
    fn = BodyBuilder(name, params=[("x", U64)], ret=U64, is_safe=True)
    b0 = fn.block()
    for _ in range(pad):
        # Nops print in the pretty body, so padding changes exactly
        # this function's fingerprint — a pure body edit.
        b0.nop()
    if callee is None:
        b0.assign(
            fn.ret_place,
            fn.binop("add", fn.copy("x"), fn.const_int(0, U64)),
        )
        b0.ret()
    else:
        b1 = fn.block("bb1")
        r = fn.local("r", U64)
        b0.call(r, callee, [fn.copy("x")], b1)
        b1.assign(fn.ret_place, fn.copy("r"))
        b1.ret()
    return fn.finish()


def _build_demo(params: dict) -> Corpus:
    pad = params.get("pad") or {}
    program = Program()
    program.add_body(_demo_body("demo::leaf", int(pad.get("demo::leaf", 0))))
    program.add_body(
        _demo_body("demo::mid", int(pad.get("demo::mid", 0)), "demo::leaf")
    )
    program.add_body(
        _demo_body("demo::top", int(pad.get("demo::top", 0)), "demo::mid")
    )
    program.add_body(_demo_body("demo::side", int(pad.get("demo::side", 0))))
    contracts = {name: {"ensures": ["result == x"]} for name in DEMO_FNS}
    return Corpus(program, OwnableRegistry(program), contracts)


def _build_linked_list(params: dict) -> Corpus:
    # Lazy: the rustlib program is comparatively expensive to build and
    # most service tests never ask for it.
    from repro.rustlib.contracts import (
        LINKED_LIST_CONTRACTS,
        MANUAL_PURE_PRECONDITIONS,
    )
    from repro.rustlib.linked_list import build_program
    from repro.rustlib.specs import install_callee_specs

    program, ownables = build_program()
    install_callee_specs(program, ownables)
    return Corpus(
        program,
        ownables,
        dict(LINKED_LIST_CONTRACTS),
        dict(MANUAL_PURE_PRECONDITIONS),
    )


register_corpus("demo", _build_demo)
register_corpus("linked_list", _build_linked_list)
