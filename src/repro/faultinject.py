"""Deterministic fault injection for the verification pipeline.

Env-gated via ``REPRO_FAULT`` (or installed programmatically with
:func:`install`); used by ``tests/robustness/`` to prove that every
failure mode degrades into a complete :class:`HybridReport` instead of
an unwound stack. When no rules are active, :func:`fire` is a single
flag check — safe to leave in hot paths.

Rule grammar (comma-separated)::

    site[@match]:action[:arg[:count]]

* ``site``   — an instrumented site name (see below); ``*`` matches all.
* ``match``  — optional substring of the site's context string (for
  verification sites, the function name), so a fault can target one
  function deterministically. Omitted = always matches.
* ``action`` — one of

  - ``crash``       — ``os._exit(arg or 1)``, *only* in a pool worker
    (a process with a parent); in the parent process the rule is
    skipped, which is what lets the pool's serial retry recover the
    item. Simulates a segfaulted / OOM-killed worker.
  - ``raise``       — raise an exception; ``arg`` names the class
    (``WorkerCrashed``, ``EncodingError``, ``StoreCorrupted``,
    ``RuntimeError``, ``ValueError``, ``MemoryError``), default
    :class:`~repro.errors.InjectedFault`.
  - ``delay``       — ``time.sleep(arg)`` seconds (default 0.05), for
    deadline/timeout testing.
  - ``ioerror``     — raise ``OSError(arg or "injected I/O error")``;
    exercises the store's bounded retry/backoff on transient I/O.
  - ``torn``        — truncate the bytes about to hit disk to ``arg``
    bytes (default: half), simulating a crash between ``write`` and
    ``fsync``. Only fires through :func:`corrupt` (store sites).
  - ``bitflip``     — XOR one bit of the bytes about to hit disk at
    offset ``arg`` (default: the middle byte), simulating silent media
    corruption. Only fires through :func:`corrupt`.

* ``count``  — fire at most N times in this process, then go inert
  (unbounded when omitted). Each forked worker inherits its own copy
  of the counters.

Instrumented sites (the :data:`SITES` registry — :func:`parse` warns
on a rule naming a site nobody registered, because such a rule would
silently never fire; new subsystems add theirs via
:func:`register_site`):

======================  =================================================
``parallel.worker``     pool worker entry, context = the task item
``pipeline.verify_one`` hybrid per-function driver, context = fn name
``verifier.function``   ``verify_function`` entry, context = fn name
``engine.step``         each engine basic-block step, context = fn name
``solver.check_sat``    each solver query (cache hit or miss)
``store.write``         proof-store entry publish, context = fn name
``store.read``          proof-store entry lookup, context = fn name
``adversary.replay``    concrete-replay cross-check, context = fn name
``adversary.mutate``    mutation-probe cross-check, context = fn name
``adversary.diff``      differential re-verification, context = fn name
``service.accept``      daemon request admission, context = op name
``service.dispatch``    one function of a stop-hooked run, context = fn name
``service.invalidate``  the session's fingerprint diff, context = session key
``service.drain``       daemon drain/shutdown path, context = reason
======================  =================================================

The three ``adversary.*`` sites sit inside the adversary layer's own
fault boundary: an injected ``raise`` degrades the function's
cross-check entry to ``cross_check_failed`` instead of crashing the
run (see :mod:`repro.adversary`).

The control-flow actions (``crash``/``raise``/``delay``/``ioerror``)
fire through :func:`fire`; the data actions (``torn``/``bitflip``)
fire through :func:`corrupt`, which the store calls on the exact bytes
it is about to write — each helper ignores the other's actions, so one
rule never fires twice.

Examples::

    REPRO_FAULT="parallel.worker@pop_front:crash"
    REPRO_FAULT="verifier.function@push:raise:WorkerCrashed"
    REPRO_FAULT="engine.step@client:delay:0.2,solver.check_sat:raise::1"
    REPRO_FAULT="store.write@fn1:torn::1"       # one torn write, then clean
    REPRO_FAULT="store.read:ioerror"            # every lookup EIOs
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from dataclasses import dataclass
from typing import Optional

from repro.errors import EncodingError, InjectedFault, StoreCorrupted, WorkerCrashed

#: Registered instrumented sites (name -> one-line description). A
#: parse of a rule naming an unknown site *warns* instead of silently
#: never firing; ``examples/hybrid_client.py --list-sites`` dumps this
#: table.
SITES: dict[str, str] = {
    "parallel.worker": "pool worker entry (context: the task item)",
    "pipeline.verify_one": "hybrid per-function driver (context: fn name)",
    "verifier.function": "verify_function entry (context: fn name)",
    "engine.step": "each engine basic-block step (context: fn name)",
    "solver.check_sat": "each solver query (cache hit or miss)",
    "store.write": "proof-store entry publish (context: fn name)",
    "store.read": "proof-store entry lookup (context: fn name)",
    "adversary.replay": "concrete-replay cross-check (context: fn name)",
    "adversary.mutate": "mutation-probe cross-check (context: fn name)",
    "adversary.diff": "differential re-verification (context: fn name)",
    "service.accept": "daemon request admission (context: op name)",
    "service.dispatch": "one function of a stop-hooked run (context: fn name)",
    "service.invalidate": "the session's fingerprint diff (context: session key)",
    "service.drain": "daemon drain/shutdown path (context: reason)",
}


def register_site(name: str, description: str = "") -> None:
    """Register an instrumented site so rules naming it parse cleanly.
    Idempotent; meant for subsystems (and tests) that add their own
    :func:`fire`/:func:`corrupt` call sites."""
    SITES.setdefault(name, description)


def registered_sites() -> dict[str, str]:
    """A copy of the site registry (name -> description)."""
    return dict(SITES)

_EXCEPTIONS = {
    "InjectedFault": InjectedFault,
    "WorkerCrashed": WorkerCrashed,
    "EncodingError": EncodingError,
    "StoreCorrupted": StoreCorrupted,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
    "MemoryError": MemoryError,
}

_ACTIONS = ("crash", "raise", "delay", "ioerror", "torn", "bitflip")

#: Data actions rewrite bytes via :func:`corrupt`; everything else is a
#: control-flow action fired via :func:`fire`.
_DATA_ACTIONS = ("torn", "bitflip")


@dataclass
class _Rule:
    site: str
    match: str
    action: str
    arg: str
    remaining: Optional[int]  # None = unbounded

    def matches(self, site: str, context: str) -> bool:
        if self.remaining == 0:
            return False
        if self.site != "*" and self.site != site:
            return False
        return self.match in context if self.match else True


_rules: list[_Rule] = []
_active = False


def parse(spec: str) -> list[_Rule]:
    """Parse a ``REPRO_FAULT`` spec; malformed rules raise ValueError
    (a fault harness that silently ignores typos tests nothing)."""
    rules = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) < 2:
            raise ValueError(f"fault rule {part!r}: need site:action")
        site, action = fields[0], fields[1]
        arg = fields[2] if len(fields) > 2 else ""
        count = fields[3] if len(fields) > 3 else ""
        match = ""
        if "@" in site:
            site, match = site.split("@", 1)
        if site != "*" and site not in SITES:
            # A typo'd site would otherwise just never fire — the
            # harness would silently test nothing. Warn, keep the rule
            # (a dynamically-registered site may still appear later).
            warnings.warn(
                f"fault rule {part!r}: site {site!r} is not a registered "
                f"instrumented site (see faultinject.registered_sites() / "
                f"examples/hybrid_client.py --list-sites); the rule may "
                f"never fire",
                RuntimeWarning,
                stacklevel=2,
            )
        if action not in _ACTIONS:
            raise ValueError(
                f"fault rule {part!r}: unknown action {action!r} "
                f"(expected one of {_ACTIONS})"
            )
        if action == "raise" and arg and arg not in _EXCEPTIONS:
            raise ValueError(
                f"fault rule {part!r}: unknown exception {arg!r} "
                f"(expected one of {sorted(_EXCEPTIONS)})"
            )
        if action in _DATA_ACTIONS and arg:
            try:
                int(arg)
            except ValueError:
                raise ValueError(
                    f"fault rule {part!r}: {action} takes a byte offset/"
                    f"count, got {arg!r}"
                ) from None
        rules.append(
            _Rule(site, match, action, arg, int(count) if count else None)
        )
    return rules


def install(spec: str) -> None:
    """Programmatically activate a fault spec (replaces any active one)."""
    global _rules, _active
    _rules = parse(spec)
    _active = bool(_rules)


def clear() -> None:
    global _rules, _active
    _rules = []
    _active = False


def reload_env() -> None:
    """Re-read ``REPRO_FAULT`` (tests set it via monkeypatch, then call
    this; forked pool workers inherit the parsed state)."""
    install(os.environ.get("REPRO_FAULT", ""))


def active() -> bool:
    return _active


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def fire(site: str, context: str = "") -> None:
    """Trigger any matching fault at this site. No-op (one flag check)
    when no rules are installed. Data actions (``torn``/``bitflip``)
    are ignored here — they fire through :func:`corrupt`."""
    if not _active:
        return
    for rule in _rules:
        if rule.action in _DATA_ACTIONS:
            continue
        if not rule.matches(site, context):
            continue
        if rule.action == "crash":
            # Only ever kill real pool workers: the parent carries the
            # report. Skipping (not consuming) the rule in the parent
            # is what lets the serial retry of a crashed item succeed.
            if not _in_worker():
                continue
            if rule.remaining is not None:
                rule.remaining -= 1
            os._exit(int(rule.arg) if rule.arg else 1)
        if rule.remaining is not None:
            rule.remaining -= 1
        if rule.action == "delay":
            time.sleep(float(rule.arg) if rule.arg else 0.05)
        elif rule.action == "raise":
            exc = _EXCEPTIONS.get(rule.arg, InjectedFault)
            raise exc(f"fault injected at {site}" + (f" ({context})" if context else ""))
        elif rule.action == "ioerror":
            raise OSError(rule.arg or f"injected I/O error at {site}")


def corrupt(site: str, context: str, data: bytes) -> bytes:
    """Apply any matching *data* fault (``torn``/``bitflip``) to the
    bytes about to be written at this site; returns the (possibly
    rewritten) bytes. Control-flow rules are ignored — they belong to
    :func:`fire`. No-op (one flag check) when no rules are installed."""
    if not _active or not data:
        return data
    for rule in _rules:
        if rule.action not in _DATA_ACTIONS:
            continue
        if not rule.matches(site, context):
            continue
        if rule.remaining is not None:
            rule.remaining -= 1
        if rule.action == "torn":
            keep = int(rule.arg) if rule.arg else len(data) // 2
            return data[: max(0, keep)]
        pos = int(rule.arg) if rule.arg else len(data) // 2
        pos = min(max(0, pos), len(data) - 1)
        flipped = bytearray(data)
        flipped[pos] ^= 0x01
        return bytes(flipped)
    return data


# Activate from the environment at import time so `REPRO_FAULT=... pytest`
# and fork-inherited workers both see the rules without extra plumbing.
if os.environ.get("REPRO_FAULT"):
    reload_env()
