"""Layer-boundary spans recorded from outside the program.

:meth:`Tracer.install` replaces each public function named in
:data:`TARGETS` with a timing wrapper. It patches the defining attribute and every
``from ... import`` binding of the same object found in
``sys.modules``, so callers that imported the name directly are traced
too. A method is patched on its class and on every subclass that
overrides it.

A span records its name, start, end, parent span, process, thread, a
context id (the pass or request it belongs to) and optional
attributes. Spans stay in memory. The process that installed the
tracer writes them once, with :meth:`Tracer.write`; a forked worker
appends its own to ``spans-<pid>.jsonl`` each time its outermost span
ends, because a pool worker never returns to the code that forked it.
The harness merges the files.

Spans named in :data:`COUNTED` also record how the program's own
counters (``GLOBAL_STATS``, ``STORE_STATS``, ``PARALLEL_STATS``,
``interner_stats()``) moved while they were open.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

#: ``(span name, module, attribute path)``; the layer is the part of
#: the name before the first dot.
TARGETS = (
    ("pearlite.encode", "repro.pearlite.encode", "PearliteEncoder.encode_contract"),
    ("pearlite.parse", "repro.pearlite.parser", "parse_pearlite"),
    ("gilsonite.spec", "repro.gilsonite.specs", "show_safety_spec"),
    ("gilsonite.spec", "repro.gilsonite.specs", "functional_spec"),
    ("gillian.verify", "repro.gillian.verifier", "verify_function"),
    ("gillian.symex", "repro.gillian.engine", "Engine.run_body"),
    ("gillian.consume", "repro.gillian.consume", "consume"),
    ("gillian.produce", "repro.gillian.produce", "produce"),
    ("gillian.tactic", "repro.gillian.matcher", "unfold"),
    ("gillian.tactic", "repro.gillian.matcher", "fold"),
    ("gillian.tactic", "repro.gillian.matcher", "gunfold"),
    ("gillian.tactic", "repro.gillian.matcher", "gfold"),
    ("solver.check", "repro.solver.core", "Solver.check_sat"),
    ("solver.search", "repro.solver.strategies", "SearchStrategy.search"),
    ("solver.closure", "repro.solver.core", "TheoryBranch.close"),
    ("solver.intervals", "repro.solver.intervals", "LinearStore.propagate"),
    ("creusot.verify", "repro.creusot.vcgen", "CreusotVerifier.verify"),
    ("hybrid.run", "repro.hybrid.pipeline", "HybridVerifier.run"),
    ("hybrid.verify_one", "repro.hybrid.pipeline", "HybridVerifier.verify_one"),
    ("parallel.fanout", "repro.parallel", "fanout"),
    ("store.get", "repro.store.store", "ProofStore.get"),
    ("store.put", "repro.store.store", "ProofStore.put"),
    ("store.flush", "repro.store.store", "ProofStore.flush"),
    ("store.fingerprint", "repro.store.fingerprint", "function_fingerprint"),
    ("store.fingerprint", "repro.store.fingerprint", "logic_digest"),
    ("lang.build", "repro.service.corpus", "load_corpus"),
    ("service.session", "repro.service.session", "ServiceSession.submit"),
    ("service.execute", "repro.service.daemon", "VerifierDaemon._execute"),
)

#: Spans that record the movement of the program's counters.
COUNTED = frozenset({"bench.pass", "service.execute"})


def _attrs(name: str, fn_name: str, args: tuple, kwargs: dict, result) -> dict:
    """Per-call attributes read from arguments and results."""
    if name == "gillian.verify":
        return {"branches": result.branches}
    if name == "creusot.verify":
        return {"vcs": result.vcs}
    if name == "parallel.fanout":
        return {"jobs": args[3] if len(args) > 3 else kwargs.get("jobs", 1)}
    if name == "gillian.tactic":
        return {"tactic": fn_name}
    return {}


def counters() -> dict:
    """A flat snapshot of the program's counters."""
    from repro.parallel import PARALLEL_STATS
    from repro.solver.core import GLOBAL_STATS
    from repro.solver.terms import interner_stats
    from repro.store import STORE_STATS

    out = {f"solver.{k}": v for k, v in GLOBAL_STATS.items()}
    out.update({f"store.{k}": v for k, v in STORE_STATS.items()})
    out.update({f"parallel.{k}": v for k, v in PARALLEL_STATS.items()})
    intern = interner_stats()
    out["intern.hits"] = intern["hits"]
    out["intern.misses"] = intern["misses"]
    return out


def counter_delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


class Tracer:
    """In-memory span recorder for one process (and its forks)."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: list = []
        self.ctx = ""
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        #: The span that was open in the parent when this process
        #: forked; worker root spans hang off it.
        self._fork_parent = None
        self._forked = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _after_fork(self) -> None:
        stack = self._stack()
        self._fork_parent = stack[-1] if stack else self._fork_parent
        self._local = threading.local()
        self._pid = os.getpid()
        self._forked = True
        self.spans = []

    def _begin(self):
        stack = self._stack()
        parent = stack[-1] if stack else self._fork_parent
        sid = f"{self._pid}.{next(self._ids)}"
        stack.append(sid)
        return sid, parent

    def _end(self, sid, parent, name, t0, attrs) -> None:
        t1 = time.perf_counter()
        stack = self._stack()
        stack.pop()
        self.spans.append(
            (sid, parent, name, t0, t1, self._pid, threading.get_ident(), self.ctx, attrs)
        )
        if self._forked and not stack:
            self.write()

    def add(self, name: str, t0: float, t1: float) -> None:
        """Record a span measured by the caller (e.g. imports)."""
        self.spans.append(
            (f"{self._pid}.{next(self._ids)}", None, name, t0, t1, self._pid,
             threading.get_ident(), self.ctx, {})
        )

    @contextmanager
    def span(self, name: str):
        """A span around the caller's own code; yields its attributes."""
        attrs: dict = {}
        sid, parent = self._begin()
        before = counters() if name in COUNTED else None
        t0 = time.perf_counter()
        try:
            yield attrs
        finally:
            if before is not None:
                attrs["counters"] = counter_delta(before, counters())
            self._end(sid, parent, name, t0, attrs)

    def wrap(self, name: str, fn):
        tracer = self
        counted = name in COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "service.execute":
                # The daemon's dispatcher runs one request at a time;
                # everything below it belongs to that request.
                tracer.ctx = args[1].get("id", "")
            sid, parent = tracer._begin()
            before = counters() if counted else None
            t0 = time.perf_counter()
            attrs = {}
            try:
                result = fn(*args, **kwargs)
                attrs = _attrs(name, fn.__name__, args, kwargs, result)
                if counted:
                    attrs["counters"] = counter_delta(before, counters())
                return result
            finally:
                tracer._end(sid, parent, name, t0, attrs)

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for name, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                cls = getattr(module, owner_path)
                for klass in _with_subclasses(cls):
                    if attr in vars(klass):
                        setattr(klass, attr, self.wrap(name, vars(klass)[attr]))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__dict__", None) is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    # -- output --------------------------------------------------------------

    def write(self) -> None:
        """Append this process's spans to its file and forget them."""
        path = os.path.join(self.out_dir, f"spans-{self._pid}.jsonl")
        with open(path, "a") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
        self.spans = []


def _with_subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if klass not in seen:
            seen.append(klass)
            todo.extend(klass.__subclasses__())
    return seen


def read_spans(out_dir: str) -> list[dict]:
    """Every span written under ``out_dir``, from all processes."""
    keys = ("id", "parent", "name", "start", "end", "pid", "tid", "ctx", "attrs")
    spans = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(out_dir, entry)) as fh:
                spans.extend(dict(zip(keys, json.loads(line))) for line in fh if line.strip())
    return spans
