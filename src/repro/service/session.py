"""One corpus's hot verification state inside the daemon.

A session is what makes the daemon *warm*: the parsed program, the
Ownable registry, the solver (with its caches and learned strategy
selector) and the merged contract table stay resident across
requests, and the invalidation index tracks what the session has
already established. A resubmission with nothing changed re-verifies
**zero** functions and never re-enters program setup — the
``service.parse`` / ``service.logic`` spans are absent from the
request's phase delta, which is how the tests pin it.

Dispatch is chunked (chunk = ``jobs``): between chunks the session
checks the request deadline and the daemon's stop signal, so a drain
or an expired deadline costs at most one chunk of latency. Functions
never dispatched degrade to explicit ``error``/``timeout`` entries
and — when a store is attached — a ``{"kind": "drain", "pending":
[...]}`` journal record, the resume set the next submission
re-verifies.

Fingerprints are always computed against the session's *base*
:class:`~repro.budget.BudgetSpec`; a request deadline tightens the
budget actually run under (``BudgetSpec.capped``) but not the store
key — otherwise every deadline would churn every fingerprint and the
store would never hit.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro import faultinject, obs
from repro.budget import BudgetSpec
from repro.creusot.vcgen import _normalise_contract
from repro.errors import WorkerCrashed, StoreCorrupted
from repro.hybrid.pipeline import HybridEntry, HybridVerifier, _SEVERITY
from repro.obs import clock, span
from repro.obs.metrics import metrics
from repro.parallel import fanout, jitter_seed, with_retries
from repro.service.corpus import load_corpus
from repro.service.invalidate import InvalidationIndex, call_graph, reverse_graph
from repro.solver.core import Solver
from repro.store import ProofStore, function_fingerprint, logic_digest
from repro.store.fingerprint import canon
from repro.store.store import CACHEABLE_STATUSES


def entries_status(entries: list[HybridEntry]) -> str:
    """One function's aggregate verdict over its entries."""
    for s in _SEVERITY:
        if any(e.status == s for e in entries):
            return s
    return "verified"


def _service_worker(verifier: HybridVerifier, item) -> tuple:
    """Pool worker (module-level so it pickles by reference): one
    ``(name, force)`` task. ``force`` bypasses the store *read* — an
    invalidated transitive caller's fingerprint is unchanged, so a
    lookup would resurrect the pre-edit entry — but the fresh result
    still publishes (overwriting the entry under the same key).
    Returns ``(entries, how)`` with ``how in ("cached", "verified")``
    so the parent can report exactly what was re-verified."""
    name, force = item
    store, fp = verifier.store, verifier._run_fps.get(name)
    if not force and store is not None and fp:
        try:
            with span("store.lookup", function=name):
                hit = store.get(fp, context=name)
        except StoreCorrupted:
            hit = None  # strict mode: the entry is gone either way
        if hit is not None:
            return hit, "cached"
    entries = verifier.verify_one(name)
    verifier._publish(name, entries)
    return entries, "verified"


class ServiceSession:
    """Hot state + the dirty-set dispatch loop for one corpus."""

    def __init__(
        self,
        corpus_name: str,
        store: Optional[ProofStore] = None,
        budget: Optional[BudgetSpec] = None,
        solver: Optional[Solver] = None,
    ) -> None:
        self.name = corpus_name
        self.store = store
        self.base_budget = budget if budget is not None else BudgetSpec.from_env()
        #: One solver for the session's lifetime: its result cache and
        #: strategy selector stay hot across program reloads.
        self.solver = solver or Solver()
        self.index = InvalidationIndex()
        self._results: dict[str, list[HybridEntry]] = {}
        self.corpus = None
        self.verifier: Optional[HybridVerifier] = None
        self._params: Optional[dict] = None
        self._overrides: dict = {}
        self._logic: Optional[str] = None
        self._rev: dict[str, set[str]] = {}
        self._lock = threading.Lock()
        self.requests = 0

    # -- program / contract state -------------------------------------------

    def _ensure_program(self, params: Optional[dict]) -> None:
        """(Re)load the corpus iff needed. The ``service.parse`` and
        ``service.logic`` spans wrap *only* the actual work: their
        absence from a request's phase delta is the observable proof
        that a warm resubmission skipped program setup."""
        params = params or {}
        if self.corpus is not None and params == self._params:
            return
        with span("service.parse"):
            self.corpus = load_corpus(self.name, params)
        self._params = params
        self._rev = reverse_graph(call_graph(self.corpus.program))
        with span("service.logic"):
            self._logic = logic_digest(
                self.corpus.program, self.corpus.ownables
            )
        self.verifier = HybridVerifier(
            self.corpus.program,
            self.corpus.ownables,
            self._merged_contracts(),
            solver=self.solver,
            manual_pure_pre=self.corpus.manual_pure_pre,
            auto_extract=self.corpus.auto_extract,
            budget=self.base_budget,
            store=self.store,
        )

    def _merged_contracts(self) -> dict:
        merged = dict(self.corpus.contracts)
        merged.update(self._overrides)
        return merged

    def _ensure_contracts(self, overrides: Optional[dict]) -> None:
        overrides = overrides or {}
        if overrides == self._overrides:
            return
        self._overrides = dict(overrides)
        merged = self._merged_contracts()
        self.verifier.contracts = merged
        # The Creusot half normalises contracts at construction; keep
        # its view in lock-step with the session's.
        self.verifier.creusot.contracts = {
            k: _normalise_contract(v) for k, v in merged.items()
        }

    # -- the request path ----------------------------------------------------

    def submit(
        self,
        functions: Optional[list[str]] = None,
        params: Optional[dict] = None,
        contracts: Optional[dict] = None,
        deadline: Optional[float] = None,
        jobs: int = 1,
        stop_check: Optional[Callable[[], Optional[str]]] = None,
    ) -> dict:
        """Verify the requested functions incrementally; returns the
        response payload (plain data, protocol-ready). Never raises
        for per-function failures — only for malformed requests
        (unknown corpus/function), which the daemon maps to
        ``bad-request``."""
        with self._lock:
            return self._submit(
                functions, params, contracts, deadline, jobs, stop_check
            )

    def _submit(self, functions, params, contracts, deadline, jobs, stop_check):
        started = clock.monotonic()
        deadline_at = started + deadline if deadline is not None else None
        phases_before = obs.phases_snapshot()
        self.requests += 1
        metrics.inc("service.requests")
        self._ensure_program(params)
        self._ensure_contracts(contracts)
        program = self.corpus.program
        names = list(functions) if functions else list(program.bodies)
        unknown = [n for n in names if n not in program.bodies]
        if unknown:
            raise KeyError(f"unknown functions: {unknown}")

        merged = self.verifier.contracts
        fps = {
            n: function_fingerprint(
                n,
                program=program,
                contracts=merged,
                manual_pure_pre=self.corpus.manual_pure_pre,
                auto_extract=self.corpus.auto_extract,
                budget=self.base_budget,
                logic=self._logic,
            )
            for n in program.bodies
        }
        digests = {n: canon(merged.get(n)) for n in program.bodies}
        dirty = self.index.diff(fps, digests, self._rev, self.name)
        if dirty.reasons:
            metrics.inc("service.invalidations", len(dirty.reasons))
        for n in dirty.reasons:
            self._results.pop(n, None)

        todo = [n for n in names if n in dirty.reasons]
        results, how, drained = self._dispatch(
            todo, fps, dirty.force, jobs, deadline_at, stop_check
        )

        # Commit only deterministic verdicts: a timeout/crash/error is
        # a fact about today's machine, not about the function.
        for n, entries in results.items():
            self._results[n] = entries
            if all(e.status in CACHEABLE_STATUSES for e in entries):
                self.index.commit(n, fps[n])

        statuses, missing = {}, []
        for n in names:
            entries = self._results.get(n)
            if entries is None:
                missing.append(n)  # drained before any result existed
                statuses[n] = "error"
            else:
                statuses[n] = entries_status(entries)
        aggregate = "verified"
        for s in _SEVERITY:
            if s in statuses.values():
                aggregate = s
                break
        phase_delta = obs.phases_since(phases_before)
        return {
            "ok": aggregate == "verified",
            "status": aggregate,
            "functions": statuses,
            "reasons": {n: dirty.reasons[n] for n in todo},
            "reverified": sorted(n for n, h in how.items() if h == "verified"),
            "cached": sorted(n for n, h in how.items() if h == "cached"),
            "reused": sorted(
                n for n in names if n not in dirty.reasons
            ),
            "drained": drained,
            "phases": sorted(
                {ph for fn in phase_delta.values() for ph in fn}
            ),
            "elapsed": round(clock.monotonic() - started, 6),
        }

    def _dispatch(self, todo, fps, force, jobs, deadline_at, stop_check):
        """Chunked dispatch with drain/deadline checks between chunks.
        Returns ``(results, how, drained)``; drained functions get
        explicit degraded entries and a journal record — never a
        silent hole in the response."""
        results: dict[str, list[HybridEntry]] = {}
        how: dict[str, str] = {}
        drained: list[str] = []
        if not todo:
            return results, how, drained
        verifier = self.verifier
        verifier._run_fps = dict(fps)
        if self.store is not None:
            self.store.begin_run(todo)
        chunk_size = max(1, jobs)
        stopped = None
        try:
            for at in range(0, len(todo), chunk_size):
                chunk = todo[at : at + chunk_size]
                stopped = stop_check() if stop_check is not None else None
                remaining = (
                    deadline_at - clock.monotonic()
                    if deadline_at is not None
                    else None
                )
                if stopped is None and remaining is not None and remaining <= 0:
                    stopped = "deadline"
                if stopped is not None:
                    rest = todo[at:]
                    status = "timeout" if stopped == "deadline" else "error"
                    for n in rest:
                        results[n] = [
                            HybridEntry(
                                n,
                                "creusot"
                                if verifier.program.bodies[n].is_safe
                                else "gillian-rust",
                                ok=False,
                                detail=None,
                                note=f"drained before verification ({stopped})",
                                status=status,
                            )
                        ]
                        how[n] = "drained"
                    drained.extend(rest)
                    self._journal_drain(rest, stopped)
                    break
                faultinject.fire("service.dispatch", self.name)
                if remaining is not None:
                    verifier.budget = self.base_budget.capped(
                        deadline=remaining
                    )
                chunk_items = [(n, n in force) for n in chunk]
                out = fanout(
                    _service_worker,
                    verifier,
                    chunk_items,
                    jobs,
                    on_error=lambda item, exc: (
                        [verifier._failure_entry(item[0], exc)],
                        "verified",
                    ),
                )
                for n, (entries, h) in zip(chunk, out):
                    if any(e.status == "crashed" for e in entries):
                        entries = self._retry_crashed(n, entries)
                    results[n] = entries
                    how[n] = h
                if self.store is not None:
                    # Chunk boundary = checkpoint boundary: every
                    # write-behind publish acknowledged above must be
                    # durable before the next drain/deadline check can
                    # end the request.
                    self.store.flush()
        finally:
            verifier.budget = self.base_budget
            if self.store is not None:
                if stopped is None:
                    self.store.end_run()
                else:
                    # Drained mid-run: no "end" record (the run *was*
                    # interrupted), but whatever results were already
                    # handed back must still land on disk.
                    self.store.flush()
        return results, how, drained

    def _retry_crashed(self, name: str, entries: list[HybridEntry]):
        """One bounded, backed-off serial retry round for a function
        whose entries report ``crashed`` — the daemon's second line of
        defence after the pool's own serial retry (covers crashes that
        also poisoned the retry, e.g. a wedged store lock)."""

        def attempt():
            fresh = self.verifier.verify_one(name)
            if any(e.status == "crashed" for e in fresh):
                raise WorkerCrashed(f"{name} crashed again on service retry")
            return fresh

        metrics.inc("service.retries")
        try:
            fresh = with_retries(
                attempt,
                attempts=2,
                backoff=0.05,
                exceptions=(WorkerCrashed,),
                seed=jitter_seed(name),
            )
        except WorkerCrashed:
            return entries  # keep the honest crashed entries
        self.verifier._publish(name, fresh)
        return fresh

    def _journal_drain(self, pending: list[str], reason: str) -> None:
        faultinject.fire("service.drain", reason)
        metrics.inc("service.drains")
        if self.store is None or not pending:
            return
        self.store.journal.append({"kind": "drain", "pending": list(pending)})

    # -- introspection -------------------------------------------------------

    def summary(self) -> dict:
        return {
            "corpus": self.name,
            "requests": self.requests,
            "committed": len(self.index.fps),
            "pending_force": sorted(self.index.pending_force),
            "loaded": self.corpus is not None,
        }
