"""One corpus's hot verification state inside the daemon.

A session is what makes the daemon *warm*: the parsed program, the
Ownable registry, the solver (with its result and path-condition
caches) and the merged contract table stay resident across
requests, and a name → fingerprint map records what the session has
already established. A resubmission with nothing changed re-verifies
**zero** functions and never re-enters program setup — the
``service.parse`` / ``service.logic`` spans are absent from the
phases of the request's observation window, which is how the tests
pin it.

The session does three things: keep the program and contract state,
diff its fingerprints against the committed ones and commit what
verified, and shape the response. A function is dirty when it is
``new`` (never committed) or ``changed`` (its fingerprint moved), and
nothing else: a fingerprint hashes the body and the contracts of the
direct callees, so a contract edit dirties the edited function and
its direct callers, and a transitive caller, which only assumed its
direct callee's unchanged contract, stays reused. The verification
itself is :meth:`HybridVerifier.run` — the same lookup–verify–publish
loop as the CLI — driven through its hooks: the daemon's stop signal
and the request's absolute deadline (checked before each function is
handed out, at most ``jobs`` in flight; the undispatched rest drains
to ``error``/``timeout`` entries, publishes nothing and stays dirty).
Each function's fingerprint is computed once per request and shared
by the diff and the run's lookup; it is always taken against the base
:class:`~repro.budget.BudgetSpec` — a deadline tightens the budget
actually run under, never the store key.

The session keeps one verifier until the program reloads, so a dirty
unsafe function re-runs only what its edit can have moved: type safety
is reused after any contract edit, and after an ``ensures``-only edit
the functional obligation consumes the new postcondition against the
exit states its last run left, producing no precondition (see
:mod:`repro.hybrid.pipeline`). Both halves read the verifier's one
contract table and parse each contract on first use.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro import faultinject, obs
from repro.budget import BudgetSpec
from repro.hybrid.pipeline import HybridEntry, HybridVerifier, entries_status
from repro.obs import clock, span
from repro.obs.metrics import metrics
from repro.service.corpus import load_corpus
from repro.solver.core import Solver
from repro.store import ProofStore
from repro.store.store import CACHEABLE_STATUSES


class ServiceSession:
    """Hot state, the fingerprint diff and response shaping for one
    corpus; :meth:`HybridVerifier.run` does the verifying."""

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
        #: One solver for the session's lifetime: its result and
        #: path-condition caches stay hot across program reloads.
        self.solver = solver or Solver()
        #: name -> fingerprint of every function whose deterministic
        #: verdict this session holds. In memory only: a restarted
        #: session trusts nothing, and the store answers what it holds.
        self.committed: dict[str, str] = {}
        self._results: dict[str, list[HybridEntry]] = {}
        self.corpus = None
        self.verifier: Optional[HybridVerifier] = None
        self._params: Optional[dict] = None
        self._overrides: dict = {}
        self._lock = threading.Lock()
        self.requests = 0

    # -- program / contract state -------------------------------------------

    def _ensure_program(self, params: Optional[dict]) -> None:
        """(Re)load the corpus iff needed. The ``service.parse`` and
        ``service.logic`` spans wrap *only* the actual work: their
        absence from a request's window is the observable proof
        that a warm resubmission skipped program setup."""
        params = params or {}
        if self.corpus is not None and params == self._params:
            return
        with span("service.parse"):
            self.corpus = load_corpus(self.name, params)
        self._params = params
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
        with span("service.logic"):
            self.verifier.logic()

    def _merged_contracts(self) -> dict:
        merged = dict(self.corpus.contracts)
        merged.update(self._overrides)
        return merged

    def _ensure_contracts(self, overrides: Optional[dict]) -> None:
        overrides = overrides or {}
        if overrides == self._overrides:
            return
        self._overrides = dict(overrides)
        # Both halves read the verifier's one table and parse each
        # contract when they first use it, so an unchanged contract is
        # never parsed again.
        self.verifier.contracts = self._merged_contracts()

    def diff(self, fps: dict[str, str]) -> dict[str, str]:
        """``name -> "new" | "changed"`` for every function of ``fps``
        (the complete program view) whose fingerprint differs from the
        committed one. Evicts the dirty functions' commitments; the
        caller commits those that come back with a deterministic
        verdict."""
        faultinject.fire("service.invalidate", self.name)
        dirty = {}
        for name, fp in fps.items():
            old = self.committed.get(name)
            if old != fp:
                dirty[name] = "new" if old is None else "changed"
                self.committed.pop(name, None)
        return dirty

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
        with obs.window() as seen:
            self.requests += 1
            metrics.inc("service.requests")
            self._ensure_program(params)
            self._ensure_contracts(contracts)
            verifier = self.verifier
            bodies = verifier.program.bodies
            names = list(dict.fromkeys(functions)) if functions else list(bodies)
            unknown = [n for n in names if n not in bodies]
            if unknown:
                raise KeyError(f"unknown functions: {unknown}")

            verifier.check_logic()
            fps = {n: verifier.fingerprint(n) for n in bodies}
            dirty = self.diff(fps)
            if dirty:
                metrics.inc("service.invalidations", len(dirty))
            for n in dirty:
                self._results.pop(n, None)

            todo = [n for n in names if n in dirty]
            outcomes: dict[str, str] = {}
            if todo:
                report = verifier.run(
                    todo,
                    jobs=jobs,
                    stop=stop_check,
                    deadline=started + deadline if deadline is not None else None,
                    fingerprints=fps,
                )
                outcomes = report.outcomes
                if report.drain_reason:
                    metrics.inc("service.drains")
                # Commit only deterministic verdicts: a timeout/crash/
                # error is a fact about today's machine, not about the
                # function.
                for n, entries in report.by_function().items():
                    self._results[n] = entries
                    if all(e.status in CACHEABLE_STATUSES for e in entries):
                        self.committed[n] = fps[n]

        statuses = {n: entries_status(self._results[n]) for n in names}
        aggregate = entries_status(e for n in names for e in self._results[n])
        return {
            "ok": aggregate == "verified",
            "status": aggregate,
            "functions": statuses,
            "reasons": {n: dirty[n] for n in todo},
            "reverified": sorted(n for n in todo if outcomes[n] == "verified"),
            "cached": sorted(n for n in todo if outcomes[n] == "cached"),
            "reused": sorted(n for n in names if n not in dirty),
            "drained": [n for n in todo if outcomes[n] == "drained"],
            "phases": sorted({phase for _, phase in seen.delta["phases"]}),
            "elapsed": round(clock.monotonic() - started, 6),
        }

    # -- introspection -------------------------------------------------------

    def summary(self) -> dict:
        return {
            "corpus": self.name,
            "requests": self.requests,
            "committed": len(self.committed),
            "loaded": self.corpus is not None,
        }
