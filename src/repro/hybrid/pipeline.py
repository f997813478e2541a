"""The hybrid verification pipeline: Creusot + Gillian-Rust (§2.1).

Mirroring the split between safe and unsafe Rust:

* **safe** bodies are verified by the Creusot half
  (:mod:`repro.creusot.vcgen`) against their Pearlite contracts; at
  call sites, callee contracts are *assumed* — including those of
  unsafe APIs, which Creusot can specify but not verify;
* **unsafe** bodies are delegated to Gillian-Rust: their Pearlite
  contracts are systematically encoded into Gilsonite (§5.4,
  :mod:`repro.pearlite.encode`) and verified by compositional symbolic
  execution. Type safety (``#[show_safety]``) is verified alongside.

The pipeline therefore *discharges* the axioms the safe half relies
on: every unsafe contract assumed by Creusot is proven by Gillian-Rust
against the real implementation — end-to-end verification, with each
tool doing what it is specialised for.

A verifier that runs again after a contract edit reuses what the edit
cannot have moved. The type-safety obligation depends on no contract,
so it is reused whole. The functional obligation reads its
postcondition only in its last stage (:mod:`repro.gillian.verifier`):
when the encoded precondition side is unchanged — an ``ensures``-only
edit — the function's exit states from the last run stand in for
symbolic execution, and only the postcondition is consumed again.
Both records live in this process alone; pool workers may read the
ones they inherit, but what they make is not shipped back.

Functions are verified independently, so :meth:`HybridVerifier.run`
can fan the per-function Creusot/Gillian-Rust jobs out over a
process pool (``jobs=N``); ``jobs=1`` (the default) preserves the
deterministic serial path and report ordering exactly.

With a :class:`~repro.store.ProofStore` attached (``store=...`` or
``REPRO_CACHE=1``), completed proofs persist across process death:
``run`` looks every function up by its content fingerprint first,
verifies only the misses, and publishes each fresh result atomically
as soon as it arrives (a ``kill -9`` mid-run loses at most the
in-flight functions, and the next run resumes from the store with a
report identical to an uninterrupted one, modulo wall-clock). Only
the process that called ``run`` touches the store: pool workers
compute, the parent looks up and publishes. The entry file is the
only record: a function is completed exactly when its entry exists,
and a function that was never dispatched is a store miss next time.
``run`` is the only lookup–verify–publish loop and has one dispatch
loop (:func:`repro.parallel.fanout`, serial at ``jobs=1``): the
daemon (:mod:`repro.service`) drives it too, through its stop hook
and deadline, checked before each function is handed out.

All wall-clock bookkeeping here uses the deadline clock of
:mod:`repro.obs.clock` (``time.monotonic``, like :mod:`repro.budget`):
report timing and resume accounting must never step backwards under
NTP/clock adjustments.

Observability: every pipeline phase runs under a :func:`repro.obs.span`
(``verify`` → ``encode`` / ``vcgen`` / ``symex`` / ``solve`` /
``store.*``), so any run can print a per-function phase-time breakdown
(``report.render(verbose=True)``). The report's counters, phase times
and slowest queries all come from one observation window
(:class:`repro.obs.trace.window`) around the run, from the store
lookup to the last entry; forked workers' windows are merged into it.
The adversarial cross-check (:func:`repro.adversary.cross_check`)
runs after ``run`` returns, outside that window, so the counters
are the verification's alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from repro import faultinject, obs
from repro.budget import Budget, BudgetSpec
from repro.errors import BudgetExhausted, EncodingError, status_of
from repro.obs import clock, span
from repro.obs import report as obs_report
from repro.obs.metrics import metrics
from repro.parallel import PARALLEL_STATS, fanout
from repro.store import (
    CACHEABLE_STATUSES,
    ProofStore,
    STORE_STATS,
    function_fingerprint,
    logic_digest,
)
from repro.store.fingerprint import callees, canon, logic_tables

from repro.creusot.vcgen import CreusotResult, CreusotVerifier
from repro.gillian.verifier import ExitRecord, VerificationResult, verify_function
from repro.gilsonite.ownable import OwnableRegistry
from repro.gilsonite.specs import Spec, show_safety_spec
from repro.lang.mir import Body, Program
from repro.lang.pretty import pretty_body
from repro.pearlite.ast import PearliteSpec
from repro.pearlite.encode import PearliteEncoder
from repro.solver.core import Solver


#: Per-entry verdicts, in report-aggregation precedence order (a report
#: containing a crash is "crashed" even if another entry merely refuted).
STATUSES = ("verified", "refuted", "timeout", "crashed", "error")
_SEVERITY = ("error", "crashed", "timeout", "refuted")


def entries_status(entries: Iterable["HybridEntry"]) -> str:
    """The most severe status among ``entries``; ``verified`` when
    every entry verified (or there are none)."""
    present = {e.status for e in entries}
    return next((s for s in _SEVERITY if s in present), "verified")


@dataclass
class HybridEntry:
    function: str
    half: str  # "creusot" | "gillian-rust"
    ok: bool
    detail: Union[CreusotResult, VerificationResult, None]
    note: str = ""
    #: ``verified | refuted | timeout | crashed | error``; defaults
    #: from ``ok`` so pre-existing construction sites stay valid.
    status: str = ""

    def __post_init__(self) -> None:
        if not self.status:
            self.status = "verified" if self.ok else "refuted"

    def __str__(self) -> str:
        mark = "✓" if self.ok else "✗"
        note = self.note
        if self.status not in ("verified", "refuted"):
            note = f"{self.status.upper()}: {note}" if note else self.status.upper()
        return f"{mark} {self.function:42s} [{self.half}] {note}"


@dataclass
class HybridReport:
    entries: list[HybridEntry] = field(default_factory=list)
    elapsed: float = 0.0
    # The counters and profiles below are projections of run()'s one
    # observation window (:class:`repro.obs.trace.window`): this run's
    # work only, forked workers' included.
    #: Solver work and degradation counters (the ``solver`` group).
    solver_stats: dict = field(default_factory=dict)
    #: Pool fault/retry counters (the ``parallel`` group).
    parallel_stats: dict = field(default_factory=dict)
    #: Proof-store hit/miss/quarantine counters (the ``store`` group);
    #: empty when no store was attached.
    store_stats: dict = field(default_factory=dict)
    #: Per-function phase times, in the
    #: :func:`repro.obs.trace.phase_table` shape
    #: ``{function: {phase: {calls,total,self}}}``.
    phase_stats: dict = field(default_factory=dict)
    #: Slowest solver queries
    #: (``[{seconds, function, query}, …]``, slowest first).
    top_queries: list = field(default_factory=list)
    #: How each function's answer came about in this run: ``cached``
    #: (a store hit), ``verified`` (run now) or ``drained``
    #: (the stop hook or the deadline fired before it was handed out).
    outcomes: dict = field(default_factory=dict)
    #: Why the run drained (the stop hook's reason, or ``deadline``);
    #: empty for a run that dispatched everything.
    drain_reason: str = ""
    #: Type-safety obligations answered by the entry an earlier run of
    #: this verifier produced: their body, logic and budget had not
    #: changed, only (perhaps) contracts.
    safety_reused: int = 0
    #: Functional obligations that consumed their postcondition against
    #: the exit states an earlier run of this verifier left: nothing
    #: but (perhaps) the postcondition had changed.
    post_reused: int = 0
    #: The ``tactic.*`` / ``gillian.*`` registry counters of this run.
    tactic_stats: dict = field(default_factory=dict, init=False)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def by_function(self) -> dict[str, list[HybridEntry]]:
        """The entries grouped per function, in report order."""
        out: dict[str, list[HybridEntry]] = {}
        for e in self.entries:
            out.setdefault(e.function, []).append(e)
        return out

    @property
    def counters(self) -> dict[str, int]:
        out = {s: 0 for s in STATUSES}
        for e in self.entries:
            out[e.status] = out.get(e.status, 0) + 1
        return out

    @property
    def status(self) -> str:
        """Aggregate verdict: ``verified`` iff every entry verified,
        else the most severe per-entry status present."""
        return entries_status(self.entries)

    def render(self, verbose: bool = False) -> str:
        """The run report; ``verbose=True`` appends the profiling
        sections (per-function phase breakdown, slowest solver
        queries, tactic counts)."""
        lines = ["function                                     half          note"]
        lines += [str(e) for e in self.entries]
        c = self.counters
        summary = ", ".join(f"{c[s]} {s}" for s in STATUSES if c[s]) or "0 entries"
        if self.ok:
            lines.append(f"-- ALL VERIFIED: {summary} in {self.elapsed:.2f}s --")
        else:
            lines.append(f"-- {summary} in {self.elapsed:.2f}s --")
        ss = self.solver_stats
        if ss.get("unknowns") or ss.get("budget_stops"):
            lines.append(
                f"-- solver: {ss.get('checks', 0)} checks, "
                f"{ss.get('unknowns', 0)} unknown (branch cap), "
                f"{ss.get('budget_stops', 0)} budget stops --"
            )
        ps = self.parallel_stats
        if ps and any(ps.values()):
            lines.append(
                f"-- pool: {ps.get('fanouts', 0)} fanouts, "
                f"{ps.get('worker_failures', 0)} worker failures, "
                f"{ps.get('broken_pools', 0)} broken pools, "
                f"{ps.get('serial_retries', 0)} serial retries --"
            )
        st = self.store_stats
        if st:
            lines.append(
                f"-- store: {st.get('hits', 0)} hits, "
                f"{st.get('misses', 0)} misses, "
                f"{st.get('stores', 0)} stored, "
                f"{st.get('quarantined', 0)} quarantined, "
                f"{st.get('healed', 0)} healed, "
                f"{st.get('disk_reads', 0)} disk reads --"
            )
        if verbose:
            if self.safety_reused:
                lines.append(
                    f"-- type safety: {self.safety_reused} reused "
                    "from an earlier run --"
                )
            if self.post_reused:
                lines.append(
                    f"-- functional: {self.post_reused} re-checked only the "
                    "postcondition, on exit states from an earlier run --"
                )
            searched = ("alpha_hits", "prefix_hits", "prefix_misses")
            if any(ss.get(k) for k in searched):
                lines.append(
                    f"-- solver: {ss.get('checks', 0)} checks, "
                    f"{ss.get('alpha_hits', 0)} alpha-memo hits, "
                    f"path-condition prefix {ss.get('prefix_hits', 0)} hits / "
                    f"{ss.get('prefix_extends', 0)} extended / "
                    f"{ss.get('prefix_misses', 0)} misses --"
                )
            lines.append("")
            lines.append(
                obs_report.render_profile(
                    self.phase_stats, self.top_queries, self.tactic_stats
                )
            )
        return "\n".join(lines)


class HybridVerifier:
    """Drives both halves over one program.

    Contracts, the budget, whole bodies and whole entries of the logic
    tables (predicates, lemmas, ownables, installed specs) may be
    added, removed or replaced between runs: :meth:`check_logic`, at
    the start of every run, re-derives the logic digest when a table
    entry moved. An entry mutated in place, and the Ownable registry,
    stay fixed for the verifier's lifetime; the daemon builds a new
    verifier on every program reload."""

    def __init__(
        self,
        program: Program,
        ownables: OwnableRegistry,
        contracts: dict[str, Union[PearliteSpec, dict]],
        solver: Optional[Solver] = None,
        manual_pure_pre: Optional[dict[str, list]] = None,
        auto_extract: bool = False,
        budget: Optional[BudgetSpec] = None,
        store: Optional[ProofStore] = None,
    ) -> None:
        self.program = program
        self.ownables = ownables
        self.solver = solver or Solver()
        self.encoder = PearliteEncoder(ownables)
        #: Holds the contract table (see :attr:`contracts`) and parses
        #: each contract on first use, for both halves.
        self.creusot = CreusotVerifier(program, ownables, contracts, self.solver)
        self.manual_pure_pre = manual_pure_pre or {}
        self.auto_extract = auto_extract
        #: Per-function budget spec; each function gets a fresh running
        #: Budget minted from it. Default: ``REPRO_DEADLINE`` only.
        self.budget = budget if budget is not None else BudgetSpec.from_env()
        #: Persistent proof store; default: the REPRO_CACHE env knobs
        #: (``None`` — no caching — unless ``REPRO_CACHE=1``).
        self.store = store if store is not None else ProofStore.from_env()
        #: name -> fingerprint for the functions of the current run(),
        #: under which the parent publishes each fresh result.
        self._run_fps: dict[str, str] = {}
        #: The logic digest, computed on first use and dropped by
        #: check_logic() when a logic table entry moved.
        self._logic: Optional[str] = None
        #: (label, name, id) of every logic table entry at the last
        #: check_logic() (the first runs at construction), and the
        #: entries themselves, held so that no id is reused while it is
        #: compared against.
        self._logic_ids: tuple = ()
        self._logic_pins: list = []
        #: The current run()'s absolute deadline
        #: (:func:`repro.obs.clock.monotonic`), read by verify_one in
        #: the parent and in forked workers alike.
        self._deadline: Optional[float] = None
        #: name -> (body, its pretty text): each body printed once.
        self._texts: dict[str, tuple[Body, str]] = {}
        #: (name, obligation) -> (key, record): what each unsafe
        #: function's last run left for the next (see :meth:`_reuse_key`).
        #: ``"safety"`` holds the deterministic type-safety entry,
        #: recorded by run() from every result; ``"post"`` the
        #: :class:`~repro.gillian.verifier.ExitRecord` of the functional
        #: obligation, recorded by verify_one in this process only.
        self._kept: dict[tuple[str, str], tuple[tuple, object]] = {}
        #: The process that owns the verifier: forked workers record
        #: nothing, since their records could not come back.
        self._owner = os.getpid()
        self.check_logic()

    @property
    def contracts(self) -> dict[str, Union[PearliteSpec, dict]]:
        """name -> Pearlite contract (raw or parsed). Entries may be
        replaced, and the table may be swapped, between runs; both
        halves read this one table."""
        return self.creusot.contracts

    @contracts.setter
    def contracts(self, table: dict[str, Union[PearliteSpec, dict]]) -> None:
        self.creusot.contracts = table

    def logic(self) -> str:
        """The program-wide logic digest every fingerprint folds in."""
        if self._logic is None:
            self._logic = logic_digest(self.program, self.ownables)
        return self._logic

    def check_logic(self) -> None:
        """Forget the logic digest and every reuse record if a
        logic table entry was added, removed or replaced since the last
        check. It compares identities, not contents (microseconds, not
        the digest's milliseconds); run() calls it once, and the
        daemon's session once per request."""
        entries = list(logic_tables(self.program))
        ids = tuple((label, name, id(value)) for label, name, value in entries)
        if ids != self._logic_ids:
            self._logic, self._kept = None, {}
            self._logic_ids, self._logic_pins = ids, entries

    def _body_text(self, name: str) -> str:
        """``name``'s pretty-printed body, printed once per body."""
        body = self.program.bodies[name]
        known = self._texts.get(name)
        if known is None or known[0] is not body:
            known = self._texts[name] = (body, pretty_body(body))
        return known[1]

    def fingerprint(self, name: str) -> str:
        """``name``'s store key under the current contracts and the
        base budget."""
        return function_fingerprint(
            name,
            program=self.program,
            contracts=self.contracts,
            manual_pure_pre=self.manual_pure_pre,
            auto_extract=self.auto_extract,
            budget=self.budget,
            logic=self.logic(),
            body_text=self._body_text(name),
        )

    def _reuse_key(self, name: str, spec: Optional[Spec] = None) -> Optional[tuple]:
        """What a record of ``name`` depends on and may change within
        this verifier, read under the base budget: for type safety
        (``spec=None``) the verdict, for the functional ``spec`` the
        exit states of stage A.

        The ``#[show_safety]`` spec is built from the signature, so the
        verdict depends on the body, the logic context and the budget,
        and on no contract. A moved logic table drops every record
        (:meth:`check_logic`), which leaves the body's text and the
        base budget. Stage A reads these too, and the precondition side
        of ``spec``: its ``pre``, binders and ``kind``, compared by
        value (terms are hash-consed). The direct callees' contracts
        join the key as well, as they do the fingerprint, though the
        Gillian half calls through installed specs (logic).

        ``None`` — nothing is reused — when the budget counts steps,
        solver queries or branches: the obligations share one running
        budget, so a verdict would then depend on what was spent
        before it."""
        budget = self.budget
        if budget is not None and (
            budget.max_steps is not None
            or budget.max_solver_queries is not None
            or budget.max_branches is not None
        ):
            return None
        key = (self._body_text(name), budget)
        if spec is None:
            return key
        contracts = self.contracts
        return key + (
            spec.pre, spec.param_vars, spec.forall, spec.lifetime_var, spec.kind,
            tuple(
                (c, canon(contracts.get(c)))
                for c in callees(self.program.bodies[name])
            ),
        )

    def _recall(
        self, name: str, obligation: str, spec: Optional[Spec] = None
    ) -> tuple[Optional[tuple], object]:
        """``(key, record)``: ``name``'s current key for ``obligation``,
        and its record if that key has not moved (else ``None``). The
        key is computed only where it can be used: for a function with
        a record, or in the owning process, which records."""
        known = self._kept.get((name, obligation))
        if known is None and os.getpid() != self._owner:
            return None, None
        key = self._reuse_key(name, spec)
        if known is not None and key is not None and known[0] == key:
            return key, known[1]
        return key, None

    def verify_one(self, name: str) -> list[HybridEntry]:
        """Verify one function, degrading every failure mode into
        ✗-with-reason entries — this is the pipeline's fault boundary;
        no exception escapes it. Inside a run with a deadline the
        budget is capped by the time left before it."""
        spec = self.budget
        if self._deadline is not None:
            spec = spec.capped(deadline=self._deadline - clock.monotonic())
        budget = spec.start() if spec else None
        with span("verify", function=name):
            try:
                faultinject.fire("pipeline.verify_one", name)
                entries = self._verify_one_inner(name, budget)
            except Exception as e:  # BudgetExhausted → timeout, …
                return [self._failure_entry(name, e)]
        return entries

    def _failure_entry(self, name: str, exc: BaseException) -> HybridEntry:
        return self._degraded_entry(
            name, str(exc) or type(exc).__name__, status_of(exc)
        )

    def _degraded_entry(self, name: str, note: str, status: str) -> HybridEntry:
        body = self.program.bodies.get(name)
        half = (
            "creusot" if body is not None and body.is_safe else "gillian-rust"
        )
        return HybridEntry(
            name, half, ok=False, detail=None, note=note, status=status
        )

    def _verify_one_inner(
        self, name: str, budget: Optional[Budget]
    ) -> list[HybridEntry]:
        body = self.program.bodies[name]
        # Both halves share the solver; install this function's budget
        # for the whole per-function run (the Creusot half has no budget
        # parameter of its own — it is bounded through the solver).
        # The alpha memo is scoped to the function, so its hits are the
        # same whichever process or run verified other functions.
        prev_budget, prev_scope = self.solver.budget, self.solver.scope
        if budget is not None:
            self.solver.budget = budget
        self.solver.scope = name
        try:
            if body.is_safe:
                r = self.creusot.verify(body)
                return [
                    HybridEntry(
                        name, "creusot", r.ok, r,
                        note=f"{r.vcs} VCs, {r.elapsed * 1000:.0f} ms",
                    )
                ]
            # Type safety first (show_safety), then the Pearlite contract.
            _, safety = self._recall(name, "safety")
            reused = ["hybrid.safety_reused"] if safety is not None else []
            if safety is None:
                rs = verify_function(
                    self.program, body, show_safety_spec(self.ownables, body),
                    self.solver, budget=budget,
                )
                safety = HybridEntry(
                    name, "gillian-rust", rs.ok, rs,
                    note=f"type safety, {rs.elapsed * 1000:.0f} ms",
                    status=rs.status,
                )
            entries = [safety]
            contract = self.contracts.get(name)
            if contract is not None and _has_clauses(contract):
                from repro.pearlite.parser import parse_pearlite

                try:
                    manual = [
                        parse_pearlite(p) if isinstance(p, str) else p
                        for p in self.manual_pure_pre.get(name, [])
                    ]
                    spec = self.encoder.encode_contract(
                        body, self.creusot.contract(name),
                        auto_extract=self.auto_extract, manual_pure_pre=manual,
                    )
                except BudgetExhausted:
                    raise
                except Exception as e:
                    raise EncodingError(
                        f"cannot encode contract of {name}: {e}"
                    ) from e
                key, record = self._recall(name, "post", spec)
                if record is not None:
                    reused.append("hybrid.post_reused")
                else:
                    record = ExitRecord()
                rf = verify_function(
                    self.program, body, spec, self.solver, budget=budget,
                    record=record,
                )
                if (
                    key is not None and record.states is not None
                    and os.getpid() == self._owner
                ):
                    self._kept[(name, "post")] = (key, record)
                entries.append(
                    HybridEntry(
                        name, "gillian-rust", rf.ok, rf,
                        note=f"functional (Pearlite), {rf.elapsed * 1000:.0f} ms",
                        status=rf.status,
                    )
                )
            for counter in reused:
                metrics.inc(counter)
            return entries
        finally:
            self.solver.budget, self.solver.scope = prev_budget, prev_scope

    def run(
        self,
        functions: Optional[list[str]] = None,
        jobs: int = 1,
        *,
        stop: Optional[Callable[[], Optional[str]]] = None,
        deadline: Optional[float] = None,
        fingerprints: Optional[dict[str, str]] = None,
    ) -> HybridReport:
        """Verify ``functions`` (default: every body in the program).

        ``jobs=1`` runs today's deterministic serial path; ``jobs=N``
        fans the per-function verifications out over a fork-based
        process pool, reassembling entries in the serial order.
        ``jobs`` below 1 (or ``None``) is refused with
        :class:`ValueError`.

        Always returns a *complete* report: per-function failures of
        any kind (budget exhaustion, worker crash, internal error)
        become entries with the matching ``status``; a worker killed
        mid-flight is retried serially before being reported crashed.

        With a store attached, cached functions are answered from disk
        and only the misses are verified. This process publishes each
        fresh result the moment it arrives — checkpointing: a killed
        run resumes from here. ``report.outcomes`` says which answer
        came from where.

        Hooks for a long-lived caller (the daemon's session):

        * ``stop`` returns a drain reason or ``None``; ``deadline`` is
          an absolute :func:`repro.obs.clock.monotonic` time. With
          either set, the misses are handed out in caller order, at
          most ``jobs`` in flight. Before each function is handed out
          the hook and the deadline are checked; once one fires, the
          rest become ``error`` (or ``timeout``) entries and publish
          nothing, so the next run misses on them.
        * ``fingerprints`` supplies store keys already computed for
          ``functions`` (under the same contracts and budget).

        With a deadline, each function's budget is capped by the time
        left before it when it starts; fingerprints stay on the
        uncapped budget.

        The verifier keeps each unsafe function's deterministic
        type-safety entry across runs. A function verified again with
        the same body under the same base budget — after a contract
        edit, its own or a callee's — reuses that entry and runs only
        its functional obligation (``report.safety_reused``). In this
        process it also keeps the exit states of that obligation's last
        clean stage A: when an edit left the encoded precondition side
        and the callees' contracts as they were, only the postcondition
        is consumed again (``report.post_reused``).
        """
        started = clock.monotonic()
        report = HybridReport()
        names = functions if functions is not None else list(self.program.bodies)
        if jobs is None or jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        self.check_logic()
        with obs.window() as seen:
            cached = self._lookup_cached(names, fingerprints or {})
            pending = [n for n in names if n not in cached]
            worker, halt = _verify_worker, None
            if stop is not None or deadline is not None:
                worker = _dispatch_worker

                def halt() -> Optional[str]:
                    reason = stop() if stop is not None else None
                    if reason is None and deadline is not None and (
                        clock.monotonic() >= deadline
                    ):
                        reason = "deadline"
                    if reason is not None:
                        report.drain_reason = reason
                    return reason

            elif jobs > 1:
                # Longest estimate first, so the slow functions don't
                # start last and leave one worker finishing alone; the
                # stable sort keeps submission order among ties.
                pending.sort(
                    key=lambda n: _estimate_cost(
                        self.program.bodies.get(n), self.contracts.get(n)
                    ),
                    reverse=True,
                )
            # Set before the fan-out, so forked workers inherit it.
            self._deadline = deadline
            try:
                results = fanout(
                    worker,
                    self,
                    pending,
                    jobs,
                    on_error=lambda name, exc: [self._failure_entry(name, exc)],
                    on_result=self._publish,
                    stop=halt,
                )
            finally:
                self._deadline = None
            fresh = dict(zip(pending, results))
            reason = report.drain_reason
            for name in names:
                if name in cached:
                    how, entries = "cached", cached[name]
                elif name in fresh:
                    how, entries = "verified", fresh[name]
                else:
                    how, entries = "drained", [self._degraded_entry(
                        name,
                        f"drained before verification ({reason})",
                        "timeout" if reason == "deadline" else "error",
                    )]
                report.outcomes[name] = how
                report.entries.extend(entries)
                self._record_safety(name, entries)
        report.elapsed = clock.monotonic() - started
        # Every count below is this run's, forked workers' included:
        # their window deltas were merged into this window.
        delta = seen.delta
        counted = delta["groups"]
        solver = counted.get("solver", {})
        report.solver_stats = {
            k: solver.get(k, 0)
            for k in (
                "checks", "alpha_hits", "unknowns", "budget_stops",
                "prefix_hits", "prefix_misses", "prefix_extends",
            )
        }
        pool = counted.get("parallel", {})
        report.parallel_stats = {k: pool.get(k, 0) for k in PARALLEL_STATS}
        if self.store is not None:
            store = counted.get("store", {})
            report.store_stats = {k: store.get(k, 0) for k in STORE_STATS}
        counters = delta["counters"]
        report.safety_reused = counters.get("hybrid.safety_reused", 0)
        report.post_reused = counters.get("hybrid.post_reused", 0)
        report.tactic_stats = {
            k: v
            for k, v in counters.items()
            if k.startswith(("tactic.", "gillian."))
        }
        report.phase_stats = obs.phase_table(delta["phases"])
        report.top_queries = obs.top_queries(delta["queries"])
        return report

    # -- reuse records --------------------------------------------------------

    def _record_safety(self, name: str, entries: list[HybridEntry]) -> None:
        """Keep ``name``'s type-safety entry when it is deterministic."""
        first = entries[0]
        if (
            isinstance(first.detail, VerificationResult)
            and first.detail.kind == "type_safety"
            and first.status in CACHEABLE_STATUSES
        ):
            key = self._reuse_key(name)
            if key is not None:
                self._kept[(name, "safety")] = (key, first)

    # -- store plumbing ------------------------------------------------------

    def _lookup_cached(
        self, names: list[str], fingerprints: dict[str, str]
    ) -> dict[str, list[HybridEntry]]:
        """Resolve every name against the store (a corrupt entry is a
        miss). Fixes this run's fingerprints, which forked workers
        inherit."""
        if self.store is None:
            return {}
        self._run_fps = {
            n: fingerprints[n] if n in fingerprints else self.fingerprint(n)
            for n in names
        }
        cached: dict[str, list[HybridEntry]] = {}
        for name in names:
            # The span attributes the nested store.get to the function
            # being looked up.
            with span("store.lookup", function=name):
                hit = self.store.get(self._run_fps[name], context=name)
            if hit is not None:
                cached[name] = hit
        return cached

    def _publish(self, name: str, entries: list[HybridEntry]) -> None:
        if self.store is None:
            return
        fp = self._run_fps.get(name)
        if fp:
            self.store.put(fp, name, entries)


def _verify_worker(verifier: "HybridVerifier", name: str) -> list[HybridEntry]:
    """The fan-out's per-function job (module-level so it pickles by
    reference; the verifier arrives by fork inheritance, see
    repro.parallel). It only computes: the parent publishes."""
    return verifier.verify_one(name)


def _dispatch_worker(verifier: "HybridVerifier", name: str) -> list[HybridEntry]:
    """:func:`_verify_worker` for a stop-hooked run, behind the
    ``service.dispatch`` fault site."""
    faultinject.fire("service.dispatch", name)
    return verifier.verify_one(name)


def _has_clauses(contract: Union[PearliteSpec, dict]) -> bool:
    if isinstance(contract, PearliteSpec):
        return bool(contract.requires or contract.ensures)
    return bool(contract.get("requires") or contract.get("ensures"))


def _estimate_cost(
    body: Optional[Body], contract: Union[PearliteSpec, dict, None]
) -> int:
    """A function's relative verification cost from static shape, used
    only to order the pool's work: MIR block count (symbolic execution
    visits every block), doubled for unsafe bodies (Gillian-Rust symex
    is far heavier per block than Creusot VC generation), plus two per
    contract clause (each becomes encode + consume/produce work)."""
    blocks = len(body.blocks) if body is not None else 1
    unsafe = 0 if body is None or body.is_safe else blocks
    clauses = 0
    if isinstance(contract, PearliteSpec):
        clauses = len(contract.requires) + len(contract.ensures)
    elif isinstance(contract, dict):
        clauses = len(contract.get("requires") or ()) + len(
            contract.get("ensures") or ()
        )
    return 1 + blocks + unsafe + 2 * clauses
