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

Functions are verified independently, so :meth:`HybridVerifier.run`
can fan the per-function Creusot/Gillian-Rust jobs out over a
process pool (``jobs=N``); ``jobs=1`` (the default) preserves the
deterministic serial path and report ordering exactly.

With a :class:`~repro.store.ProofStore` attached (``store=...`` or
``REPRO_CACHE=1``), completed proofs persist across process death:
``run`` looks every function up by its content fingerprint first,
verifies only the misses, and publishes each fresh result atomically
as soon as it completes (workers publish their own — a ``kill -9``
mid-run loses at most the in-flight functions, and the next run
resumes from the store with a report identical to an uninterrupted
one, modulo wall-clock).

All wall-clock bookkeeping here uses the deadline clock of
:mod:`repro.obs.clock` (``time.monotonic``, like :mod:`repro.budget`):
report timing and resume accounting must never step backwards under
NTP/clock adjustments.

Observability: every pipeline phase runs under a :func:`repro.obs.span`
(``verify`` → ``encode`` / ``vcgen`` / ``symex`` / ``solve`` /
``store.*``), so any run can print a per-function phase-time breakdown
(``report.render(verbose=True)``) and ``REPRO_TRACE=out.json`` exports
the whole run — including forked workers — as one Chrome trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro import faultinject, obs
from repro.budget import Budget, BudgetSpec
from repro.errors import BudgetExhausted, EncodingError, StoreCorrupted, status_of
from repro.obs import clock, span
from repro.obs import report as obs_report
from repro.obs import trace as obs_trace
from repro.obs.metrics import metrics
from repro.parallel import PARALLEL_STATS, fanout
from repro.store import ProofStore, STORE_STATS, function_fingerprint, logic_digest

from repro.creusot.vcgen import CreusotResult, CreusotVerifier
from repro.gillian.verifier import VerificationResult, verify_function
from repro.gilsonite.ownable import OwnableRegistry
from repro.gilsonite.specs import Spec, show_safety_spec
from repro.lang.mir import Body, Program
from repro.pearlite.ast import PearliteSpec
from repro.pearlite.encode import PearliteEncoder
from repro.solver.core import GLOBAL_STATS, Solver
from repro.solver.portfolio import priors_from_metrics, selector_path


#: Per-entry verdicts, in report-aggregation precedence order (a report
#: containing a crash is "crashed" even if another entry merely refuted).
STATUSES = ("verified", "refuted", "timeout", "crashed", "error")
_SEVERITY = ("error", "crashed", "timeout", "refuted")

_STRATEGY_PREFIX = "solver.strategy."


def _strategy_stats_since(
    metrics_before: dict, selector, selector_before: dict
) -> dict:
    """Per-strategy ``{queries, seconds}`` for one run, from the
    metrics deltas (counters and histograms both ride the fork-worker
    protocol, so jobs=N totals match a serial run); adds the selector's
    summary under ``"selector"`` when auto mode learned anything."""
    delta = metrics.delta_since(metrics_before)
    out: dict[str, dict] = {}
    for k, v in delta.get("counters", {}).items():
        if k.startswith(_STRATEGY_PREFIX) and k.endswith(".queries"):
            name = k[len(_STRATEGY_PREFIX):-len(".queries")]
            out.setdefault(name, {"queries": 0, "seconds": 0.0})["queries"] = v
    for k, hd in delta.get("histograms", {}).items():
        if k.startswith(_STRATEGY_PREFIX) and k.endswith(".seconds"):
            name = k[len(_STRATEGY_PREFIX):-len(".seconds")]
            rec = out.setdefault(name, {"queries": 0, "seconds": 0.0})
            rec["seconds"] = round(hd.get("total", 0.0), 6)
    if selector.delta_since(selector_before):
        out["selector"] = selector.summary()
    return out


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
    #: Budget/degradation counters of the driving solver (serial path;
    #: forked workers keep their own copies), captured at run() end.
    solver_stats: dict = field(default_factory=dict)
    #: Pool fault/retry counters for *this run* (delta of
    #: ``repro.parallel.PARALLEL_STATS`` across run()).
    parallel_stats: dict = field(default_factory=dict)
    #: Proof-store hit/miss/quarantine counters for *this run* (delta of
    #: ``repro.store.STORE_STATS``); empty when no store was attached.
    store_stats: dict = field(default_factory=dict)
    #: Per-function phase times for *this run* — the
    #: :func:`repro.obs.trace.phases_since` shape
    #: ``{function: {phase: {calls,total,self}}}``; includes forked
    #: workers' phases (merged through the pool deltas).
    phase_stats: dict = field(default_factory=dict)
    #: Slowest solver queries on record at run() end
    #: (``[{seconds, function, query}, …]``, slowest first).
    top_queries: list = field(default_factory=list)
    #: Per-strategy query counts / latency for *this run*
    #: (``{strategy: {queries, seconds}}``, from the metrics deltas)
    #: plus a ``"selector"`` entry with the portfolio selector's
    #: summary when auto mode made decisions.
    strategy_stats: dict = field(default_factory=dict)
    #: Adversarial cross-check results (``--verify-verdicts`` /
    #: ``REPRO_ADVERSARY=1``): an
    #: :class:`repro.adversary.report.AdversaryReport`, or ``None``
    #: when the adversary layer did not run.
    adversary: Optional[object] = None

    @property
    def ok(self) -> bool:
        if not all(e.ok for e in self.entries):
            return False
        return self.adversary is None or self.adversary.ok

    @property
    def counters(self) -> dict[str, int]:
        out = {s: 0 for s in STATUSES}
        for e in self.entries:
            out[e.status] = out.get(e.status, 0) + 1
        return out

    @property
    def status(self) -> str:
        """Aggregate verdict: ``verified`` iff every entry verified,
        else the most severe per-entry status present. A clean entry
        set can still be demoted by the adversary layer: a
        ``cross_check_failed`` or ``suspect`` cross-check outranks
        ``verified`` (but never an entry-level failure)."""
        c = self.counters
        for s in _SEVERITY:
            if c.get(s):
                return s
        if self.adversary is not None:
            adv = self.adversary.status
            if adv in ("cross_check_failed", "suspect"):
                return adv
        return "verified"

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
                f"{st.get('healed', 0)} healed "
                f"({st.get('mem_hits', 0)} mem / "
                f"{st.get('disk_hits', 0)} disk hits, "
                f"{st.get('disk_reads', 0)} disk reads) --"
            )
        if verbose:
            if ss.get("prefix_hits") or ss.get("prefix_misses"):
                lines.append(
                    f"-- solver: {ss.get('checks', 0)} checks, "
                    f"path-condition prefix {ss['prefix_hits']} hits / "
                    f"{ss['prefix_extends']} extended / "
                    f"{ss['prefix_misses']} misses --"
                )
            lines.append("")
            lines.append(
                obs_report.render_profile(
                    self.phase_stats,
                    self.top_queries,
                    metrics.snapshot()["counters"],
                )
            )
            if self.strategy_stats:
                lines.append("")
                lines.append(obs_report.render_strategies(self.strategy_stats))
        if self.adversary is not None:
            lines.append("")
            lines.append(self.adversary.render())
        return "\n".join(lines)


class HybridVerifier:
    """Drives both halves over one program."""

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
        strategy: Optional[str] = None,
    ) -> None:
        self.program = program
        self.ownables = ownables
        self.contracts = contracts
        self.solver = solver or Solver(strategy=strategy)
        if strategy is not None and solver is not None:
            # Explicit knob beats whatever the provided solver had;
            # validate eagerly so a typo fails at construction.
            from repro.solver.strategies import MODES, get_strategy

            if strategy not in MODES:
                get_strategy(strategy)
            self.solver.strategy = strategy
        self.encoder = PearliteEncoder(ownables)
        self.creusot = CreusotVerifier(program, ownables, contracts, self.solver)
        self.manual_pure_pre = manual_pure_pre or {}
        self.auto_extract = auto_extract
        #: Per-function budget spec; each function gets a fresh running
        #: Budget minted from it. Default: the REPRO_* env knobs.
        self.budget = budget if budget is not None else BudgetSpec.from_env()
        #: Persistent proof store; default: the REPRO_CACHE env knobs
        #: (``None`` — no caching — unless ``REPRO_CACHE=1``).
        self.store = store if store is not None else ProofStore.from_env()
        #: name -> fingerprint for the functions of the current run();
        #: populated before any fan-out so forked workers inherit it
        #: and can publish their own results.
        self._run_fps: dict[str, str] = {}

    def verify_one(self, name: str) -> list[HybridEntry]:
        """Verify one function, degrading every failure mode into
        ✗-with-reason entries — this is the pipeline's fault boundary;
        no exception escapes it."""
        budget = self.budget.start() if self.budget else None
        with span("verify", function=name):
            try:
                faultinject.fire("pipeline.verify_one", name)
                entries = self._verify_one_inner(name, budget)
            except Exception as e:  # BudgetExhausted → timeout, …
                return [self._failure_entry(name, e)]
        if obs.enabled():
            _emit_tactics_event(name, entries)
        return entries

    def _failure_entry(self, name: str, exc: BaseException) -> HybridEntry:
        body = self.program.bodies.get(name)
        half = (
            "creusot" if body is not None and body.is_safe else "gillian-rust"
        )
        return HybridEntry(
            name,
            half,
            ok=False,
            detail=None,
            note=str(exc) or type(exc).__name__,
            status=status_of(exc),
        )

    def _verify_one_inner(
        self, name: str, budget: Optional[Budget]
    ) -> list[HybridEntry]:
        body = self.program.bodies[name]
        # Both halves share the solver; install this function's budget
        # for the whole per-function run (the Creusot half has no budget
        # parameter of its own — it is bounded through the solver).
        prev_budget = self.solver.budget
        if budget is not None:
            self.solver.budget = budget
        try:
            if body.is_safe:
                r = self.creusot.verify(body)
                return [
                    HybridEntry(
                        name, "creusot", r.ok, r,
                        note=f"{r.vcs} VCs, {r.elapsed * 1000:.0f} ms",
                    )
                ]
            entries = []
            # Type safety first (show_safety), then the Pearlite contract.
            safety = show_safety_spec(self.ownables, body)
            rs = verify_function(
                self.program, body, safety, self.solver, budget=budget
            )
            entries.append(
                HybridEntry(
                    name, "gillian-rust", rs.ok, rs,
                    note=f"type safety, {rs.elapsed * 1000:.0f} ms",
                    status=rs.status,
                )
            )
            contract = self.contracts.get(name)
            if contract is not None and _has_clauses(contract):
                from repro.pearlite.parser import parse_pearlite

                try:
                    manual = [
                        parse_pearlite(p) if isinstance(p, str) else p
                        for p in self.manual_pure_pre.get(name, [])
                    ]
                    spec = self.encoder.encode_contract(
                        body, contract, auto_extract=self.auto_extract,
                        manual_pure_pre=manual,
                    )
                except BudgetExhausted:
                    raise
                except Exception as e:
                    raise EncodingError(
                        f"cannot encode contract of {name}: {e}"
                    ) from e
                rf = verify_function(
                    self.program, body, spec, self.solver, budget=budget
                )
                entries.append(
                    HybridEntry(
                        name, "gillian-rust", rf.ok, rf,
                        note=f"functional (Pearlite), {rf.elapsed * 1000:.0f} ms",
                        status=rf.status,
                    )
                )
            return entries
        finally:
            self.solver.budget = prev_budget

    def run(
        self,
        functions: Optional[list[str]] = None,
        jobs: Optional[int] = 1,
        verify_verdicts: Optional[bool] = None,
    ) -> HybridReport:
        """Verify ``functions`` (default: every body in the program).

        ``jobs=1`` runs today's deterministic serial path; ``jobs=N``
        fans the per-function verifications out over a fork-based
        process pool, reassembling entries in the serial order.
        ``jobs=None`` uses ``REPRO_JOBS``/CPU count.

        Always returns a *complete* report: per-function failures of
        any kind (budget exhaustion, worker crash, internal error)
        become entries with the matching ``status``; a worker killed
        mid-flight is retried serially before being reported crashed.

        With a store attached, cached functions are answered from disk
        and only the misses are verified (and published as they
        complete — checkpointing: a killed run resumes from here).

        ``verify_verdicts=True`` (or ``REPRO_ADVERSARY=1`` when the
        argument is left ``None``) runs the adversarial cross-check
        (:mod:`repro.adversary`) over the finished verdicts and
        attaches its report as ``report.adversary``; the adversary
        layer sits behind its own fault boundary, so even a crashing
        cross-check yields a report, never an exception.
        """
        started = clock.monotonic()
        report = HybridReport()
        names = functions if functions is not None else list(self.program.bodies)
        parallel_before = dict(PARALLEL_STATS)
        store_before = dict(STORE_STATS)
        solver_before = dict(GLOBAL_STATS)
        phases_before = obs.phases_snapshot()
        metrics_before = metrics.delta_snapshot()
        selector_before = self.solver.selector.delta_snapshot()
        if self.solver.strategy == "auto":
            # Seed the selector's global priors from whatever strategy
            # timing the obs layer has already collected this process
            # (fixed-strategy runs, race mode, earlier auto runs): a
            # strategy that history shows far off the best never gets
            # a cold-bucket warmup window.
            self.solver.selector.seed(priors_from_metrics(metrics))
        if self.store is not None:
            # Warm the portfolio selector from the previous runs that
            # shared this store (once per path per process — repeat
            # runs must not double-count).
            self.solver.selector.load(
                selector_path(self.store.root), once=True
            )
        cached = self._lookup_cached(names)
        pending = [n for n in names if n not in cached]
        if jobs == 1 or not pending:
            for name in names:
                if name in cached:
                    report.entries.extend(cached[name])
                    continue
                entries = self.verify_one(name)
                self._publish(name, entries)
                report.entries.extend(entries)
        else:
            # Longest estimate first, so the slow functions don't start
            # last and leave one worker finishing alone; the stable sort
            # keeps submission order among ties.
            pending.sort(
                key=lambda n: _estimate_cost(
                    self.program.bodies.get(n), self.contracts.get(n)
                ),
                reverse=True,
            )
            results = fanout(
                _verify_one_worker,
                self,
                pending,
                jobs,
                on_error=lambda name, exc: [self._failure_entry(name, exc)],
            )
            fresh = dict(zip(pending, results))
            for name in names:
                if name in cached:
                    report.entries.extend(cached[name])
                    continue
                entries = fresh[name]
                fp = self._run_fps.get(name)
                if self.store is not None and fp and self.store.has(fp):
                    # The entry appeared since the (miss) lookup: a
                    # worker published it; its counters died with its
                    # process, so credit the run here.
                    self.store.note_worker_publish(fp)
                else:
                    # Re-publish in the parent: covers a worker that
                    # verified but failed to write (I/O error, death
                    # between verify and publish).
                    self._publish(name, entries)
                report.entries.extend(entries)
        if self.store is not None:
            self.store.end_run()
        if verify_verdicts or (
            verify_verdicts is None and _adversary_enabled()
        ):
            report.adversary = self._cross_check(report)
        report.elapsed = clock.monotonic() - started
        # The solver delta is over GLOBAL_STATS, not the driving
        # instance's stats: forked workers' ticks arrive through the
        # pool's observability deltas and land in GLOBAL_STATS only.
        report.solver_stats = {
            k: GLOBAL_STATS[k] - solver_before.get(k, 0)
            for k in (
                "checks", "unknowns", "budget_stops",
                "prefix_hits", "prefix_misses", "prefix_extends",
            )
        }
        report.parallel_stats = {
            k: PARALLEL_STATS[k] - parallel_before.get(k, 0)
            for k in PARALLEL_STATS
        }
        if self.store is not None:
            report.store_stats = {
                k: STORE_STATS[k] - store_before.get(k, 0)
                for k in STORE_STATS
            }
        report.phase_stats = obs.phases_since(phases_before)
        report.top_queries = obs.top_queries()
        report.strategy_stats = _strategy_stats_since(
            metrics_before, self.solver.selector, selector_before
        )
        if self.store is not None:
            # Persist what the selector learned (best-effort, atomic).
            self.solver.selector.save(selector_path(self.store.root))
        obs_trace.flush()
        return report

    def _cross_check(self, report: HybridReport):
        """Run the adversary layer over a finished report. Outermost
        fault boundary for the whole layer: whatever goes wrong inside
        (including the orchestrator itself) degrades to an
        ``AdversaryReport`` carrying ``internal_error``."""
        from repro.adversary import AdversaryReport, cross_check

        try:
            with span("adversary"):
                return cross_check(self, report)
        except Exception as e:
            metrics.inc("adversary.internal_errors")
            return AdversaryReport(
                internal_error=f"{type(e).__name__}: {e}"
            )

    # -- store plumbing ------------------------------------------------------

    def _lookup_cached(self, names: list[str]) -> dict[str, list[HybridEntry]]:
        """Resolve every name against the store. Computes this run's
        fingerprints (inherited by forked workers), journals the run
        begin, and maps strict-mode corruption to ``error`` entries —
        a corrupt cache degrades the run, never crashes it."""
        if self.store is None:
            return {}
        logic = logic_digest(self.program, self.ownables)
        self._run_fps = {
            name: function_fingerprint(
                name,
                program=self.program,
                contracts=self.contracts,
                manual_pure_pre=self.manual_pure_pre,
                auto_extract=self.auto_extract,
                budget=self.budget,
                logic=logic,
            )
            for name in names
        }
        self.store.begin_run(names)
        cached: dict[str, list[HybridEntry]] = {}
        for name in names:
            try:
                # The span attributes the nested store.get to the
                # function being looked up.
                with span("store.lookup", function=name):
                    hit = self.store.get(self._run_fps[name], context=name)
            except StoreCorrupted as e:  # strict mode surfaces corruption
                cached[name] = [self._failure_entry(name, e)]
                continue
            if hit is not None:
                cached[name] = hit
        return cached

    def _publish(self, name: str, entries: list[HybridEntry]) -> None:
        if self.store is None:
            return
        fp = self._run_fps.get(name)
        if fp:
            self.store.put(fp, name, entries)


def _adversary_enabled() -> bool:
    """The env knob, checked without importing the adversary package —
    the default path must not pay for the opt-in feature."""
    import os

    return os.environ.get("REPRO_ADVERSARY", "").lower() in ("1", "true", "on")


def _verify_one_worker(verifier: "HybridVerifier", name: str) -> list[HybridEntry]:
    """Pool worker: module-level so it pickles by reference; the
    verifier itself arrives by fork inheritance (see repro.parallel).
    Workers publish their own results through the store/journal the
    moment they complete, so a parent killed mid-run loses nothing
    already verified. The entry probe makes the serial retry of a
    *dead* worker's item resume rather than re-verify when the worker
    published before dying. The probe is guarded by ``has`` so the
    common cold path (entry still absent — e.g. this item degraded to
    the parent's serial path, whose run-level lookup already counted
    the miss) doesn't re-count a miss for a lookup the run already
    made."""
    store, fp = verifier.store, verifier._run_fps.get(name)
    if store is not None and fp and store.has(fp):
        try:
            with span("store.lookup", function=name):
                hit = store.get(fp, context=name)
        except StoreCorrupted:
            hit = None  # strict mode: the entry is gone either way
        if hit is not None:
            return hit
    entries = verifier.verify_one(name)
    verifier._publish(name, entries)
    return entries


def _emit_tactics_event(name: str, entries: list) -> None:
    """Mirror one function's tactic totals into the trace as an ``I``
    (instant) event, so ``trace_report.py`` can rebuild the tactic
    table from the trace file alone."""
    counts: dict[str, int] = {}
    for e in entries:
        stats = getattr(e.detail, "stats", None)
        if stats is None:
            continue
        for k in (
            "unfolds", "folds", "gunfolds", "gfolds", "repairs", "auto_updates"
        ):
            counts[f"tactic.{k}"] = counts.get(f"tactic.{k}", 0) + getattr(
                stats, k, 0
            )
    if counts:
        obs.instant_event("tactics", function=name, **counts)


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
