"""Adversarial verdict cross-checking.

``HybridVerifier.run`` produces per-function verdicts; this package
*attacks* them after the fact, through three passes that share no code
with the proof path they audit. The paper's pipeline is Creusot and
Gillian-Rust alone, so the cross-check sits above it: a caller runs
:func:`cross_check` on a finished report, and its work never counts
in that report's counters.

* **concrete replay** (:mod:`repro.adversary.replay`) — generate
  precondition-satisfying inputs, execute the body on a concrete MIR
  interpreter, and evaluate the Pearlite contract on the results.  A
  verified function violating its contract on a real run is a shipped
  wrong verdict; a refuted function violating it is a confirmed one.
* **mutation probes** (:mod:`repro.adversary.mutate`) — plant
  deterministic bugs in a verified body and re-verify; if no mutant
  can be refuted, the proof demonstrably does not constrain the body
  (``suspect``).
* **differential re-verification** (:mod:`repro.adversary.diff`) —
  re-run a sample of functions with every acceleration layer disabled
  (the ``baseline`` search without the prefix cache, no proof store,
  serial) and compare verdicts.

The whole layer is opt-in (``examples/hybrid_client.py
--verify-verdicts``, ``scripts/verdict_check.py``). Its sizes, seed and
deadline are an :class:`AdversaryConfig` passed to :func:`cross_check`.
It is budget-bounded, and :func:`cross_check` is its own fault
boundary: a failing pass — an injected
``REPRO_FAULT=adversary.*:raise`` included — degrades to a reported
``cross_check_failed`` status, and a failure outside any pass to a
report carrying ``internal_error``; it never raises.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro import faultinject
from repro.budget import BudgetSpec
from repro.obs import clock, span
from repro.obs.metrics import metrics

from repro.adversary.diff import DiffResult, diff_function
from repro.adversary.mutate import ProbeResult, probe_function
from repro.adversary.replay import ReplayResult, replay_function
from repro.adversary.report import (
    ADVERSARY_STATUSES,
    AdversaryEntry,
    AdversaryReport,
)

__all__ = [
    "ADVERSARY_STATUSES",
    "AdversaryConfig",
    "AdversaryEntry",
    "AdversaryReport",
    "cross_check",
]


#: Per-mutant verification deadline (seconds): each mutation probe gets
#: the run's own budget further capped by this.
MUTANT_DEADLINE = 3.0
#: Per-mutant solver-query cap, same mechanism.
MUTANT_QUERIES = 4000


@dataclass(frozen=True)
class AdversaryConfig:
    """Settings for one cross-checking run."""

    #: Concrete inputs generated per function.
    replays: int = 4
    #: Mutants re-verified per function before giving up.
    mutants: int = 16
    #: Functions differentially re-verified; a seeded sample when the
    #: corpus is larger.
    diff_sample: int = 6
    #: Seed for input generation and sampling.
    seed: int = 0
    #: Wall-clock bound for the whole adversary phase in seconds;
    #: ``None`` = unbounded.  Functions left over when it trips are
    #: reported ``unchecked``, never dropped.
    deadline: Optional[float] = None


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _group_entries(entries: list) -> dict[str, list]:
    """Entries per function, preserving first-seen order."""
    out: dict[str, list] = {}
    for e in entries:
        out.setdefault(e.function, []).append(e)
    return out


def _diff_targets(names: list[str], config: AdversaryConfig) -> set[str]:
    if len(names) <= config.diff_sample:
        return set(names)
    rng = random.Random(config.seed)
    return set(rng.sample(names, config.diff_sample))


def cross_check(
    verifier, report, config: Optional[AdversaryConfig] = None
) -> AdversaryReport:
    """Cross-check every verified/refuted verdict in ``report``.

    ``verifier`` is the :class:`~repro.hybrid.pipeline.HybridVerifier`
    whose ``run`` produced it.  Always returns a complete
    :class:`AdversaryReport`, never raises: per-function pass failures
    degrade into ``cross_check_failed`` entries, and a failure outside
    any pass (a bug in the orchestration itself) into a report
    carrying ``internal_error``.
    """
    try:
        with span("adversary"):
            return _check_report(verifier, report, config or AdversaryConfig())
    except Exception as e:
        metrics.inc("adversary.internal_errors")
        return AdversaryReport(internal_error=f"{type(e).__name__}: {e}")


def _check_report(
    verifier, report, config: AdversaryConfig
) -> AdversaryReport:
    """:func:`cross_check` inside its fault boundary."""
    started = clock.monotonic()
    out = AdversaryReport()
    groups = _group_entries(report.entries)
    checkable = [
        name
        for name, entries in groups.items()
        if any(e.status in ("verified", "refuted") for e in entries)
    ]
    diff_targets = _diff_targets(checkable, config)
    mutant_budget = verifier.budget.capped(
        deadline=MUTANT_DEADLINE, max_solver_queries=MUTANT_QUERIES
    )
    deadline_at = (
        started + config.deadline if config.deadline is not None else None
    )

    for name, entries in groups.items():
        statuses = [e.status for e in entries]
        if not any(s in ("verified", "refuted") for s in statuses):
            out.entries.append(
                AdversaryEntry(
                    name,
                    "unchecked",
                    replay=f"no verified/refuted verdict ({'/'.join(statuses)})",
                )
            )
            continue
        if deadline_at is not None and clock.monotonic() > deadline_at:
            out.entries.append(
                AdversaryEntry(name, "unchecked", replay="adversary deadline hit")
            )
            metrics.inc("adversary.deadline_skips")
            continue
        out.entries.append(
            _check_function(
                verifier,
                name,
                entries,
                config,
                mutant_budget,
                diff=name in diff_targets,
            )
        )

    out.elapsed = clock.monotonic() - started
    for status, n in out.counters.items():
        if n:
            metrics.inc(f"adversary.{status}", n)
    return out


def _check_function(
    verifier, name: str, entries: list, config: AdversaryConfig,
    mutant_budget: BudgetSpec, diff: bool,
) -> AdversaryEntry:
    """Run the three passes for one function and aggregate a status."""
    statuses = [e.status for e in entries]
    all_verified = all(s == "verified" for s in statuses)
    any_refuted = any(s == "refuted" for s in statuses)
    contradicted: list[str] = []
    corroborated = False
    suspect = False
    notes = {"replay": "", "mutation": "", "diff": ""}
    body = verifier.program.bodies.get(name)
    contract = verifier.contracts.get(name)
    # Panic-freedom is only promised where a functional proof ran: the
    # Creusot half (overflow/panic VCs) or a verified Pearlite contract
    # on the Gillian half.  Type-safety-only entries say nothing about
    # panics, so there a panicking replay is not a contradiction.
    panic_proved = any(
        e.status == "verified"
        and (e.half == "creusot" or "functional" in e.note)
        for e in entries
    )

    # -- pass 1: concrete replay -------------------------------------------
    if body is not None:
        try:
            with span("adversary.replay", function=name):
                faultinject.fire("adversary.replay", name)
                rr: ReplayResult = replay_function(
                    verifier.program,
                    body,
                    contract,
                    attempts=config.replays,
                    seed=config.seed,
                    expect_violation=any_refuted,
                    panic_is_violation=panic_proved and not any_refuted,
                )
            metrics.inc("adversary.replay.checked", rr.checked)
            metrics.inc("adversary.replay.skipped", rr.skipped + rr.filtered)
            if any_refuted:
                if rr.violated:
                    corroborated = True
                    notes["replay"] = (
                        f"refutation witnessed concretely "
                        f"({len(rr.violations)}/{rr.checked} runs)"
                    )
                else:
                    notes["replay"] = (
                        f"no concrete witness in {rr.checked} runs "
                        f"({rr.filtered} filtered, {rr.skipped} skipped)"
                    )
            elif rr.violated:
                contradicted.append(f"replay: {rr.violations[0]}")
                notes["replay"] = f"VIOLATION: {rr.violations[0]}"
                metrics.inc("adversary.replay.violations")
            elif rr.checked:
                corroborated = True
                notes["replay"] = f"{rr.checked} concrete runs clean"
            else:
                notes["replay"] = (
                    f"nothing executable ({rr.filtered} filtered, "
                    f"{rr.skipped} skipped)"
                )
        except Exception as e:
            contradicted.append(f"replay pass failed: {e}")
            notes["replay"] = f"PASS FAILED: {e}"
            metrics.inc("adversary.pass_failures")
    else:
        notes["replay"] = "no body (spec-only function)"

    # -- pass 2: mutation probes (verified functions only) ------------------
    if all_verified and body is not None:
        try:
            with span("adversary.mutate", function=name):
                faultinject.fire("adversary.mutate", name)
                pr: ProbeResult = probe_function(
                    verifier, name,
                    max_mutants=config.mutants,
                    budget=mutant_budget,
                )
            metrics.inc("adversary.mutants.tried", pr.tried)
            if pr.killed:
                corroborated = True
                metrics.inc("adversary.mutants.killed")
                notes["mutation"] = f"killed by {pr.killed_by} ({pr.tried} tried)"
            elif pr.tried:
                suspect = True
                notes["mutation"] = (
                    f"no mutant refuted in {pr.tried} tries (vacuous spec?)"
                )
            else:
                notes["mutation"] = "no mutants generated"
        except Exception as e:
            contradicted.append(f"mutation pass failed: {e}")
            notes["mutation"] = f"PASS FAILED: {e}"
            metrics.inc("adversary.pass_failures")

    # -- pass 3: differential re-verification -------------------------------
    if diff:
        try:
            with span("adversary.diff", function=name):
                faultinject.fire("adversary.diff", name)
                dr: DiffResult = diff_function(verifier, name, entries)
            metrics.inc("adversary.diff.runs")
            if dr.match is True:
                corroborated = True
                notes["diff"] = dr.note
            elif dr.match is False:
                contradicted.append(f"diff: {dr.note}")
                notes["diff"] = f"FLIP: {dr.note}"
                metrics.inc("adversary.diff.flips")
            else:
                notes["diff"] = dr.note
        except Exception as e:
            contradicted.append(f"diff pass failed: {e}")
            notes["diff"] = f"PASS FAILED: {e}"
            metrics.inc("adversary.pass_failures")

    if contradicted:
        status = "cross_check_failed"
    elif suspect:
        status = "suspect"
    elif corroborated:
        status = "confirmed"
    else:
        status = "unchecked"
    return AdversaryEntry(
        name, status,
        replay=notes["replay"],
        mutation=notes["mutation"],
        diff=notes["diff"],
    )
