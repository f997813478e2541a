"""Differential re-verification — the third adversary pass.

The pipeline runs on caching, incremental propagation, the prefix
cache of the default search, a proof store and a worker pool.  Each is
verdict-preserving *by design*; this pass checks it *in fact*: a
sample of functions is re-verified from scratch with every
acceleration disabled — the ``baseline`` search, no proof store,
serial — and the fresh verdicts are compared against the shipped ones.

A verified/refuted flip is a ``cross_check_failed`` (some layer
changed an answer).  Timeouts and crashes on either side are
*incomparable*, not failures: a tighter wall-clock on the re-run is
expected, so those comparisons report a note instead of a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


_INCOMPARABLE = ("timeout", "crashed", "error")


@dataclass
class DiffResult:
    #: True = verdicts match; False = mismatch; None = incomparable.
    match: Optional[bool]
    note: str = ""


def diff_function(verifier, name: str, baseline_entries: list) -> DiffResult:
    """Re-verify ``name`` with accelerations disabled and compare."""
    from repro.hybrid.pipeline import HybridVerifier
    from repro.solver.core import Solver

    sub = HybridVerifier(
        verifier.program,
        verifier.ownables,
        verifier.contracts,
        solver=Solver(strategy="baseline"),
        manual_pure_pre=verifier.manual_pure_pre,
        auto_extract=verifier.auto_extract,
        budget=verifier.budget,
    )
    sub.store = None  # REPRO_CACHE-independent: no lookups, no publishes
    try:
        fresh = sub.verify_one(name)
    except Exception as e:  # verify_one should not raise; stay safe
        return DiffResult(None, f"re-verification errored: {e}")

    shipped = [(e.half, e.status) for e in baseline_entries]
    rerun = [(e.half, e.status) for e in fresh]
    if shipped == rerun:
        return DiffResult(True, "verdicts identical without accelerations")
    if any(s in _INCOMPARABLE for _, s in shipped + rerun):
        return DiffResult(
            None,
            f"incomparable (budget-dependent statuses): {shipped} vs {rerun}",
        )
    return DiffResult(
        False, f"verdict flip without accelerations: {shipped} vs {rerun}"
    )
