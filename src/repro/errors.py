"""Structured error taxonomy for the verification pipeline.

Real verification backends treat failure as data: Verus bounds SMT
effort per query and reports ``unknown``; certification pipelines must
degrade gracefully when a proof step cannot be completed. This module
gives the reproduction the same discipline — every way a per-function
verification can go wrong maps onto one exception class, and every
exception class maps onto one per-entry ``status`` on the
:class:`~repro.hybrid.pipeline.HybridReport`:

========================  ==========  =====================================
exception                 status      meaning
========================  ==========  =====================================
(no exception, ``ok``)    verified    every feasible branch succeeded
(no exception, ``¬ok``)   refuted     a feasible branch failed a check
BudgetExhausted           timeout     deadline / step / query budget hit
WorkerCrashed             crashed     a pool worker died (segfault, kill)
EncodingError             error       spec → Gilsonite encoding failed
StoreCorrupted            error       proof-store entry failed validation
any other Exception       error       unexpected internal failure
========================  ==========  =====================================

The pipeline (:mod:`repro.hybrid.pipeline`) catches at the per-function
boundary and converts to a ✗-with-reason entry, so one pathological
function can never abort the whole run — ``HybridVerifier.run`` always
returns a complete report.

All classes here carry their constructor arguments in ``self.args`` so
they survive a pickle round-trip through the process-pool pipe.
"""

from __future__ import annotations

from typing import Optional


class VerificationError(Exception):
    """Base of the taxonomy; ``status`` is the per-entry verdict that a
    caught instance maps to."""

    status = "error"


class BudgetExhausted(VerificationError):
    """A cooperative :class:`repro.budget.Budget` limit was hit.

    Raised from the solver (per-query tick), the symbolic-execution
    engine (per-step tick) or the DNF search (per-branch tick);
    callers map it to a ``timeout`` verdict, never a crash.
    """

    status = "timeout"

    def __init__(
        self,
        resource: str = "budget",
        limit: Optional[float] = None,
        spent: Optional[float] = None,
        site: str = "",
    ) -> None:
        # Positional args only: Exception pickles as ``cls(*self.args)``.
        super().__init__(resource, limit, spent, site)
        self.resource = resource
        self.limit = limit
        self.spent = spent
        self.site = site

    def __str__(self) -> str:
        msg = f"{self.resource} budget exhausted"
        if self.limit is not None:
            spent = self.spent if self.spent is not None else "?"
            if isinstance(spent, float):
                spent = round(spent, 3)
            limit = self.limit
            if isinstance(limit, float):
                limit = round(limit, 3)
            msg += f" ({spent}/{limit})"
        if self.site:
            msg += f" at {self.site}"
        return msg


class WorkerCrashed(VerificationError):
    """A process-pool worker died without returning a result (e.g.
    ``os._exit``, segfault, OOM kill), or fault injection simulated
    one. The pool survives it; the affected item is retried serially
    and, failing that, reported as ``crashed``."""

    status = "crashed"


class EncodingError(VerificationError):
    """A Pearlite contract could not be encoded into Gilsonite."""

    status = "error"


class StoreCorrupted(VerificationError):
    """A persistent proof-store entry failed validation (torn write,
    checksum mismatch, undecodable payload). The store catches it,
    quarantines the entry and reports a miss — callers re-verify and the
    fresh result overwrites the quarantined one. A corrupt cache costs
    performance, never correctness, and never crashes the run."""

    status = "error"

    def __init__(self, reason: str = "store entry corrupt", path: str = "") -> None:
        # Positional args only: Exception pickles as ``cls(*self.args)``.
        super().__init__(reason, path)
        self.reason = reason
        self.path = path

    def __str__(self) -> str:
        msg = self.reason
        if self.path:
            msg += f" ({self.path})"
        return msg


class InjectedFault(VerificationError):
    """Default exception thrown by the :mod:`repro.faultinject`
    harness's ``raise`` action when no explicit exception is named."""

    status = "error"


def status_of(exc: BaseException) -> str:
    """Map any exception to the per-entry report status it represents."""
    if isinstance(exc, VerificationError):
        return exc.status
    return "error"
