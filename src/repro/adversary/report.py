"""Adversary result model: per-function cross-check statuses.

Statuses (best to worst):

* ``confirmed`` — at least one pass positively corroborated the
  shipped verdict (replay ran clean / found the promised witness,
  a mutant was killed, the differential re-run agreed) and none
  contradicted it.
* ``unchecked`` — nothing contradicted the verdict, but no pass could
  positively corroborate it either (inputs outside the executable
  fragment, budget exhausted, non-verified/refuted entry).
* ``suspect`` — the verdict stands but proves nothing: no mutant of a
  verified body could be refuted (vacuous spec smell).
* ``cross_check_failed`` — a pass contradicted the verdict (replay
  violation, differential flip) or an adversary pass itself failed
  hard; the verdict must not be trusted without investigation.
"""

from __future__ import annotations

from dataclasses import dataclass, field


ADVERSARY_STATUSES = ("confirmed", "unchecked", "suspect", "cross_check_failed")

#: Worst-first, mirroring the pipeline's entry severity convention.
_SEVERITY = ("cross_check_failed", "suspect", "unchecked")


@dataclass
class AdversaryEntry:
    function: str
    status: str
    replay: str = ""  #: replay pass note
    mutation: str = ""  #: mutation pass note
    diff: str = ""  #: differential pass note

    def __post_init__(self) -> None:
        if self.status not in ADVERSARY_STATUSES:
            raise ValueError(f"bad adversary status {self.status!r}")

    def __str__(self) -> str:
        marks = {"confirmed": "✓", "unchecked": "·", "suspect": "?",
                 "cross_check_failed": "✗"}
        notes = "; ".join(n for n in (self.replay, self.mutation, self.diff) if n)
        return (
            f"{marks[self.status]} {self.function:42s} "
            f"[{self.status}] {notes}"
        )


@dataclass
class AdversaryReport:
    entries: list[AdversaryEntry] = field(default_factory=list)
    elapsed: float = 0.0
    #: Set when the adversary layer itself died and was contained by
    #: :func:`repro.adversary.cross_check`'s fault boundary.
    internal_error: str = ""

    @property
    def ok(self) -> bool:
        return not self.internal_error and all(
            e.status in ("confirmed", "unchecked") for e in self.entries
        )

    @property
    def counters(self) -> dict:
        out = {s: 0 for s in ADVERSARY_STATUSES}
        for e in self.entries:
            out[e.status] += 1
        return out

    @property
    def status(self) -> str:
        """Worst entry status (``confirmed`` when everything passed)."""
        if self.internal_error:
            return "cross_check_failed"
        statuses = {e.status for e in self.entries}
        for s in _SEVERITY:
            if s in statuses:
                return s
        return "confirmed"

    def render(self) -> str:
        from repro.obs.report import render_adversary

        return render_adversary(self)
