"""Cooperative per-function verification budgets.

A :class:`Budget` bounds one function's verification along four axes:

* **deadline** — wall-clock seconds for the whole function;
* **solver queries** — ``Solver.check_sat`` cache misses;
* **steps** — symbolic-execution basic-block steps in the engine;
* **branches** — conjunctive branches explored by the DNF search.

The budget is *cooperative*: the solver, engine and verifier call the
``tick_*`` methods at their natural quanta, and a tick past the limit
raises the typed :class:`~repro.errors.BudgetExhausted`. Every tick
also checks the deadline, so a diverging symbolic execution whose
steps each take bounded time terminates within one quantum of the
deadline — in practice well inside 2·T for a deadline of T.

Exhaustion is *sticky*: after the first raise, every further tick
re-raises immediately, so deeply nested search frames unwind fast
instead of grinding on between checks.

A :class:`BudgetSpec` is the immutable configuration (shareable,
fork-safe); :meth:`BudgetSpec.start` mints a fresh running
:class:`Budget` per function. One environment knob, read by
:meth:`BudgetSpec.from_env`: ``REPRO_DEADLINE``, the per-function
wall-clock seconds. The other three axes are set in code
(``BudgetSpec(max_steps=...)``).
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import BudgetExhausted
from repro.obs import clock as obs_clock


@dataclass(frozen=True)
class BudgetSpec:
    """Immutable budget configuration; ``start()`` mints running budgets."""

    deadline: Optional[float] = None
    max_solver_queries: Optional[int] = None
    max_steps: Optional[int] = None
    max_branches: Optional[int] = None

    def __bool__(self) -> bool:
        return any(
            v is not None
            for v in (
                self.deadline,
                self.max_solver_queries,
                self.max_steps,
                self.max_branches,
            )
        )

    def start(self, clock: Callable[[], float] = obs_clock.monotonic) -> Optional["Budget"]:
        """A fresh :class:`Budget` for one function, or ``None`` when
        the spec carries no limits (the no-budget fast path)."""
        if not self:
            return None
        return Budget(
            deadline=self.deadline,
            max_solver_queries=self.max_solver_queries,
            max_steps=self.max_steps,
            max_branches=self.max_branches,
            clock=clock,
        )

    def capped(
        self,
        deadline: Optional[float] = None,
        max_solver_queries: Optional[int] = None,
        max_steps: Optional[int] = None,
        max_branches: Optional[int] = None,
    ) -> "BudgetSpec":
        """A spec no looser than this one: each axis is the tighter of
        the existing limit and the given cap (``None`` = no new cap).
        Used by the adversary layer to mint the tight mutant-probe
        budget from the run's own spec."""

        def tight(cur, cap):
            if cap is None:
                return cur
            if cur is None:
                return cap
            return min(cur, cap)

        return BudgetSpec(
            deadline=tight(self.deadline, deadline),
            max_solver_queries=tight(self.max_solver_queries, max_solver_queries),
            max_steps=tight(self.max_steps, max_steps),
            max_branches=tight(self.max_branches, max_branches),
        )

    @classmethod
    def from_env(cls, environ: Optional[dict] = None) -> "BudgetSpec":
        """The spec the ``REPRO_DEADLINE`` knob asks for. A value that
        is not a finite, positive number of seconds warns and is
        ignored."""
        env = os.environ if environ is None else environ
        raw = env.get("REPRO_DEADLINE")
        if not raw:
            return cls()
        try:
            return cls(deadline=positive_seconds(raw))
        except ValueError:
            warnings.warn(
                f"REPRO_DEADLINE={raw!r} is not a finite, positive number "
                "of seconds; ignoring it",
                RuntimeWarning,
            )
            return cls()


def positive_seconds(value) -> float:
    """``value`` as a finite, positive number of seconds; raises
    ``ValueError`` otherwise. A NaN deadline would never fire and a
    non-positive one would time out every function, so both are
    refused wherever a deadline enters: ``REPRO_DEADLINE``, the
    ``reprod.py`` time flags and a daemon request's ``deadline``."""
    try:
        seconds = float(value)
    except (OverflowError, ValueError):
        seconds = math.nan
    if not 0 < seconds < math.inf:
        raise ValueError(f"{value!r} is not a finite, positive number of seconds")
    return seconds


class Budget:
    """One function's running budget. Not thread-safe (one verification
    runs on one thread / one forked worker); fork-safe by value."""

    __slots__ = (
        "deadline",
        "max_solver_queries",
        "max_steps",
        "max_branches",
        "clock",
        "started",
        "solver_queries",
        "steps",
        "branches",
        "exhausted",
        "_deadline_at",
    )

    def __init__(
        self,
        deadline: Optional[float] = None,
        max_solver_queries: Optional[int] = None,
        max_steps: Optional[int] = None,
        max_branches: Optional[int] = None,
        clock: Callable[[], float] = obs_clock.monotonic,
    ) -> None:
        self.deadline = deadline
        self.max_solver_queries = max_solver_queries
        self.max_steps = max_steps
        self.max_branches = max_branches
        self.clock = clock
        self.started = clock()
        self._deadline_at = (
            self.started + deadline if deadline is not None else None
        )
        self.solver_queries = 0
        self.steps = 0
        self.branches = 0
        self.exhausted: Optional[BudgetExhausted] = None

    # -- ticks ---------------------------------------------------------------

    def tick_solver(self, site: str = "") -> None:
        self.solver_queries += 1
        if (
            self.max_solver_queries is not None
            and self.solver_queries > self.max_solver_queries
        ):
            self._stop(
                "solver-query", self.max_solver_queries, self.solver_queries, site
            )
        self.check_deadline(site)

    def tick_step(self, site: str = "") -> None:
        self.steps += 1
        if self.max_steps is not None and self.steps > self.max_steps:
            self._stop("step", self.max_steps, self.steps, site)
        self.check_deadline(site)

    def tick_branch(self, site: str = "") -> None:
        self.branches += 1
        if self.max_branches is not None and self.branches > self.max_branches:
            self._stop("branch", self.max_branches, self.branches, site)
        # Deadline checked every 64 branches: branches are the finest
        # quantum (µs each) and clock reads would otherwise dominate.
        if self.branches % 64 == 0:
            self.check_deadline(site)
        elif self.exhausted is not None:
            raise self.exhausted

    def check_deadline(self, site: str = "") -> None:
        if self.exhausted is not None:
            raise self.exhausted
        if self._deadline_at is not None:
            now = self.clock()
            if now > self._deadline_at:
                self._stop("deadline", self.deadline, now - self.started, site)

    # -- internals -----------------------------------------------------------

    def _stop(self, resource: str, limit, spent, site: str) -> None:
        if self.exhausted is None:
            self.exhausted = BudgetExhausted(resource, limit, spent, site)
        raise self.exhausted

    def elapsed(self) -> float:
        return self.clock() - self.started

    def __repr__(self) -> str:  # debugging aid
        return (
            f"Budget(deadline={self.deadline}, queries={self.solver_queries}"
            f"/{self.max_solver_queries}, steps={self.steps}/{self.max_steps}, "
            f"branches={self.branches}/{self.max_branches}, "
            f"exhausted={self.exhausted is not None})"
        )
