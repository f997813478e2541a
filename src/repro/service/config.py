"""Service configuration: one :class:`ServiceConfig`, which
``scripts/reprod.py`` builds from its flags, one per field.

Inside the daemon the per-function ``REPRO_DEADLINE`` knob and the
store's ``REPRO_CACHE_VERIFY`` keep their meanings; the service
composes with them rather than replacing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable daemon configuration (fork- and thread-safe)."""

    #: Unix socket path.
    socket: str = ".reprod.sock"
    #: Admission-queue bound (at least 1); a submit arriving with the
    #: queue full is *shed* with a ``retry_after`` hint instead of
    #: growing an unbounded backlog.
    queue_bound: int = 8
    #: Default per-request wall-clock deadline in seconds, inherited
    #: into every function's budget (``None`` = no deadline); a request
    #: may tighten it, never loosen it.
    deadline: Optional[float] = None
    #: How long a graceful drain waits for the in-flight request.
    drain_timeout: float = 30.0
    #: Absolute per-request cap in seconds after which a wedged fork
    #: pool's workers are killed so the parent's serial retry can
    #: finish the request (``None`` = off).
    watchdog: Optional[float] = None
    #: Default pool width (at least 1).
    jobs: int = 1
    #: Proof-store root; ``None`` runs without persistence (session
    #: memory still gives warm resubmits, but a restart is cold).
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        # A queue bound of 0 would make the admission queue unbounded.
        for name in ("queue_bound", "jobs"):
            if getattr(self, name) < 1:
                raise ValueError(f"ServiceConfig.{name} must be at least 1")
