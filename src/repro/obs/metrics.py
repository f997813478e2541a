"""One process-wide metrics registry for the whole pipeline.

* The solver, pool and store count into legacy module-level dicts
  (``solver.core.GLOBAL_STATS``, ``parallel.PARALLEL_STATS``,
  ``store.STORE_STATS``). They stay importable but are *registered*
  here as named groups, so :meth:`Metrics.reset`
  (``metrics.reset("solver")`` etc.) is the one reset path;
* first-class counters and gauges live directly in the registry
  under dotted names (``tactic.unfolds``, ``gillian.consumes``,
  ``service.queue_depth``, and the adversary layer's ``adversary.*``
  family — per-status counts, replay/mutant/diff work counters,
  ``adversary.pass_failures``…);
* :meth:`Metrics.snapshot` renders everything as one plain-data dict;
  :meth:`Metrics.delta_since` diffs the counters and groups against
  one, and :meth:`Metrics.merge_delta` adds such a diff from another
  process. An observation window (:class:`repro.obs.trace.window`)
  is built on the pair.

Everything is plain dict arithmetic — no locks (one verification runs
on one thread; forked workers have their own copy-on-write registry
and communicate through pickled deltas).
"""

from __future__ import annotations

from typing import Callable, Optional


class Metrics:
    """The registry. One module-level instance (:data:`metrics`) serves
    the whole process."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        #: group name -> the legacy module-level dict it aliases.
        self._legacy: dict[str, dict] = {}
        #: extra state to clear on a full reset (trace aggregates).
        self._reset_hooks: list[Callable[[], None]] = []

    # -- instruments ---------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + n

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    # -- legacy groups -------------------------------------------------------

    def register_legacy(self, group: str, stats: dict) -> dict:
        """Adopt a legacy module-level stats dict as group ``group``.
        Returns the dict unchanged (callers keep their module alias)."""
        self._legacy[group] = stats
        return stats

    def on_reset(self, hook: Callable[[], None]) -> None:
        """Register extra state to clear on a full :meth:`reset`."""
        self._reset_hooks.append(hook)

    # -- reset ---------------------------------------------------------------

    def reset(self, group: Optional[str] = None) -> None:
        """Zero one legacy ``group``, or — with no argument —
        everything: all legacy groups, all registry instruments, and
        the trace aggregates (phase table, top-K queries)."""
        if group is not None:
            stats = self._legacy.get(group)
            if stats is None:
                raise KeyError(f"unknown metrics group {group!r}")
            for k in stats:
                stats[k] = 0
            return
        for stats in self._legacy.values():
            for k in stats:
                stats[k] = 0
        self._counters.clear()
        self._gauges.clear()
        for hook in self._reset_hooks:
            hook()

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything, as one plain-data dict."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "groups": {g: dict(d) for g, d in self._legacy.items()},
        }

    # -- deltas --------------------------------------------------------------

    def delta_since(self, baseline: dict) -> dict:
        """What this process counted since ``baseline`` (a
        :meth:`snapshot`): the counters and groups that moved, as plain
        data, picklable through a pool future."""
        base_c = baseline.get("counters", {})
        counters = {
            k: v - base_c.get(k, 0)
            for k, v in self._counters.items()
            if v != base_c.get(k, 0)
        }
        groups: dict[str, dict] = {}
        base_g = baseline.get("groups", {})
        for g, d in self._legacy.items():
            bg = base_g.get(g, {})
            gd = {k: v - bg.get(k, 0) for k, v in d.items() if v != bg.get(k, 0)}
            if gd:
                groups[g] = gd
        return {"counters": counters, "groups": groups}

    def merge_delta(self, delta: dict) -> None:
        """Fold a worker's :meth:`delta_since` into this process."""
        for k, v in delta.get("counters", {}).items():
            self.inc(k, v)
        for g, gd in delta.get("groups", {}).items():
            stats = self._legacy.get(g)
            if stats is None:
                continue
            for k, v in gd.items():
                stats[k] = stats.get(k, 0) + v


#: The process-wide registry.
metrics = Metrics()
