"""One process-wide metrics registry for the whole pipeline.

Before this module existed the stack kept four disjoint ad-hoc counter
dicts (``Solver.stats`` / ``solver.core.GLOBAL_STATS``,
``parallel.PARALLEL_STATS``, ``store.STORE_STATS``), each with its own
reset convention. The registry absorbs them:

* the legacy dicts stay importable (tests and benchmarks keep working
  unchanged) but are *registered* here as named groups, so
  :meth:`Metrics.reset` (``metrics.reset("solver")`` etc.) is the one
  reset path;
* new first-class counters / gauges / histograms live directly in the
  registry under dotted names (``tactic.unfolds``,
  ``gillian.consumes``, ``solver.query_seconds``, and the adversary
  layer's ``adversary.*`` family — per-status counts, replay/mutant/
  diff work counters, ``adversary.pass_failures``…);
* :meth:`Metrics.snapshot` renders everything as one plain-data dict
  for the bench JSON;
* :meth:`Metrics.delta_snapshot` / :meth:`Metrics.merge_delta` are the
  fork-worker protocol: a pool worker snapshots before an item, diffs
  after, and the parent merges the delta so ``jobs=N`` counters are as
  complete as a serial run's (see :mod:`repro.parallel`).

Everything is plain dict arithmetic — no locks (one verification runs
on one thread; forked workers have their own copy-on-write registry
and communicate through pickled deltas).
"""

from __future__ import annotations

from typing import Callable, Optional


class _Histogram:
    """Count / total / min / max — enough to answer "how many and how
    slow" without storing samples."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


class Metrics:
    """The registry. One module-level instance (:data:`metrics`) serves
    the whole process."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}
        #: group name -> the legacy module-level dict it aliases.
        self._legacy: dict[str, dict] = {}
        #: groups excluded from the fork-worker delta protocol because
        #: they have their own parent-side crediting path (the proof
        #: store's ``note_worker_publish``) — merging would double-count.
        self._no_delta: set[str] = set()
        #: extra state to clear on a full reset (trace aggregates).
        self._reset_hooks: list[Callable[[], None]] = []

    # -- instruments ---------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + n

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = _Histogram()
        h.observe(value)

    # -- legacy groups -------------------------------------------------------

    def register_legacy(
        self, group: str, stats: dict, *, delta: bool = True
    ) -> dict:
        """Adopt a legacy module-level stats dict as group ``group``.
        Returns the dict unchanged (callers keep their module alias).
        ``delta=False`` opts the group out of the fork-worker merge
        (for counters the parent already credits by other means)."""
        self._legacy[group] = stats
        if not delta:
            self._no_delta.add(group)
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
        self._histograms.clear()
        for hook in self._reset_hooks:
            hook()

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything, as one plain-data dict (the bench JSON shape)."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                k: h.as_dict() for k, h in self._histograms.items()
            },
            "groups": {g: dict(d) for g, d in self._legacy.items()},
        }

    # -- fork-worker delta protocol -----------------------------------------

    def delta_snapshot(self) -> dict:
        """A baseline for :meth:`delta_since` (taken in a pool worker
        before it starts an item)."""
        return {
            "counters": dict(self._counters),
            "histograms": {
                k: (h.count, h.total) for k, h in self._histograms.items()
            },
            "groups": {
                g: dict(d)
                for g, d in self._legacy.items()
                if g not in self._no_delta
            },
        }

    def delta_since(self, baseline: dict) -> dict:
        """What this process counted since ``baseline`` — plain data,
        picklable through a pool future."""
        base_c = baseline.get("counters", {})
        counters = {
            k: v - base_c.get(k, 0)
            for k, v in self._counters.items()
            if v != base_c.get(k, 0)
        }
        # Histogram count/total deltas are exact; min/max are shipped
        # as-is (a window min is not derivable from two snapshots) and
        # merged with min/max semantics, which over-approximates the
        # window but is exact for fork-inherited state.
        base_h = baseline.get("histograms", {})
        histograms = {}
        for k, h in self._histograms.items():
            bc, bt = base_h.get(k, (0, 0.0))
            if h.count != bc:
                histograms[k] = {
                    "count": h.count - bc,
                    "total": h.total - bt,
                    "min": h.min,
                    "max": h.max,
                }
        groups: dict[str, dict] = {}
        base_g = baseline.get("groups", {})
        for g, d in self._legacy.items():
            if g in self._no_delta:
                continue
            bg = base_g.get(g, {})
            gd = {k: v - bg.get(k, 0) for k, v in d.items() if v != bg.get(k, 0)}
            if gd:
                groups[g] = gd
        return {"counters": counters, "histograms": histograms, "groups": groups}

    def merge_delta(self, delta: dict) -> None:
        """Fold a worker's :meth:`delta_since` into this process."""
        for k, v in delta.get("counters", {}).items():
            self.inc(k, v)
        for k, hd in delta.get("histograms", {}).items():
            h = self._histograms.get(k)
            if h is None:
                h = self._histograms[k] = _Histogram()
            h.count += hd.get("count", 0)
            h.total += hd.get("total", 0.0)
            for attr in ("min", "max"):
                v = hd.get(attr)
                if v is None:
                    continue
                cur = getattr(h, attr)
                pick = min if attr == "min" else max
                setattr(h, attr, v if cur is None else pick(cur, v))
        for g, gd in delta.get("groups", {}).items():
            stats = self._legacy.get(g)
            if stats is None:
                continue
            for k, v in gd.items():
                stats[k] = stats.get(k, 0) + v


#: The process-wide registry.
metrics = Metrics()
