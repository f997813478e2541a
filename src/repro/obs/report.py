"""Profiling report rendering — the paper-style tables.

Consumes the plain-data aggregates produced by :mod:`repro.obs.trace`
(per-function phase stats, top-K solver queries) and
:mod:`repro.obs.metrics` (tactic counters) and renders them as text
tables: a per-function phase-time breakdown in the shape of the
paper's Table 1/2 (where time goes: encoding, VC generation, symbolic
execution, solver, proof store), the slowest solver queries, and the
fold/unfold + borrow-extraction tactic counts.

The same renderers back two front ends:

* ``HybridReport.render(verbose=True)`` — live aggregates from the
  run that just finished;
* ``scripts/trace_report.py`` — offline, reconstructing the same
  aggregates from a Chrome trace JSON file
  (:func:`profile_from_trace`).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.trace import TOPLEVEL

#: Report columns, in order: (header, span names, "total" or "self").
#: ``self`` columns subtract aggregating children so one second of
#: wall time is attributed to exactly one column — the columns of a
#: row sum to roughly that function's verification time.
PHASE_COLUMNS: list[tuple[str, tuple[str, ...], str]] = [
    ("encode", ("encode",), "total"),
    ("vcgen", ("vcgen",), "self"),
    ("symex", ("symex", "pre", "post"), "self"),
    ("solve", ("solve",), "total"),
    ("store", ("store.get", "store.put"), "total"),
]


def _col_value(stats: dict, names: tuple[str, ...], kind: str) -> float:
    return sum(stats.get(n, {}).get(kind, 0.0) for n in names)


def _fmt_s(seconds: float) -> str:
    return f"{seconds:.3f}"


def render_phase_table(phases: dict) -> str:
    """``phases``: ``{function: {span_name: {calls,total,self}}}`` (the
    :func:`repro.obs.trace.phases_since` shape). Returns a text table;
    functions sorted by total time, slowest first."""
    headers = ["function"] + [h for h, _, _ in PHASE_COLUMNS] + ["total", "queries"]
    rows: list[list[str]] = []
    agg_rows: list[tuple[float, list[str]]] = []
    for fn, stats in phases.items():
        cols = [_col_value(stats, names, kind) for _, names, kind in PHASE_COLUMNS]
        total = stats.get("verify", {}).get("total") or sum(cols)
        queries = stats.get("solve", {}).get("calls", 0)
        agg_rows.append(
            (total, [fn or "<toplevel>"] + [_fmt_s(c) for c in cols]
             + [_fmt_s(total), str(queries)])
        )
    agg_rows.sort(key=lambda r: r[0], reverse=True)
    rows = [r for _, r in agg_rows]
    if not rows:
        return "  (no phase data)"
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(len(headers))
    ]

    def line(cells: list[str]) -> str:
        return "  " + "  ".join(
            c.ljust(widths[i]) if i == 0 else c.rjust(widths[i])
            for i, c in enumerate(cells)
        )

    sep = "  " + "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), sep] + [line(r) for r in rows])


def render_top_queries(queries: list[dict], limit: int = 10) -> str:
    """``queries``: the :func:`repro.obs.trace.top_queries` shape —
    ``[{"seconds", "function", "query"}, …]``, slowest first."""
    if not queries:
        return "  (no solver queries recorded)"
    lines = []
    for i, q in enumerate(queries[:limit], 1):
        fn = q.get("function") or "<toplevel>"
        lines.append(f"  {i:2d}. {q['seconds']:.4f}s  {fn}: {q['query']}")
    return "\n".join(lines)


def render_tactics(counters: dict) -> str:
    """``counters``: a flat counter dict; renders the ``tactic.*`` and
    ``gillian.*`` entries (fold/unfold automation and the lifetime
    consume/produce workload)."""
    picked = {
        k: v
        for k, v in sorted(counters.items())
        if k.startswith("tactic.") or k.startswith("gillian.")
    }
    if not picked:
        return "  (no tactic counters)"
    width = max(len(k) for k in picked)
    return "\n".join(f"  {k.ljust(width)}  {v}" for k, v in picked.items())


def render_profile(
    phases: dict,
    queries: list[dict],
    counters: dict,
    title: str = "profile",
) -> str:
    """The full three-section profiling report."""
    return "\n".join(
        [
            f"== {title}: per-function phase times (s) ==",
            render_phase_table(phases),
            "",
            "== slowest solver queries ==",
            render_top_queries(queries),
            "",
            "== tactic counts ==",
            render_tactics(counters),
        ]
    )


def render_adversary(report) -> str:
    """``report``: an :class:`repro.adversary.report.AdversaryReport`.
    Renders the cross-check section appended to the run report when
    ``--verify-verdicts`` is on."""
    lines = ["== adversary cross-check =="]
    if report.internal_error:
        lines.append(f"  ✗ adversary layer failed: {report.internal_error}")
    lines += [f"  {e}" for e in report.entries]
    c = report.counters
    summary = ", ".join(f"{n} {s}" for s, n in c.items() if n) or "0 functions"
    mark = "OK" if report.ok else "NOT OK"
    lines.append(
        f"  -- adversary {mark}: {summary} in {report.elapsed:.2f}s --"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Offline reconstruction from a Chrome trace file
# ---------------------------------------------------------------------------

#: Span names that aggregate (mirror of the runtime coarse spans):
#: only these contribute to the phase table when re-deriving it from a
#: trace; detail spans (engine.block, consume, produce, solve.query)
#: are already inside a coarse parent's time.
_AGGREGATING = {
    "verify",
    "encode",
    "vcgen",
    "symex",
    "pre",
    "post",
    "solve",
    "store.get",
    "store.put",
    "store.lookup",
}


def profile_from_trace(doc: dict) -> tuple[dict, list[dict], dict]:
    """Rebuild ``(phases, queries, counters)`` from a Chrome trace
    document, matching the live-aggregate shapes so the same renderers
    apply. Spans are matched per ``(pid, tid)`` lane; a span without a
    ``function`` arg inherits the nearest enclosing span's, exactly as
    the runtime contextvar does."""
    phases: dict[str, dict] = {}
    queries: list[dict] = []
    counters: dict[str, int] = {}
    # lane -> stack of [name, ts, function, child_time, args]
    stacks: dict[tuple, list[list]] = {}
    for ev in doc.get("traceEvents", []):
        ph = ev.get("ph")
        if ph not in ("B", "E", "I"):
            continue
        lane = (ev.get("pid"), ev.get("tid"))
        args = ev.get("args") or {}
        if ph == "I":
            fn = args.get("function")
            for k, v in args.items():
                if isinstance(v, int):
                    counters[k] = counters.get(k, 0) + v
            continue
        stack = stacks.setdefault(lane, [])
        if ph == "B":
            fn = args.get("function")
            if fn is None:
                for frame in reversed(stack):
                    if frame[2] is not None:
                        fn = frame[2]
                        break
            stack.append([ev["name"], ev["ts"], fn, 0.0, args])
            continue
        # ph == "E"
        if not stack or stack[-1][0] != ev.get("name"):
            continue  # unbalanced — validate_trace reports it
        name, ts0, fn, child, args0 = stack.pop()
        dur = (ev["ts"] - ts0) / 1e6
        if name not in _AGGREGATING:
            # Detail spans (engine.block, consume, produce…) do not
            # aggregate — but aggregating descendants inside them (a
            # solve under an engine.block) must still be subtracted
            # from the nearest aggregating ancestor's self-time, as
            # the runtime contextvar chain does. Pass the accumulated
            # child time through.
            if stack:
                stack[-1][3] += child
            continue
        if stack:
            stack[-1][3] += dur
        rec = phases.setdefault(fn or TOPLEVEL, {}).setdefault(
            name, {"calls": 0, "total": 0.0, "self": 0.0}
        )
        rec["calls"] += 1
        rec["total"] += dur
        rec["self"] += dur - child
        if name == "solve":
            queries.append(
                {
                    "seconds": dur,
                    "function": fn or TOPLEVEL,
                    "query": args0.get("query", "?"),
                }
            )
    queries.sort(key=lambda q: q["seconds"], reverse=True)
    return phases, queries, counters
