"""Profiling report rendering — the paper-style tables.

Consumes the plain-data aggregates produced by :mod:`repro.obs.trace`
(per-function phase stats, top-K solver queries) and
:mod:`repro.obs.metrics` (tactic counters) and renders them as text
tables: a per-function phase-time breakdown in the shape of the
paper's Table 1/2 (where time goes: encoding, VC generation, symbolic
execution, solver, proof store), the slowest solver queries, and the
fold/unfold + borrow-extraction tactic counts.
``HybridReport.render(verbose=True)`` prints them for the run that
just finished.
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
    :func:`repro.obs.trace.phase_table` shape). Returns a text table;
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
    ``[{"seconds", "function", "query"}, …]``, slowest first. Each
    query is cut to 160 characters."""
    if not queries:
        return "  (no solver queries recorded)"
    lines = []
    for i, q in enumerate(queries[:limit], 1):
        fn = q.get("function") or "<toplevel>"
        query = q["query"] if len(q["query"]) <= 160 else q["query"][:157] + "..."
        lines.append(f"  {i:2d}. {q['seconds']:.4f}s  {fn}: {query}")
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
