"""Per-layer numbers from one traced pass.

Layers are named after ``src/repro`` packages, plus ``bench`` for the
harness's own root span. A span's self time is its duration minus the
spans it caused in the same process; spans a forked worker records
hang off the parent's ``parallel.fanout`` span but run beside it, so
they are not subtracted from it. ``*_s`` metrics of a span name sum the
outermost spans of that name, so recursion (``consume`` → ``unfold`` →
``consume``) is counted once.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("bench", "lang", "pearlite", "gilsonite", "gillian", "solver",
          "creusot", "hybrid", "parallel", "store", "service")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str


#: Defined in README.md, with the end-to-end metric each should move.
PER_LAYER = tuple(LayerMetric(*row) for row in (
    ("lang.import_s", "s", "lower"),
    ("lang.build_s", "s", "lower"),
    ("pearlite.encode_s", "s", "lower"),
    ("pearlite.encode_calls", "count", "lower"),
    ("gilsonite.spec_s", "s", "lower"),
    ("gillian.verify_s", "s", "lower"),
    ("gillian.self_s", "s", "lower"),
    ("gillian.symex_s", "s", "lower"),
    ("gillian.consume_s", "s", "lower"),
    ("gillian.consume_calls", "count", "lower"),
    ("gillian.produce_s", "s", "lower"),
    ("gillian.produce_calls", "count", "lower"),
    ("gillian.tactic_s", "s", "lower"),
    ("gillian.tactic_calls", "count", "lower"),
    ("gillian.branches", "count", "lower"),
    ("solver.check_s", "s", "lower"),
    ("solver.checks", "count", "lower"),
    ("solver.search_s", "s", "lower"),
    ("solver.closure_s", "s", "lower"),
    ("solver.intervals_s", "s", "lower"),
    ("solver.branches", "count", "lower"),
    ("solver.cache_hit_rate", "ratio", "higher"),
    ("solver.intern_hit_rate", "ratio", "higher"),
    ("solver.unknowns", "count", "lower"),
    ("solver.budget_stops", "count", "lower"),
    ("creusot.verify_s", "s", "lower"),
    ("creusot.vcs", "count", "lower"),
    ("hybrid.run_s", "s", "lower"),
    ("hybrid.self_s", "s", "lower"),
    ("parallel.fanout_s", "s", "lower"),
    ("parallel.busy_frac", "ratio", "higher"),
    ("parallel.steals", "count", "lower"),
    ("parallel.queue_wait_s", "s", "lower"),
    ("parallel.worker_failures", "count", "lower"),
    ("parallel.serial_retries", "count", "lower"),
    ("store.get_s", "s", "lower"),
    ("store.gets", "count", "lower"),
    ("store.fingerprint_s", "s", "lower"),
    ("store.hit_rate", "ratio", "higher"),
    ("store.mem_hits", "count", "higher"),
    ("store.disk_reads", "count", "lower"),
    ("store.put_s", "s", "lower"),
    ("store.puts", "count", "lower"),
    ("store.flush_s", "s", "lower"),
    ("service.overhead_ms", "ms", "lower"),
    ("service.session_ms", "ms", "lower"),
    ("service.reverified", "count", "lower"),
    ("service.reloads", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> dict:
    """Span id → duration minus same-process children."""
    by_id = {s["id"]: s for s in spans}
    covered: dict = defaultdict(float)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            covered[parent["id"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def outermost(spans: list[dict]) -> dict:
    """Span name → summed duration of spans with no ancestor of the
    same name (within the process)."""
    by_id = {s["id"]: s for s in spans}
    totals: dict = defaultdict(float)
    for s in spans:
        parent = by_id.get(s["parent"])
        nested = False
        while parent is not None and parent["pid"] == s["pid"]:
            if parent["name"] == s["name"]:
                nested = True
                break
            parent = by_id.get(parent["parent"])
        if not nested:
            totals[s["name"]] += s["end"] - s["start"]
    return totals


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def analyse(spans: list[dict], window: set, counters: dict, wall_s: float,
            baseline_s: float, requests: list = ()) -> dict:
    """Per-layer metrics and the self-time table of one traced pass.

    ``window`` holds the context ids of the measured pass or requests;
    ``counters`` is the movement of the program's counters over it;
    ``wall_s`` its traced wall time and ``baseline_s`` the untraced
    median of the same quantity; ``requests`` are the daemon client's
    records of the traced requests."""
    win = [s for s in spans if s["ctx"] in window]
    setup = [s for s in spans if s["ctx"] == "setup"]
    selfs = self_times(win)
    inclusive = outermost(win)
    calls: dict = defaultdict(int)
    for s in win:
        calls[s["name"]] += 1
    roots = [s for s in win if s["name"] in ("bench.pass", "service.execute")]
    main_pids = {s["pid"] for s in roots}
    table = {layer: {"self_s": 0.0, "worker_s": 0.0, "calls": 0} for layer in LAYERS}
    for s in win:
        row = table[layer_of(s["name"])]
        row["self_s" if s["pid"] in main_pids else "worker_s"] += selfs[s["id"]]
        row["calls"] += 1

    def attr_sum(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in win if s["name"] == name)

    fanouts = [s for s in win if s["name"] == "parallel.fanout"]
    busy = capacity = 0.0
    for f in fanouts:
        workers = [s for s in win if s["parent"] == f["id"] and s["pid"] != f["pid"]]
        if workers:
            busy += sum(s["end"] - s["start"] for s in workers)
            capacity += f["attrs"].get("jobs", 1) * (f["end"] - f["start"])
    # Time inside the layer spans that answered the pass or requests,
    # as a share of what the caller waited: the rest is harness glue
    # (CLI) or protocol and queueing (daemon).
    pass_ids = {s["id"] for s in roots if s["name"] == "bench.pass"}
    inside = sum(
        s["end"] - s["start"] for s in win
        if s["parent"] in pass_ids or s["name"] == "service.execute"
    )
    waited = sum(s["end"] - s["start"] for s in roots if s["name"] == "bench.pass")
    waited += sum(r["latency_ms"] for r in requests) / 1000
    c = counters
    latencies = [r["latency_ms"] - r["elapsed_ms"] for r in requests]
    sessions = [(s["end"] - s["start"]) * 1000 for s in win if s["name"] == "service.session"]
    metrics = {
        "lang.import_s": sum(s["end"] - s["start"] for s in setup if s["name"] == "lang.import"),
        "lang.build_s": sum(s["end"] - s["start"] for s in setup + win if s["name"] == "lang.build"),
        "pearlite.encode_s": inclusive["pearlite.encode"],
        "pearlite.encode_calls": calls["pearlite.encode"],
        "gilsonite.spec_s": inclusive["gilsonite.spec"],
        "gillian.verify_s": inclusive["gillian.verify"],
        "gillian.self_s": table["gillian"]["self_s"] + table["gillian"]["worker_s"],
        "gillian.symex_s": inclusive["gillian.symex"],
        "gillian.consume_s": inclusive["gillian.consume"],
        "gillian.consume_calls": calls["gillian.consume"],
        "gillian.produce_s": inclusive["gillian.produce"],
        "gillian.produce_calls": calls["gillian.produce"],
        "gillian.tactic_s": inclusive["gillian.tactic"],
        "gillian.tactic_calls": calls["gillian.tactic"],
        "gillian.branches": attr_sum("gillian.verify", "branches"),
        "solver.check_s": inclusive["solver.check"],
        "solver.checks": c.get("solver.checks", 0),
        "solver.search_s": inclusive["solver.search"],
        "solver.closure_s": inclusive["solver.closure"],
        "solver.intervals_s": inclusive["solver.intervals"],
        "solver.branches": c.get("solver.branches", 0),
        "solver.cache_hit_rate": _rate(c.get("solver.cache_hits", 0), c.get("solver.cache_misses", 0)),
        "solver.intern_hit_rate": _rate(c.get("intern.hits", 0), c.get("intern.misses", 0)),
        "solver.unknowns": c.get("solver.unknowns", 0),
        "solver.budget_stops": c.get("solver.budget_stops", 0),
        "creusot.verify_s": inclusive["creusot.verify"],
        "creusot.vcs": attr_sum("creusot.verify", "vcs"),
        "hybrid.run_s": inclusive["hybrid.run"],
        "hybrid.self_s": table["hybrid"]["self_s"] + table["hybrid"]["worker_s"],
        "parallel.fanout_s": inclusive["parallel.fanout"],
        "parallel.busy_frac": busy / capacity if capacity else 0.0,
        "parallel.steals": c.get("parallel.steals", 0),
        "parallel.queue_wait_s": c.get("parallel.queue_wait_s", 0.0),
        "parallel.worker_failures": c.get("parallel.worker_failures", 0),
        "parallel.serial_retries": c.get("parallel.serial_retries", 0),
        "store.get_s": inclusive["store.get"],
        "store.gets": calls["store.get"],
        "store.fingerprint_s": inclusive["store.fingerprint"],
        "store.hit_rate": _rate(c.get("store.hits", 0), c.get("store.misses", 0)),
        "store.mem_hits": c.get("store.mem_hits", 0),
        "store.disk_reads": c.get("store.disk_reads", 0),
        "store.put_s": inclusive["store.put"],
        "store.puts": calls["store.put"],
        "store.flush_s": inclusive["store.flush"],
        "service.overhead_ms": statistics.median(latencies) if latencies else 0.0,
        "service.session_ms": statistics.median(sessions) if sessions else 0.0,
        "service.reverified": sum(len(r["reverified"]) for r in requests),
        "service.reloads": sum("service.parse" in r["phases"] for r in requests),
        "trace.overhead_frac": wall_s / baseline_s - 1 if baseline_s else 0.0,
        "trace.coverage": inside / waited if waited else 0.0,
    }
    return {"metrics": metrics, "table": table, "waited_s": waited}


def chrome_trace(spans: list[dict]) -> dict:
    """The spans as Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
    t0 = min((s["start"] for s in spans), default=0.0)
    events = []
    for s in spans:
        args = {k: v for k, v in s["attrs"].items() if k != "counters"}
        args.update(ctx=s["ctx"], id=s["id"], parent=s["parent"])
        events.append({
            "name": s["name"], "cat": layer_of(s["name"]), "ph": "X",
            "ts": (s["start"] - t0) * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
            "pid": s["pid"], "tid": s["tid"], "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def render(workload: str, result: dict) -> str:
    """The self-time table and the per-layer metrics, as text."""
    waited = result["waited_s"]
    lines = [f"{workload}: layer self time (traced, {waited:.3f} s waited)",
             f"  {'layer':10s} {'self_s':>9s} {'share':>7s} {'workers_s':>10s} {'spans':>8s}"]
    for layer, row in result["table"].items():
        share = row["self_s"] / waited if waited else 0.0
        lines.append(f"  {layer:10s} {row['self_s']:9.4f} {share:7.1%} "
                     f"{row['worker_s']:10.4f} {row['calls']:8d}")
    lines.append("  per-layer metrics:")
    for m in PER_LAYER:
        lines.append(f"    {m.name:26s} {result['metrics'][m.name]:12.6g} {m.unit}")
    return "\n".join(lines)


def write(out_dir: str, stem: str, spans: list[dict], text: str) -> None:
    with open(f"{out_dir}/trace-{stem}.json", "w") as fh:
        json.dump(chrome_trace(spans), fh)
    with open(f"{out_dir}/layers-{stem}.txt", "w") as fh:
        fh.write(text + "\n")
