"""The four workloads: what each runs, the inputs it draws from the
seed, and the end-to-end metrics it reports (defined in README.md).

Parent-side and free of ``repro`` imports, so the harness can plan and
check a run without loading the verifier.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

E1 = ("LinkedList::new", "LinkedList::push_front", "LinkedList::pop_front",
      "LinkedList::front_mut")
E2 = ("LinkedList::new", "LinkedList::push_front_node", "LinkedList::pop_front_node")

#: Crates in the order they are verified; functions are shuffled per pass.
CRATES = {
    "LinkedList": (
        "client::stack_lifo", "LinkedList::new", "LinkedList::push_front_node",
        "LinkedList::pop_front_node", "LinkedList::front_mut",
        "bad_new", "first_node_mut", "double_free", "bad_pop",
    ),
    "RawStack": ("RawStack::new", "RawStack::push", "RawStack::pop"),
    "RawVec": (
        "RawVec::with_capacity", "RawVec::push_within_capacity", "RawVec::pop",
        "RawVec::bad_push", "RawVec::bad_pop",
    ),
}

DAEMON_WARM = ("LinkedList::new", "LinkedList::push_front_node",
               "LinkedList::pop_front_node", "LinkedList::front_mut",
               "LinkedList::len", "LinkedList::is_empty")
#: push_front_node is left out: one edit of it takes about 1.8 s.
DAEMON_EDIT_TARGETS = ("LinkedList::new", "LinkedList::pop_front_node",
                       "LinkedList::len", "LinkedList::is_empty")
DAEMON_KINDS = ("warm", "edit", "body_edit")
DEMO_FNS = ("demo::leaf", "demo::mid", "demo::top", "demo::side")
#: Rounds each daemon serves: fixed, because the daemon's memory grows
#: with the requests it serves and peak RSS must not depend on speed.
DAEMON_ROUNDS = 9
#: Cycles in the traced daemon session (five rounds of four).
TRACED_DAEMON_ROUNDS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    metrics: tuple
    #: ``REPRO_*`` settings the workload states; nothing else reaches
    #: the child.
    env: tuple = ()


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: Share of the baseline median by which the headline value may
    #: worsen before ``compare.py`` calls it a regression.
    bound: float
    #: Statistic over the samples: ``"median"`` or a percentile.
    stat: object = "median"
    #: Sample list the metric is computed from (defaults to its name).
    samples: str = ""


METRICS = {m.name: m for m in (
    Metric("setup_s", "s", 0.25),
    Metric("corpus_s", "s", 0.2),
    Metric("e1_s", "s", 0.15),
    Metric("e2_s", "s", 0.15),
    Metric("warm_p50_ms", "ms", 0.25, samples="warm_ms"),
    Metric("warm_p90_ms", "ms", 0.25, stat=90, samples="warm_ms"),
    Metric("edit_p50_ms", "ms", 0.25, samples="edit_ms"),
    Metric("edit_p90_ms", "ms", 0.25, stat=90, samples="edit_ms"),
    Metric("body_edit_p50_ms", "ms", 0.25, samples="body_edit_ms"),
    Metric("body_edit_p90_ms", "ms", 0.25, stat=90, samples="body_edit_ms"),
    Metric("peak_rss_mb", "MB", 0.1),
)}

COMMON = ("setup_s", "corpus_s", "peak_rss_mb")
DAEMON_LATENCY = ("warm_p50_ms", "warm_p90_ms", "edit_p50_ms", "edit_p90_ms",
                  "body_edit_p50_ms", "body_edit_p90_ms")

WORKLOADS = {w.name: w for w in (
    Workload(
        "paper_e1e2",
        "The paper's own E1/E2 numbers; solver and symbolic execution do nearly "
        "all the work and the pool, store and daemon none.",
        COMMON + ("e1_s", "e2_s"),
    ),
    Workload(
        "crates_jobs2",
        "Three crates at jobs=2, store off: pool ordering and balance set wall "
        "time, and RawVec's laid-out nodes guard against E2-only solver tuning.",
        COMMON,
    ),
    Workload(
        "warm_cli",
        "A CI re-run on a filled store: every function is a disk hit, so "
        "fingerprinting, store reads and bookkeeping dominate and the solver idles.",
        COMMON,
        env=(("REPRO_CACHE", "1"),),
    ),
    Workload(
        "daemon_edit",
        "IDE-save traffic to one daemon: warm resubmits, contract edits and body "
        "edits interleaved on one connection, reads beside writes on one store.",
        COMMON + DAEMON_LATENCY,
    ),
)}


def hash_seed(seed: int, workload: str, index: int) -> str:
    """``PYTHONHASHSEED`` for one pass, derived from the seed."""
    return str(zlib.crc32(f"{seed}/{workload}/{index}".encode()))


def _shuffled(rng: random.Random, items) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def pass_inputs(workload: str, seed: int, index: int, rounds: int = 0) -> dict:
    """The inputs of pass ``index``: function orders, or for the daemon
    ``rounds`` rounds of four cycles, each cycle one edit target and an
    order of the three request kinds."""
    rng = random.Random(f"{seed}/{workload}/{index}")
    if workload == "paper_e1e2":
        return {"e1": _shuffled(rng, E1), "e2": _shuffled(rng, E2)}
    if workload in ("crates_jobs2", "warm_cli"):
        return {
            "crates": {name: _shuffled(rng, fns) for name, fns in CRATES.items()},
            "jobs": 2 if workload == "crates_jobs2" else 1,
        }
    if workload == "daemon_edit":
        return {"rounds": [
            [{"target": t, "order": _shuffled(rng, DAEMON_KINDS)}
             for t in _shuffled(rng, DAEMON_EDIT_TARGETS)]
            for _ in range(rounds)
        ]}
    raise KeyError(workload)


# -- known answers -------------------------------------------------------------

FAILURES = ("timeout", "crashed", "error")
_SEVERITY = ("error", "crashed", "timeout", "refuted")


def aggregate(statuses) -> str:
    """One function's verdict over its obligations, as the daemon reports it."""
    statuses = list(statuses)
    for s in _SEVERITY:
        if s in statuses:
            return s
    return "verified"


def check_entries(expected: dict, verdicts) -> list[str]:
    """Mismatches between ``(function, obligation, status)`` triples and
    the expected verdicts."""
    out = []
    for fn, kind, status in verdicts:
        want = expected.get(fn, {}).get(kind)
        if want != status:
            out.append(f"{fn} [{kind}]: got {status}, expected {want}")
    return out


def want_reverified(kind: str, target: str) -> list:
    """The functions a daemon request of ``kind`` must re-verify."""
    return {
        "prime_demo": sorted(DEMO_FNS),
        "prime_linked_list": sorted(DAEMON_WARM),
        "warm": [],
        "edit": [target],
        "body_edit": ["demo::leaf"],
    }[kind]


def check_response(expected: dict, rec: dict) -> list[str]:
    """Mismatches in one daemon response: per-function verdicts and the
    ``reverified`` set its kind implies."""
    rid = rec["id"]
    if rec.get("error"):
        return [f"{rid}: {rec['error']}"]
    out = []
    for fn, status in sorted(rec["functions"].items()):
        want = aggregate(v for k, v in expected.get(fn, {}).items() if k != "source")
        if status != want:
            out.append(f"{rid} {fn}: got {status}, expected {want}")
    want = want_reverified(rec["kind"], rec.get("target", ""))
    if rec["reverified"] != want:
        out.append(f"{rid}: reverified {rec['reverified']}, expected {want}")
    return out
