#!/usr/bin/env python3
"""Gate: observability must be (nearly) free when tracing is disabled.

Runs the LinkedList hybrid-verification workload in two child
interpreters — one with the default environment (coarse spans
aggregate, but no trace file is written) and one with ``REPRO_OBS=0``
(every span helper is a no-op) — and fails if the instrumented run is
more than ``--threshold`` slower than the no-obs baseline.

Usage::

    python scripts/obs_overhead.py
    python scripts/obs_overhead.py --runs=8 --threshold=0.05

Timing happens *inside* each child with ``time.perf_counter`` around
the verification loop only, so interpreter start-up and import cost —
which dwarf the instrumentation and vary run to run — never enter the
measurement. Each child reports the best of ``--runs`` iterations
(best-of-N strips scheduler noise from a CPU-bound benchmark); a
first untimed iteration warms the allocator and code caches. The
parent alternates off/on children over ``--rounds`` rounds and keeps
the per-variant minimum, so slow drift in machine speed (thermal /
frequency scaling) hits both variants equally. Exit 0 when overhead ≤
threshold, 1 otherwise (or when the workload itself fails).
"""

from __future__ import annotations

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Executed in a fresh interpreter per variant; REPRO_OBS is read at
#: import time, so the off/on variants must be separate processes.
CHILD_SCRIPT = r"""
import sys, time
runs = int(sys.argv[1])

from repro.hybrid.pipeline import HybridVerifier
from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
from repro.rustlib.linked_list import build_program
from repro.rustlib.specs import install_callee_specs

FNS = [
    "LinkedList::new",
    "LinkedList::push_front_node",
    "LinkedList::pop_front_node",
    "LinkedList::front_mut",
]

def one_run():
    program, ownables = build_program()
    install_callee_specs(program, ownables)
    verifier = HybridVerifier(
        program,
        ownables,
        LINKED_LIST_CONTRACTS,
        manual_pure_pre=MANUAL_PURE_PRECONDITIONS,
    )
    report = verifier.run(FNS, jobs=1)
    assert report.ok, report.render()

one_run()  # warm-up, untimed
best = float("inf")
for _ in range(runs):
    t0 = time.perf_counter()
    one_run()
    best = min(best, time.perf_counter() - t0)
print(f"BEST {best:.6f}")
"""


def measure(env: dict, runs: int) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, str(runs)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        print("workload failed:", file=sys.stderr)
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(1)
    for line in proc.stdout.splitlines():
        if line.startswith("BEST "):
            return float(line.split()[1])
    print(f"no timing in workload output: {proc.stdout!r}", file=sys.stderr)
    raise SystemExit(1)


def main(argv: list[str]) -> int:
    runs = 3
    rounds = 3
    threshold = 0.05
    for a in argv:
        if a.startswith("--runs="):
            runs = int(a.split("=", 1)[1])
        elif a.startswith("--rounds="):
            rounds = int(a.split("=", 1)[1])
        elif a.startswith("--threshold="):
            threshold = float(a.split("=", 1)[1])
        else:
            print(__doc__.strip(), file=sys.stderr)
            return 1

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    # Neither variant may write a trace — we are measuring the cost of
    # the *instrumentation*, not of trace serialisation.
    env.pop("REPRO_TRACE", None)
    env.pop("REPRO_CACHE", None)

    off_env = dict(env)
    off_env["REPRO_OBS"] = "0"
    on_env = dict(env)
    on_env.pop("REPRO_OBS", None)

    print(
        f"workload: LinkedList hybrid pipeline, in-process "
        f"(best of {runs} x {rounds} alternating rounds)"
    )
    baseline = float("inf")
    instrumented = float("inf")
    for _ in range(rounds):
        baseline = min(baseline, measure(off_env, runs))
        instrumented = min(instrumented, measure(on_env, runs))
    print(f"  REPRO_OBS=0 baseline: {baseline:.3f}s")
    print(f"  default (obs on):     {instrumented:.3f}s")
    overhead = (instrumented - baseline) / baseline
    print(f"  overhead: {overhead * 100:+.2f}%  (threshold {threshold * 100:.0f}%)")
    if overhead > threshold:
        print("FAIL: tracing-disabled observability overhead exceeds threshold",
              file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
