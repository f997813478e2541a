"""Golden solver counters on the benchmark's three crates.

Verifies every function of the LinkedList, RawStack and RawVec crates
(the programs and function lists of ``perfbench/corpora.py`` and
``perfbench/workloads.py``) one at a time at ``jobs=1``, each with a
fresh :class:`Solver` and no proof store, and records per function its
verdicts and the deltas of the solver counters it drove: checks,
branches, cache hits and misses, and prefix hits, misses and extends.

A change to the solver that keeps its derivations keeps every one of
these numbers, so ``tests/solver/data/crate_counters.json`` pins them
and ``tests/solver/test_crate_counters.py`` compares a fresh run
against it.

Run with ``python scripts/solver_counters.py`` to print the JSON, or
with ``--write`` to regenerate the golden file.
"""

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "perfbench"))

import corpora  # noqa: E402
import workloads  # noqa: E402

from repro.hybrid.pipeline import HybridVerifier  # noqa: E402
from repro.solver import Solver  # noqa: E402
from repro.solver.core import GLOBAL_STATS  # noqa: E402

GOLDEN = REPO / "tests" / "solver" / "data" / "crate_counters.json"

COUNTERS = (
    "checks",
    "branches",
    "cache_hits",
    "cache_misses",
    "alpha_hits",
    "prefix_hits",
    "prefix_misses",
    "prefix_extends",
)


def counters() -> dict:
    """``{crate: {function: {"verdicts": [[half, status]...],
    "counters": {name: delta}}}}``, in the benchmark's order."""
    crates = corpora.build_crates()
    out: dict = {}
    for name, functions in workloads.CRATES.items():
        crate = crates[name]
        out[name] = {}
        for fn in functions:
            hv = HybridVerifier(
                crate.program,
                crate.ownables,
                crate.contracts,
                solver=Solver(),
                manual_pure_pre=crate.manual_pure_pre,
            )
            hv.store = None  # a store hit would skip the solver
            before = dict(GLOBAL_STATS)
            report = hv.run([fn], jobs=1)
            out[name][fn] = {
                "verdicts": [[e.half, e.status] for e in report.entries],
                "counters": {k: GLOBAL_STATS[k] - before[k] for k in COUNTERS},
            }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true", help=f"write {GOLDEN.name}")
    args = ap.parse_args()
    text = json.dumps(counters(), indent=2) + "\n"
    if not args.write:
        sys.stdout.write(text)
        return 0
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(text)
    print(f"wrote {GOLDEN.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
