"""CI gate: the default solver search gives the verdicts of ``baseline``.

The solver has two searches: ``prefix_reuse``, the default, which keeps
closed path-condition prefixes across queries, and ``baseline``, the
reference search without that cache. This verifies the LinkedList
functions and the RawStack and RawVec crates once under each search,
each run with a fresh :class:`Solver` and no proof store (a shared
cache would let one search's verdicts mask the other's), and compares the verdict
fingerprints ``(function, half, ok)``. Prints the wall clock per crate
and search, and exits non-zero on any divergence or on a function that
does not verify.

Run with ``python scripts/search_equivalence.py``.
"""

import pathlib
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.hybrid.pipeline import HybridVerifier  # noqa: E402
from repro.rustlib import linked_list, raw_stack, raw_vec  # noqa: E402
from repro.rustlib.contracts import (  # noqa: E402
    LINKED_LIST_CONTRACTS,
    MANUAL_PURE_PRECONDITIONS,
)
from repro.rustlib.specs import install_callee_specs  # noqa: E402
from repro.solver import Solver  # noqa: E402
from repro.solver.core import DEFAULT_STRATEGY  # noqa: E402


def _linked_list():
    program, ownables = linked_list.build_program()
    install_callee_specs(program, ownables)
    functions = [
        "LinkedList::new",
        "LinkedList::push_front_node",
        "LinkedList::pop_front_node",
        "LinkedList::front_mut",
    ]
    return program, ownables, LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS, functions


def _raw_stack():
    program, ownables = raw_stack.build_program()
    manual = {"RawStack::push": ["self@.len() < usize::MAX"]}
    contracts = raw_stack.RAW_STACK_CONTRACTS
    return program, ownables, contracts, manual, list(contracts)


def _raw_vec():
    program, ownables = raw_vec.build_program()
    contracts = raw_vec.RAW_VEC_CONTRACTS
    return program, ownables, contracts, {}, list(contracts)


CRATES = {"LinkedList": _linked_list, "RawStack": _raw_stack, "RawVec": _raw_vec}


def run_once(crate, strategy):
    program, ownables, contracts, manual, functions = crate
    hv = HybridVerifier(
        program,
        ownables,
        contracts,
        manual_pure_pre=manual,
        solver=Solver(strategy=strategy),
    )
    hv.store = None  # a store hit would skip the search under test
    t0 = time.perf_counter()
    report = hv.run(functions, jobs=1)
    wall = time.perf_counter() - t0
    return tuple((e.function, e.half, e.ok) for e in report.entries), wall


def main():
    failed = False
    runs = 0
    for name, build in CRATES.items():
        crate = build()
        fingerprints = {}
        for strategy in (DEFAULT_STRATEGY, "baseline"):
            fingerprints[strategy], wall = run_once(crate, strategy)
            runs += 1
            print(f"  {name:10s}  {strategy:12s}  wall {wall:7.3f}s")
        default, reference = fingerprints[DEFAULT_STRATEGY], fingerprints["baseline"]
        if default != reference:
            failed = True
            print(f"FAIL: {name}: {DEFAULT_STRATEGY} diverges from baseline:", file=sys.stderr)
            for ref, got in zip(reference, default):
                if ref != got:
                    print(f"  {got} != {ref}", file=sys.stderr)
        bad = [fn for fn, _, ok in reference if not ok]
        if bad:
            failed = True
            print(f"FAIL: {name}: functions did not verify: {bad}", file=sys.stderr)
    if failed:
        return 1
    print(f"OK: {runs} runs over {len(CRATES)} crates, identical verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
