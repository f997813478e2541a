"""The sequence-unrolling axiom is bounded by syntactic tail depth.

``TheoryBranch._unroll_nonempty`` never fires on ``seq.tail^k(x)`` with
``k ≥ MAX_UNROLL``. Every ``push`` of the crates asks whether
``len + 1`` can overflow; in that branch a sequence's length is pinned
at ``2^64 - 1``, and without the bound each closure round unrolled one
more tail, 159 deep, until ``close()``'s round cap stopped it short of
a fixpoint. These tests pin the bound on that query, at the deepest
refutation it still allows, and on every crate function: no
``close_exhaustive`` call ends dirty without a conflict.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.solver import Solver, Status
from repro.solver.core import MAX_UNROLL, TheoryBranch
from repro.solver.sorts import INT, SeqSort, TupleSort
from repro.solver.terms import (
    add,
    and_,
    eq,
    fresh_var,
    intlit,
    le,
    not_,
    seq_empty,
    seq_len,
    seq_tail,
    tuple_mk,
)

ROOT = Path(__file__).resolve().parents[2]
USIZE_MAX = 2**64 - 1
STRATEGIES = ("prefix_reuse", "baseline")


class _Watch:
    """Every ``close_exhaustive`` outcome and successful unrolling, on
    every theory branch."""

    def __init__(self, monkeypatch) -> None:
        self.capped = 0  # calls that ended dirty without a conflict
        self.closes = 0
        self.unrolls = 0
        close_exhaustive = TheoryBranch.close_exhaustive
        unroll = TheoryBranch._unroll_nonempty

        def watched_close(branch, *args, **kwargs):
            close_exhaustive(branch, *args, **kwargs)
            self.closes += 1
            if branch._dirty and not branch.conflict():
                self.capped += 1

        def watched_unroll(branch, len_term, s):
            fired = unroll(branch, len_term, s)
            self.unrolls += fired
            return fired

        monkeypatch.setattr(TheoryBranch, "close_exhaustive", watched_close)
        monkeypatch.setattr(TheoryBranch, "_unroll_nonempty", watched_unroll)


def _push_overflow_query() -> tuple[list, int]:
    """``RawStack::push``'s overflow check, from fresh variables, and
    the number of sequences it names."""
    seq = SeqSort(INT)
    cur, x, a = (fresh_var(n, seq) for n in ("cur", "x", "a"))
    repr_ = fresh_var("repr", TupleSort((seq, seq)))
    n = fresh_var("L", INT)
    n1 = add(n, intlit(1))
    query = [
        eq(repr_, tuple_mk(cur, x)),
        eq(a, cur),
        le(intlit(0), n),
        le(n, intlit(USIZE_MAX)),
        eq(seq_len(a), n),
        not_(and_(le(intlit(0), n1), le(n1, intlit(USIZE_MAX)))),
    ]
    return query, 3


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_push_overflow_query_reaches_a_fixpoint(strategy, monkeypatch):
    query, sequences = _push_overflow_query()
    watch = _Watch(monkeypatch)
    assert Solver(strategy=strategy).check_sat(query) == Status.SAT
    assert watch.closes and watch.capped == 0
    assert 0 < watch.unrolls <= MAX_UNROLL + sequences


def _tail_empty_query(k: int) -> list:
    """``len(s) ≥ k ∧ seq.tail^(k-1)(s) = empty``: refuted only by
    unrolling ``s`` down to ``seq.tail^(k-2)(s)``."""
    s = fresh_var("s", SeqSort(INT))
    t = s
    for _ in range(k - 1):
        t = seq_tail(t)
    return [le(intlit(k), seq_len(s)), eq(t, seq_empty(INT))]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_deepest_refutation_the_bound_allows(strategy):
    for k in range(1, MAX_UNROLL + 2):
        query = _tail_empty_query(k)
        assert Solver(strategy=strategy).check_sat(query) == Status.UNSAT, k


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_one_past_the_bound_stays_unrefuted(strategy):
    """The sound direction of the bound: a refutation it cuts off
    leaves the query SAT, a failed proof and never a false one."""
    query = _tail_empty_query(MAX_UNROLL + 2)
    assert Solver(strategy=strategy).check_sat(query) == Status.SAT


_GUARD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import solver_counters
from repro.hybrid.pipeline import HybridVerifier
from repro.solver.core import TheoryBranch

capped, closes, current = {}, {}, [None]
run, close_exhaustive = HybridVerifier.run, TheoryBranch.close_exhaustive

def watched_run(self, fns, *args, **kwargs):
    current[0] = fns[0]
    return run(self, fns, *args, **kwargs)

def watched_close(branch, *args, **kwargs):
    close_exhaustive(branch, *args, **kwargs)
    closes[current[0]] = closes.get(current[0], 0) + 1
    if branch._dirty and not branch.conflict():
        capped[current[0]] = capped.get(current[0], 0) + 1

HybridVerifier.run = watched_run
TheoryBranch.close_exhaustive = watched_close
solver_counters.counters()
print(json.dumps({"closes": closes, "capped": capped}))
"""


def test_no_crate_function_hits_the_round_cap():
    """Every ``close_exhaustive`` call on the 17 crate functions of
    ``scripts/solver_counters.py`` reaches a true fixpoint."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD, str(ROOT / "scripts")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert len(seen["closes"]) == 17
    assert seen["capped"] == {}
