"""Check, don't trust: every alpha-memo hit on the crates re-solves to
the same answer.

A memo hit answers a query from an earlier query that it renames
(:func:`repro.solver.terms.alpha_key`). Renaming preserves
satisfiability, but the solver is incomplete, so the argument only
covers its answers if its derivations never depend on names. This suite
records every query that the memo answered while verifying the three
verified crate functions with the most memo hits, and re-solves each
one with a fresh solver.

The memo's hits must not depend on how far the process's
fresh-variable counter has run either, or solver counters would
differ between a serial run and a forked worker.
"""

import itertools

import pytest

import repro.solver.terms as terms
from repro.solver import Solver
from tests.solver.test_closure_worklist import crate_verifier


class _MemoRecorder(Solver):
    """A solver that records ``(query, answer)`` for every memo hit."""

    def __init__(self) -> None:
        super().__init__()
        self.hits: list = []

    def check_sat(self, formulas):
        fs = list(formulas)
        before = self.stats["alpha_hits"]
        answer = super().check_sat(fs)
        if self.stats["alpha_hits"] > before:
            self.hits.append((fs, answer))
        return answer


@pytest.mark.parametrize(
    "crate, function",
    [
        ("LinkedList", "LinkedList::pop_front_node"),
        ("RawVec", "RawVec::pop"),
        ("RawVec", "RawVec::push_within_capacity"),
    ],
)
def test_memo_hits_match_a_fresh_solve(crate, function):
    solver = _MemoRecorder()
    entries = crate_verifier(crate, solver).verify_one(function)
    assert entries and all(e.ok for e in entries), [str(e) for e in entries]
    assert len(solver.hits) >= 20
    for fs, answer in solver.hits:
        assert Solver().check_sat(fs) == answer, fs


@pytest.mark.parametrize("start", [9950, 99800])
def test_memo_hits_do_not_depend_on_the_fresh_counter(start, monkeypatch):
    """``eq`` orders its sides by their printed names, so a variable
    number that gains a digit mid-function swaps some sides; from these
    starts it does in ``LinkedList::pop_front_node``."""

    def counters(first: int) -> dict:
        monkeypatch.setattr(terms, "_fresh_counter", itertools.count(first))
        solver = Solver()
        crate_verifier("LinkedList", solver).verify_one("LinkedList::pop_front_node")
        return {k: solver.stats[k] for k in ("checks", "alpha_hits", "branches")}

    assert counters(start) == counters(0)
