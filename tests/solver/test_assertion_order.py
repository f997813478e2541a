"""The verdict of a literal set must not depend on its assertion order.

Fourier–Motzkin decides which pairs to combine from the two constraints
alone (their depths and the width of the result), never from how many
constraints the store already holds, so the order in which a branch
receives its literals must not decide a conflict. The cross-strategy
suites permute assertions only as far as the two searches differ; this
one shuffles the literals of each path-condition walk query directly,
inside one branch, and closes each order exhaustively.
"""

import random

import pytest

from repro.solver.core import TheoryBranch
from repro.solver.strategies import _split_kind
from tests.solver.test_closure_worklist import _split
from tests.solver.test_strategies import _pc_walk

SHUFFLES = 3


def _literal_sets(seed: int) -> list[tuple]:
    """Each walk query's literals: its prefix's literal conjuncts, and
    the goal when it is a literal too; each distinct set once."""
    sets: dict[frozenset, tuple] = {}
    for fs in _pc_walk(random.Random(seed)):
        lits, _ = _split(fs)
        if _split_kind(fs[-1]) == 0:
            lits.append(fs[-1])
        sets.setdefault(frozenset(lits), tuple(lits))
    return list(sets.values())


def _conflict(lits) -> bool:
    branch = TheoryBranch()
    for lit in lits:
        branch.assert_literal(lit)
    branch.close_exhaustive()
    return branch.conflict()


@pytest.mark.parametrize("seed", range(8))
def test_verdict_does_not_depend_on_assertion_order(seed):
    sets = _literal_sets(seed)
    assert len(sets) > 50
    conflicts = 0
    for n, lits in enumerate(sets):
        verdict = _conflict(lits)
        conflicts += verdict
        for k in range(SHUFFLES):
            order = list(lits)
            random.Random(f"{seed}/{n}/{k}").shuffle(order)
            assert _conflict(order) == verdict, order
    # Both verdicts occur, so the comparison has something to compare.
    assert 0 < conflicts < len(sets)
