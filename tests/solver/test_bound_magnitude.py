"""Bound propagation must not grow its numbers without limit.

A cycle whose gain exceeds one (``2x ≤ y ∧ y ≤ x``) and whose
Fourier–Motzkin combinations are too wide to keep is left to bound
propagation, which raises the lower bounds on every step: by a factor,
so the numbers gain bits with every ``propagate()`` call and each step
costs more than the last. ``propagate()`` bounds the number of steps,
not the size of the numbers; the magnitude cap
(``intervals._MAX_MAGNITUDE``) bounds the size. The stream test also
carries the cyclic ``s = tail(s)`` next to ``3 ≤ len(s)`` that the
original runaway stream had.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.solver import intervals
from repro.solver.core import TheoryBranch
from repro.solver.sorts import INT
from repro.solver.terms import Var, add, eq, intlit, le

from tests.solver import test_closure_worklist as cw
from tests.solver.test_strategies import _atom

ROOT = Path(__file__).resolve().parents[2]
CAP_BITS = intervals._MAX_MAGNITUDE.bit_length()


def _bits(v) -> int:
    if v is None:
        return 0
    if type(v) is int:
        return abs(v).bit_length()
    return max(abs(v.numerator).bit_length(), v.denominator.bit_length())


def _widest_bound(branch: TheoryBranch) -> int:
    return max(
        max(_bits(b.lo), _bits(b.hi)) for b in branch.lin.bounds.values()
    )


def test_cyclic_gain_stops_at_the_cap():
    x, y = Var("x", INT), Var("y", INT)
    u, v, w, z = (Var(n, INT) for n in "uvwz")
    branch = TheoryBranch()
    for lit in (
        # A variable added to itself: gain 2. The zero-pinned padding
        # makes every combination of the two wider than two atoms.
        le(add(x, x, u), add(y, v)),
        le(add(y, w), add(x, z)),
        *(eq(a, intlit(0)) for a in (u, v, w, z)),
        le(intlit(1), x),
    ):
        branch.assert_literal(lit)
    branch.close()
    assert all(c.depth == 0 for c in branch.lin.constraints)
    # One step may carry a bound past the cap; none goes further. (The
    # uncapped store reached about 27,000 bits in this one close().)
    assert CAP_BITS < _widest_bound(branch) <= CAP_BITS + 2
    assert not branch.conflict()


def run_stream(seed: int, steps: int) -> None:
    """The closure oracle's random stream (push, pop, close), drawing
    its integer atoms with test_strategies' ``_atom``, whose terms can
    add a variable to itself."""
    rng = random.Random(seed)
    branch = TheoryBranch()
    for _ in range(steps):
        move = rng.random()
        if move < 0.45:
            branch.assert_literal(cw._literal(rng, int_atom=_atom))
        elif move < 0.5:
            x, k = rng.choice(cw.IVARS), intlit(rng.randint(4, 60))
            branch.assert_literal(le(x, k))
            branch.assert_literal(le(k, x))
        elif move < 0.65:
            branch.close()
        elif move < 0.8:
            branch.push()
        elif move < 0.9 and branch.frame()[0]:
            branch.pop()
        if rng.random() < 0.3:
            branch.close_exhaustive()
    branch.close_exhaustive()
    print(_widest_bound(branch))


def test_runaway_stream_terminates():
    """Seed 15 made one close_exhaustive() run for minutes without the
    cap. It runs in a subprocess so that a regression fails at the
    timeout instead of hanging the suite."""
    script = (
        "from tests.solver.test_bound_magnitude import run_stream\n"
        "run_stream(15, 200)\n"
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT}"},
            capture_output=True,
            text=True,
            timeout=90,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("bound propagation ran away (no result within 90 s)")
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 2 * CAP_BITS
