"""Verifying a function loads no module of the verifier.

perfbench times its workloads in fresh processes without a bytecode
cache, so a module first imported inside a verification is compiled
inside the timed corpus (and again in every forked pool worker). The
whole verification path must therefore be imported by the time a
program is built. The check runs in a fresh interpreter, because the
suite's own process has imported everything long before.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import sys
from repro.gillian.verifier import verify_function
from repro.rustlib.linked_list import build_program
from repro.rustlib.specs import install_callee_specs
from repro.solver import Solver

program, ownables = build_program()
install_callee_specs(program, ownables)
before = set(sys.modules)
for name in ("LinkedList::new", "LinkedList::pop_front_node"):
    r = verify_function(program, program.bodies[name], program.specs[name], Solver())
    assert r.ok, name
print("\\n".join(sorted(m for m in set(sys.modules) - before if m.startswith("repro"))))
"""


def test_verification_imports_no_repro_module():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
