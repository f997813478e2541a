"""The solver's counters on the three crates match the golden file.

``scripts/solver_counters.py`` verifies every function of the
benchmark's LinkedList, RawStack and RawVec crates at ``jobs=1`` with a
fresh solver each, and records its verdicts and its solver counter
deltas (checks, branches, cache and prefix hits and misses).
``data/crate_counters.json`` holds that record. A solver change that
keeps the closure's derivations keeps every number, so any difference
here means the change derives something else: a different search, a
lost refutation or an extra case split.

Regenerate the file with ``python scripts/solver_counters.py --write``
only for a change that is meant to alter the derivations.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "solver" / "data" / "crate_counters.json"


def test_counters_match_golden_file():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "solver_counters.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN.read_text()
