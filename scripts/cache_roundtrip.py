"""Cold → warm → corrupt-and-heal → hot acceptance check for the proof
store.

Runs the linked-list hybrid example repeatedly against one cache:

1. **cold** — empty store: every function verifies and publishes into
   ``entries/<fp[:2]>/<fp>.json``;
2. **parallel cold** — a second empty store at ``jobs=2``: the pool
   workers only verify and the parent publishes, so every function
   lands under the same fingerprint as in the first store, and the
   report is identical to the cold one;
3. **warm** — same inputs, fresh process: every function replays from
   disk, and the report is identical to the cold one (modulo
   wall-clock);
4. **heal** — one entry file gets a flipped byte: exactly that one
   function is quarantined, re-verified and republished; the report is
   still identical and the run never fails;
5. **hot**  — two runs inside one process: both replay every entry
   from disk (one read per function per run) and match the cold
   report.

Each phase happens in a fresh subprocess (``REPRO_CACHE=1`` in its
environment), so the cache is exercised across real process
boundaries — the way CI and users hit it. Exits non-zero with a
message on the first violated expectation.

Run with ``python scripts/cache_roundtrip.py [cache-dir]``.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent

FUNCTIONS = [
    "client::stack_lifo",
    "LinkedList::new",
    "LinkedList::push_front_node",
    "LinkedList::pop_front_node",
    "LinkedList::front_mut",
]

# Runs in a subprocess: build the example program, run the pipeline
# (argv[2] times, same process, at jobs=argv[3]) with the
# env-configured store, dump what the parent asserts on — one record
# per run.
_DRIVER = """
import json, sys
sys.path.insert(0, "examples")
from hybrid_client import build_stack_client
from repro.hybrid.pipeline import HybridVerifier
from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
from repro.rustlib.linked_list import build_program
from repro.rustlib.specs import install_callee_specs

program, ownables = build_program()
install_callee_specs(program, ownables)
program.add_body(build_stack_client())
verifier = HybridVerifier(
    program, ownables, LINKED_LIST_CONTRACTS,
    manual_pure_pre=MANUAL_PURE_PRECONDITIONS,
)
functions = json.loads(sys.argv[1])
runs, jobs = int(sys.argv[2]), int(sys.argv[3])
out = []
for _ in range(runs):
    report = verifier.run(functions, jobs=jobs)
    out.append({
        "ok": report.ok,
        "entries": [[e.function, e.half, e.ok, e.status] for e in report.entries],
        "store": report.store_stats,
        "render": report.render(),
    })
print(json.dumps(out))
"""


def run_pipeline(cache_dir, runs=1, jobs=1, extra_env=None):
    env = dict(
        os.environ,
        PYTHONPATH="src",
        REPRO_CACHE="1",
        REPRO_CACHE_DIR=str(cache_dir),
        **(extra_env or {}),
    )
    proc = subprocess.run(
        [
            sys.executable, "-c", _DRIVER,
            json.dumps(FUNCTIONS), str(runs), str(jobs),
        ],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"pipeline subprocess failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def entry_names(cache_dir):
    return sorted(p.name for p in (cache_dir / "entries").glob("*/*.json"))


def expect(cond, message):
    if not cond:
        raise SystemExit(f"FAIL: {message}")
    print(f"  ok: {message}")


def main() -> int:
    if len(sys.argv) > 1:
        cache_dir = pathlib.Path(sys.argv[1])
        cache_dir.mkdir(parents=True, exist_ok=True)
    else:
        cache_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-cache-"))
    n = len(FUNCTIONS)

    print(f"[1/5] cold run against {cache_dir}")
    [cold] = run_pipeline(cache_dir)
    expect(cold["ok"], "cold run verifies everything")
    expect(
        cold["store"]["misses"] == n and cold["store"]["stores"] == n,
        f"cold run verifies and publishes all {n} functions",
    )
    published = sorted((cache_dir / "entries").glob("*/*.json"))
    expect(
        len(published) == n
        and all(p.parent.name == p.stem[:2] for p in published),
        f"all {n} entries published under entries/<fp[:2]>/",
    )

    par_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-cache-jobs2-"))
    print(f"[2/5] cold run at jobs=2 against {par_dir}")
    [par] = run_pipeline(par_dir, jobs=2)
    expect(
        par["store"] == cold["store"],
        f"jobs=2 cold run verifies and publishes all {n} functions",
    )
    expect(
        entry_names(par_dir) == entry_names(cache_dir),
        f"jobs=2 publishes the same {n} fingerprints as jobs=1",
    )
    expect(
        par["entries"] == cold["entries"],
        "jobs=2 report is identical to the cold one",
    )

    print("[3/5] warm run")
    [warm] = run_pipeline(cache_dir)
    expect(
        warm["store"]["hits"] == n and warm["store"]["misses"] == 0,
        f"warm run replays all {n} functions from the cache",
    )
    expect(
        warm["entries"] == cold["entries"],
        "warm report is identical to the cold one",
    )

    print("[4/5] corrupt one entry, heal run")
    entries = sorted((cache_dir / "entries").glob("*/*.json"))
    expect(len(entries) == n, f"{n} entry files on disk")
    victim = entries[0]
    blob = bytearray(victim.read_bytes())
    blob[blob.find(b'"payload": "') + 20] ^= 0x01
    victim.write_bytes(bytes(blob))

    [heal] = run_pipeline(cache_dir)
    expect(heal["ok"], "heal run still verifies everything")
    expect(
        heal["store"]["quarantined"] == 1 and heal["store"]["corrupt"] == 1,
        "the corrupt entry was detected and quarantined",
    )
    expect(
        heal["store"]["hits"] == n - 1
        and heal["store"]["misses"] == 1
        and heal["store"]["stores"] == 1,
        "exactly one function was re-verified and republished",
    )
    expect(
        heal["store"]["healed"] == 1,
        "the republished entry healed the quarantined fingerprint",
    )
    expect(
        heal["entries"] == cold["entries"],
        "healed report is identical to the cold one",
    )

    print("[5/5] hot runs: two runs in one process, both from disk")
    runs = run_pipeline(cache_dir, runs=2)
    for i, hot in enumerate(runs, 1):
        expect(
            hot["store"]["hits"] == hot["store"]["disk_reads"] == n
            and hot["store"]["misses"] == 0,
            f"hot run {i} replays all {n} entries from disk",
        )
        expect(
            hot["entries"] == cold["entries"],
            f"hot run {i} report is identical to the cold one",
        )

    print("\n" + runs[-1]["render"])
    print("\ncache round-trip: all expectations hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
