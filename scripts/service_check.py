"""Verification-service acceptance gate.

Exercises a real ``scripts/reprod.py`` daemon end-to-end over its Unix
socket and asserts the service's acceptance criteria:

1. **warm resubmission is free** — the second submit of an unchanged
   corpus re-verifies zero functions and skips program setup entirely
   (no ``service.parse`` / ``service.logic`` phase spans);
2. **contract edits re-verify exactly the moved fingerprints, and
   nothing goes stale** — editing ``demo::leaf``'s contract
   re-verifies exactly the functions whose fingerprints moved
   (``leaf`` and its direct caller ``mid``) and reuses the rest; an
   edit that ``mid`` can no longer meet turns the response
   ``refuted``; and after every edit the daemon's per-function
   statuses equal those of a fresh store-less ``HybridVerifier.run``
   under the same contracts. An ``ensures``-only edit of a
   ``linked_list`` function re-checks only the postcondition (its
   response has no ``pre`` phase): a tautology comes back
   ``verified``, a false clause ``refuted``, each as a fresh run;
3. **worker crashes degrade, never kill the daemon** — with
   ``parallel.worker@leaf:crash`` injected at ``jobs=2``, the request
   completes (parent-side serial retry) and ``health`` still answers;
4. **SIGTERM drains and a restart resumes** — the daemon exits 0,
   answers what it never got to as ``drained``, and a restarted daemon
   over the same store misses on exactly the drained remainder and
   answers the finished half from the store;
5. **the daemon and the CLI agree** — the ``demo`` and ``linked_list``
   corpora through a daemon at ``--jobs 1`` and ``--jobs 2``, on a cold
   store and again after a restart on the warm one, give the same
   per-function statuses as ``HybridVerifier.run``.

Run with ``python scripts/service_check.py``.
"""

import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.hybrid.pipeline import HybridVerifier, entries_status  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.corpus import load_corpus  # noqa: E402


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


class Daemon:
    def __init__(self, root: pathlib.Path, tag: str, *, jobs: int = 1,
                 fault: str = "", watchdog: float = 0.0) -> None:
        self.socket = str(root / f"reprod-{tag}.sock")
        self.cache = root / "cache"
        cmd = [
            sys.executable, str(REPO / "scripts" / "reprod.py"),
            "--socket", self.socket,
            "--cache-dir", str(self.cache),
            "--jobs", str(jobs),
        ]
        if watchdog:
            cmd += ["--watchdog", str(watchdog)]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        env.pop("REPRO_FAULT", None)
        if fault:
            env["REPRO_FAULT"] = fault
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                     text=True)
        line = self.proc.stdout.readline()
        if "listening" not in line:
            fail(f"daemon did not start: {line!r}")

    def client(self) -> ServiceClient:
        return ServiceClient.connect(self.socket, timeout=120.0, wait=5.0)

    def stop(self) -> None:
        if self.proc.poll() is None:
            with self.client() as c:
                c.shutdown()
            self.proc.wait(timeout=30)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


def check_incremental(root: pathlib.Path) -> None:
    d = Daemon(root, "incr")
    try:
        with d.client() as c:
            cold = c.submit("demo", id="cold")
            if not cold["ok"] or len(cold["reverified"]) != 4:
                fail(f"cold submit did not verify the corpus: {cold}")

            warm = c.submit("demo", id="warm")
            if warm["reverified"] or warm["cached"]:
                fail(f"warm resubmit re-verified something: {warm}")
            leaked = [p for p in warm["phases"]
                      if p in ("service.parse", "service.logic")]
            if leaked:
                fail(f"warm resubmit paid program setup: {leaked}")
            print(f"  warm resubmit: 0 re-verified, phases={sorted(warm['phases'])}")

            before, _ = cli_view("demo", {})
            edits = (
                ("tautology", {"ensures": ["result == x", "x == x"]}, "verified"),
                ("weakened", {"ensures": ["result >= x"]}, "refuted"),
            )
            for tag, leaf, want_status in edits:
                contracts = {"demo::leaf": leaf}
                fps, fresh = cli_view("demo", contracts)
                moved = sorted(n for n in fps if fps[n] != before[n])
                edit = c.submit("demo", id=tag, contracts=contracts)
                if edit["reverified"] != moved:
                    fail(f"{tag} edit re-verified {edit['reverified']}, "
                         f"wanted exactly the moved fingerprints {moved}")
                if edit["reused"] != sorted(set(fps) - set(moved)):
                    fail(f"{tag} edit did not reuse the rest: {edit}")
                if edit["status"] != want_status:
                    fail(f"{tag} edit status {edit['status']}, "
                         f"wanted {want_status}: {edit['functions']}")
                if edit["functions"] != fresh:
                    fail(f"{tag} edit is stale: daemon {edit['functions']} "
                         f"!= fresh run {fresh}")
                before = fps
                print(f"  {tag} leaf contract: re-verified {moved}, "
                      f"status {edit['status']}, same as a fresh run")
            check_postcondition_edits(c)
    finally:
        d.stop()
        d.kill()


def check_postcondition_edits(c: ServiceClient) -> None:
    """``ensures``-only edits of one linked_list function: the daemon
    reuses the exit states its last run left and consumes only the new
    postcondition, so no precondition is produced."""
    from repro.rustlib.contracts import LINKED_LIST_CONTRACTS

    fn = "LinkedList::pop_front_node"
    base = LINKED_LIST_CONTRACTS[fn]
    prime = c.submit("linked_list", id="ll-prime", functions=[fn])
    if not prime["ok"]:
        fail(f"{fn} did not verify: {prime}")
    for tag, clause, want_status in (
        ("ensures tautology", "1 == 1", "verified"),
        ("ensures false", "false", "refuted"),
    ):
        contracts = {fn: {**base, "ensures": [*base["ensures"], clause]}}
        edit = c.submit("linked_list", id=tag, functions=[fn], contracts=contracts)
        _, fresh = cli_view("linked_list", contracts, [fn])
        if edit["reverified"] != [fn] or edit["status"] != want_status:
            fail(f"{tag} edit of {fn}: {edit}, wanted {want_status}")
        if "pre" in edit["phases"]:
            fail(f"{tag} edit of {fn} produced a precondition again: "
                 f"{sorted(edit['phases'])}")
        if edit["functions"] != fresh:
            fail(f"{tag} edit is stale: daemon {edit['functions']} "
                 f"!= fresh run {fresh}")
        print(f"  {tag} on {fn}: status {edit['status']}, no pre phase, "
              "same as a fresh run")


def check_crash_degrades(root: pathlib.Path) -> None:
    d = Daemon(root / "crash", "crash", jobs=2,
               fault="parallel.worker@leaf:crash")
    try:
        with d.client() as c:
            r = c.submit("demo", jobs=2)
            bad = {n: s for n, s in r["functions"].items() if s != "verified"}
            if not r["ok"] or bad:
                fail(f"worker crash did not degrade cleanly: {bad or r}")
            if not c.health()["ok"]:
                fail("daemon unhealthy after worker crash")
            print("  worker crash at jobs=2: all verified via retry, daemon healthy")
    finally:
        d.stop()
        d.kill()


def check_sigterm_resume(root: pathlib.Path) -> None:
    base = root / "sigterm"
    d = Daemon(base, "a", fault="pipeline.verify_one@mid:delay:1.5")
    out = {}

    def bg_submit():
        with d.client() as c:
            out["r"] = c.submit("demo")

    t = threading.Thread(target=bg_submit)
    t.start()
    entries = base / "cache" / "entries"
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline and not any(entries.rglob("*.json")):
        time.sleep(0.02)
    # leaf has published; the pause lets the dispatcher pass the stop
    # check before mid (delayed), so the signal lands while it runs.
    time.sleep(0.3)
    d.proc.send_signal(signal.SIGTERM)
    code = d.proc.wait(timeout=30)
    t.join(timeout=30)
    if code != 0:
        fail(f"SIGTERM exit code {code}, wanted 0")
    r = out.get("r", {})
    drained = sorted(r.get("drained", []))
    if drained != ["demo::side", "demo::top"]:
        fail(f"drained set {drained}, wanted side+top")
    print(f"  SIGTERM: exit 0, drained={drained}")

    d2 = Daemon(base, "b")
    try:
        with d2.client() as c:
            r2 = c.submit("demo")
            if sorted(r2["reverified"]) != drained:
                fail(f"resume missed on {r2['reverified']}, "
                     f"wanted exactly {drained}")
            if sorted(r2["cached"]) != ["demo::leaf", "demo::mid"]:
                fail(f"resume did not reuse the finished half: {r2}")
            print(f"  resume: re-verified exactly {drained}, "
                  "finished half answered from the store")
    finally:
        d2.stop()
        d2.kill()


def cli_view(
    corpus_name: str, overrides: dict, functions: list = None
) -> tuple[dict, dict]:
    """Fingerprints and per-function statuses of a fresh store-less
    run of the corpus (or of ``functions``) under its contracts merged
    with ``overrides``."""
    corpus = load_corpus(corpus_name)
    verifier = HybridVerifier(
        corpus.program,
        corpus.ownables,
        {**corpus.contracts, **overrides},
        manual_pure_pre=corpus.manual_pure_pre,
        auto_extract=corpus.auto_extract,
    )
    report = verifier.run(functions)
    statuses = {n: entries_status(es) for n, es in report.by_function().items()}
    return {n: verifier.fingerprint(n) for n in statuses}, statuses


def check_daemon_matches_cli(root: pathlib.Path) -> None:
    corpora = ("demo", "linked_list")
    want = {name: cli_view(name, {})[1] for name in corpora}
    for jobs in (1, 2):
        base = root / f"same-jobs{jobs}"
        for phase in ("cold", "warm"):
            d = Daemon(base, phase, jobs=jobs)
            try:
                with d.client() as c:
                    for name in corpora:
                        r = c.submit(name)
                        if r["functions"] != want[name]:
                            fail(f"{name} at jobs={jobs} ({phase}): daemon "
                                 f"{r['functions']} != CLI {want[name]}")
                        if phase == "warm" and r["reverified"]:
                            fail(f"{name} at jobs={jobs}: warm store "
                                 f"re-verified {r['reverified']}")
            finally:
                d.stop()
                d.kill()
        print(f"  jobs={jobs}: demo + linked_list, cold and warm, "
              "same statuses as the CLI")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="service-check-") as tmp:
        root = pathlib.Path(tmp)
        print("incremental re-verification:")
        check_incremental(root)
        print("worker-crash degradation:")
        check_crash_degrades(root)
        print("SIGTERM drain + resume:")
        check_sigterm_resume(root)
        print("daemon = CLI:")
        check_daemon_matches_cli(root)
    print("\nservice check PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
