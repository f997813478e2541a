"""One benchmark pass in a fresh process.

Reads a task (JSON) on stdin and prints its result as one JSON line on
stdout. Started by ``run.py`` with a scrubbed environment, in an empty
working directory; the verifier sees only the inputs in the task.

Modes:

* ``import`` — import everything once, untimed (fills the bytecode cache);
* ``paper_e1e2`` — build LinkedList, then the E1 and E2 blocks;
* ``crates_jobs2`` / ``warm_cli`` — one ``HybridVerifier.run`` per crate;
* ``fill`` — the same run on a store, untimed, to warm it;
* ``daemon_edit`` — start a daemon, prime it, then run the given
  request rounds on one connection.

Every timing is returned as ``[seconds, reference]``: ``reference`` is
what :func:`reference_s` measured around it, on the CPUs that did the
work, and the harness scales the timing by it.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _peak_rss_mb() -> float:
    """This process's peak RSS, or that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def _loop() -> float:
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict = {}
        for i in range(150000):
            key = i % 97
            table[key] = table.get(key, 0) + len(str(i))
        sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def reference_s(cpus: int = 1) -> float:
    """Wall time of a fixed pure-Python loop, collector off: how fast
    the machine runs the interpreter right now. With ``cpus > 1`` the
    loop runs at once on that many CPUs, one forked process pinned to
    each, and the mean is returned: the speed a parallel pass saw."""
    if cpus == 1:
        return _loop()
    pipes = []
    for cpu in sorted(os.sched_getaffinity(0))[:cpus]:
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read)
                os.sched_setaffinity(0, {cpu})
                os.write(write, repr(_loop()).encode())
            finally:
                os._exit(0)
        os.close(write)
        pipes.append((pid, read))
    times = []
    for pid, read in pipes:
        with os.fdopen(read) as fh:
            times.append(float(fh.read()))
        os.waitpid(pid, 0)
    return statistics.mean(times)


class Clock:
    """Times consecutive segments of work, each between two runs of the
    reference loop on ``cpus`` CPUs."""

    def __init__(self, cpus: int = 1) -> None:
        self.cpus = cpus
        self.last = reference_s(cpus)
        #: Every loop time taken so far.
        self.references = [self.last]

    @contextmanager
    def segment(self):
        """Yields a list that ends up as ``[seconds, reference]``."""
        timing: list = []
        t0 = time.perf_counter()
        yield timing
        seconds = time.perf_counter() - t0
        before, self.last = self.last, reference_s(self.cpus)
        self.references.append(self.last)
        timing += [seconds, (before + self.last) / 2]


def combined(timings) -> list:
    """One ``[seconds, reference]`` for consecutive segments: their total
    time, with the reference that scales the total as each segment is
    scaled by its own."""
    seconds = sum(s for s, _ in timings)
    return [seconds, seconds / sum(s / r for s, r in timings)]


def _kind(entry) -> str:
    if entry.half == "creusot":
        return "creusot"
    return getattr(entry.detail, "kind", "unknown")


class Pass:
    """Set-up timing, optional tracing and the result of one pass."""

    def __init__(self, task: dict) -> None:
        self.task = task
        self.tracer = None
        self.result = {"samples": {}, "verdicts": []}
        if task.get("trace_dir"):
            from tracer import Tracer

            self.tracer = Tracer(task["trace_dir"])
            self.tracer.ctx = "setup"

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext({})

    def sample(self, name: str, timing: list) -> None:
        self.result["samples"].setdefault(name, []).append(timing)

    @contextmanager
    def timed(self, clock: Clock):
        """A segment of the pass: timed by ``clock`` and, when tracing,
        a ``bench.pass`` span that leaves out the reference loops.
        Yields the ``[seconds, reference]`` list the segment fills in."""
        with clock.segment() as timing:
            with self.span("bench.pass") as attrs:
                yield timing
        counters = self.result.setdefault("counters", {})
        for k, v in attrs.get("counters", {}).items():
            counters[k] = counters.get(k, 0) + v

    def setup(self, build):
        """``build()``; returns what it built and the seconds since the
        parent spawned this process (imports included)."""
        imported = time.perf_counter()
        if self.tracer:
            self.tracer.install()
            self.tracer.add("lang.import", self.task["spawned_at"], imported)
        with self.span("lang.build"):
            built = build()
        setup_s = time.perf_counter() - self.task["spawned_at"]
        if self.tracer:
            self.tracer.ctx = "pass"
        return built, setup_s

    def finish(self) -> dict:
        self.result.setdefault("peak_rss_mb", _peak_rss_mb())
        if self.tracer:
            self.tracer.write()
        return self.result


def run_paper(p: Pass) -> None:
    # Module attributes are looked up at call time, so the tracer's
    # wrappers apply; names bound here before it is installed would not.
    import corpora
    from repro.gillian import verifier
    from repro.pearlite import parser
    from repro.pearlite.encode import PearliteEncoder
    from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
    from repro.solver import Solver

    (program, ownables), setup_s = p.setup(corpora.linked_list_program)
    inputs = p.task["inputs"]
    verdicts = p.result["verdicts"]
    with p.timed(Clock()) as timing:
        t0 = time.perf_counter()
        solver = Solver()
        for name in inputs["e1"]:
            r = verifier.verify_function(
                program, program.bodies[name], program.specs[name], solver
            )
            verdicts.append((name, r.kind, r.status))
        t1 = time.perf_counter()
        solver = Solver()
        encoder = PearliteEncoder(ownables)
        for name in inputs["e2"]:
            manual = [parser.parse_pearlite(s) for s in MANUAL_PURE_PRECONDITIONS.get(name, [])]
            spec = encoder.encode_contract(
                program.bodies[name], LINKED_LIST_CONTRACTS[name], manual_pure_pre=manual
            )
            r = verifier.verify_function(program, program.bodies[name], spec, solver)
            verdicts.append((name, r.kind, r.status))
        t2 = time.perf_counter()
    ref = timing[1]
    p.sample("setup_s", [setup_s, ref])
    p.sample("e1_s", [t1 - t0, ref])
    p.sample("e2_s", [t2 - t1, ref])
    p.sample("corpus_s", timing)


def run_crates(p: Pass) -> None:
    import corpora
    from repro.hybrid.pipeline import HybridVerifier

    crates, setup_s = p.setup(corpora.build_crates)
    inputs = p.task["inputs"]
    store_hits, timings = 0, []
    # Set-up ran in this process alone.
    setup_ref = reference_s()
    # A reference between crates: a jobs=2 run's critical path sits on
    # one CPU, whose speed changes within a second.
    clock = Clock(cpus=inputs["jobs"])
    for name, functions in inputs["crates"].items():
        crate = crates[name]
        with p.timed(clock) as timing:
            report = HybridVerifier(
                crate.program, crate.ownables, crate.contracts,
                manual_pure_pre=crate.manual_pure_pre,
            ).run(functions, jobs=inputs["jobs"])
        timings.append(timing)
        p.result["verdicts"] += [(e.function, _kind(e), e.status) for e in report.entries]
        store_hits += report.store_stats.get("hits", 0)
    p.sample("setup_s", [setup_s, setup_ref])
    p.sample("corpus_s", combined(timings))
    p.result["store_hits"] = store_hits


class _Daemon:
    """A daemon started from this process, stopped and reaped on exit."""

    def __init__(self, root: str, trace_dir) -> None:
        if trace_dir:
            argv = [os.path.join(HERE, "launch_daemon.py"), "--trace-dir", trace_dir]
        else:
            argv = [os.path.join(root, "scripts", "reprod.py")]
        argv += ["--socket", "d.sock", "--cache-dir", "cache", "--jobs", "1"]
        self.proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, text=True)
        self.usage = None

    def wait_listening(self) -> None:
        line = self.proc.stdout.readline()
        if "listening" not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")

    def reap(self, timeout: float) -> None:
        """Wait for the daemon to exit (killing it after ``timeout``)
        and keep its resource usage, forked workers included."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.usage = usage
                break
            if time.monotonic() > deadline:
                self.proc.kill()
            time.sleep(0.01)
        self.proc.stdout.close()


def _send(client, records: list, kind: str, msg: dict, target: str = "") -> None:
    """One request; its response is kept as a record."""
    msg["id"] = f"r{len(records)}"
    t0 = time.perf_counter()
    resp = client.submit(**msg)
    latency = time.perf_counter() - t0
    records.append({
        "id": msg["id"], "kind": kind, "target": target,
        "latency_ms": latency * 1000,
        "elapsed_ms": resp.get("elapsed", 0.0) * 1000,
        "functions": resp.get("functions", {}),
        "reverified": resp.get("reverified", []),
        "phases": resp.get("phases", []),
        "error": resp.get("error"),
    })


def _round(client, records: list, rnd: list, state: dict, contracts: dict) -> None:
    """Four cycles, each the three request kinds in the given order."""
    for cyc in rnd:
        state["cycle"] += 1
        target = cyc["target"]
        for kind in cyc["order"]:
            if kind == "warm":
                msg = {"corpus": "linked_list", "functions": list(workloads.DAEMON_WARM),
                       "contracts": state["overrides"]}
            elif kind == "edit":
                # A fresh tautology: a new fingerprint, the same verdict.
                k = state["cycle"]
                base = contracts[target]
                edited = {**base, "ensures": [*base["ensures"], f"{k} == {k}"]}
                state["overrides"] = {**state["overrides"], target: edited}
                msg = {"corpus": "linked_list", "functions": [target],
                       "contracts": state["overrides"]}
            else:
                state["pad"] += 1
                msg = {"corpus": "demo", "params": {"pad": {"demo::leaf": state["pad"]}}}
            _send(client, records, kind, msg, target)


def run_daemon(p: Pass) -> None:
    from repro.rustlib.contracts import LINKED_LIST_CONTRACTS
    from repro.service.client import ServiceClient

    task = p.task
    records = p.result["responses"] = []
    # Client and daemon share one CPU (the daemon inherits the mask):
    # in a closed loop they never run at once, and the reference loop
    # timed here between rounds then runs where the daemon works.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = Clock()
    daemon = None
    try:
        with clock.segment() as setup:
            daemon = _Daemon(task["root"], task.get("trace_dir"))
            daemon.wait_listening()
            client = ServiceClient.connect("d.sock", timeout=120.0, wait=5.0)
            _send(client, records, "prime_demo", {"corpus": "demo"})
            _send(client, records, "prime_linked_list",
                  {"corpus": "linked_list", "functions": list(workloads.DAEMON_WARM)})
        p.result["first_measured"] = len(records)
        with client:
            state = {"overrides": {}, "cycle": 0, "pad": 0}
            for rnd in task["inputs"]["rounds"]:
                first = len(records)
                with clock.segment() as timing:
                    _round(client, records, rnd, state, LINKED_LIST_CONTRACTS)
                p.sample("corpus_s", timing)
                for rec in records[first:]:
                    rec["reference_s"] = timing[1]
            client.shutdown()
        daemon.reap(timeout=60)
        # Set-up is seconds long and cold verification dominates it: the
        # loops at its two ends track it worse than all of the daemon's.
        p.sample("setup_s", [setup[0], statistics.median(clock.references)])
    finally:
        if daemon is not None and daemon.proc.returncode is None:
            daemon.proc.kill()
            daemon.reap(timeout=30)
    p.result["daemon_exit"] = daemon.proc.returncode
    p.result["peak_rss_mb"] = daemon.usage.ru_maxrss / 1024


def run_import(p: Pass) -> None:
    import corpora  # noqa: F401
    import repro.hybrid.pipeline  # noqa: F401
    import repro.service.client  # noqa: F401
    import repro.service.daemon  # noqa: F401


MODES = {
    "import": run_import,
    "paper_e1e2": run_paper,
    "crates_jobs2": run_crates,
    "warm_cli": run_crates,
    "fill": run_crates,
    "daemon_edit": run_daemon,
}


def main() -> int:
    task = json.loads(sys.stdin.read())
    p = Pass(task)
    MODES[task["mode"]](p)
    print(json.dumps(p.finish()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
