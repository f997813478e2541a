"""End-to-end benchmark of the hybrid verifier, in fresh processes.

Usage::

    python perfbench/run.py --seed N [--workload W ...] [--seconds S | --passes P]
                            [--trace [0|1]] [--out record.json]

Runs each named workload (default: all four, see ``workloads.py``) as a
series of passes, each a fresh child process started in an empty
directory with every inherited ``REPRO_*`` variable removed. When
several workloads run, their passes interleave round-robin. A workload
runs passes until they have taken ``--seconds`` (default 20), or runs
``--passes`` passes; a ``daemon_edit`` pass is one daemon serving
``workloads.DAEMON_ROUNDS`` rounds. Every verdict is checked against
``expected.json``.

Timings are reported at a fixed reference speed: next to each timed
section the pass times a fixed pure-Python loop on the CPUs that did
the work (``child.reference_s``), and the harness scales the timing by
``REF_NOMINAL_S`` over that loop time. On a shared host the machine's
speed swings by a factor of two over minutes; scaling removes that
common factor while keeping seconds as the unit. Raw timings stay in
the record.

It prints each metric with its unit, headline value, tail percentile
and sample count, then, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of ``BENCHMARK.json`` or, with
``--trace 1``, its per-layer metrics (names are prefixed with the
workload when several ran). ``--trace`` adds one traced pass per
workload (for the daemon, twenty cycles) and writes a Chrome trace
and a per-layer table under ``perfbench/out/``. ``--out`` writes the
full record that ``compare.py`` reads.

Exits 1 when a verdict differs from ``expected.json``, 2 when the
repository or a pass cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import layers
import stats
import workloads
from tracer import read_spans
from workloads import METRICS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected.json")
#: The end-to-end metrics ``BENCHMARK.json`` names; every workload has them.
CONTRACT = ("setup_s", "corpus_s", "peak_rss_mb")
CHILD_TIMEOUT = 60.0
#: ``child.reference_s`` at the speed every timing is scaled to: about
#: its time on a quiet 2-vCPU x86-64 VM under CPython 3.11.7.
REF_NOMINAL_S = 0.025


class PassFailed(RuntimeError):
    pass


def child_env(extra: dict, hash_seed: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = hash_seed
    env.update(extra)
    return env


def run_child(task: dict, env: dict) -> dict:
    """Run one pass; a pass that fails to run at all is run once more,
    since on a shared host that can be the host's doing."""
    try:
        return _run_child_once(task, env)
    except PassFailed as e:
        print(f"run.py: {e}; running it again", file=sys.stderr)
        return _run_child_once(task, env)


def _run_child_once(task: dict, env: dict, timeout: float = CHILD_TIMEOUT) -> dict:
    """Run one pass in a fresh process group, in a fresh directory."""
    cwd = tempfile.mkdtemp(prefix="pass-", dir=os.path.join(OUT, "tmp"))
    try:
        task = dict(task, root=ROOT, spawned_at=time.perf_counter())
        proc = subprocess.Popen(
            [sys.executable, CHILD], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=cwd, env=env, text=True, start_new_session=True,
        )
        try:
            out, _ = proc.communicate(json.dumps(task), timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PassFailed(f"{task['mode']} pass timed out after {timeout:.0f} s")
        finally:
            # Nothing the pass started may outlive it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0 or not out.strip():
            raise PassFailed(f"{task['mode']} pass exited with {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


class WorkloadRun:
    """The passes of one workload and what they measured."""

    def __init__(self, name: str, seed: int, seconds, passes, expected: dict) -> None:
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.passes = passes
        self.expected = expected
        self.index = 0
        self.measured = 0.0
        #: Scaled to the reference speed, except ``peak_rss_mb``.
        self.samples: dict = {}
        self.raw: dict = {}
        self.refs: list = []
        self.attempted = self.failed = 0
        self.mismatches: list = []
        self.verdicts: dict = {}
        self.env: dict = dict(self.w.env)
        self.store = None
        self.per_layer = None

    @property
    def daemon(self) -> bool:
        return self.w.name == "daemon_edit"

    @property
    def done(self) -> bool:
        if self.passes is not None:
            return self.index >= self.passes
        return self.measured >= self.seconds

    def setup(self) -> None:
        """Untimed set-up: fill the store a warm run reads."""
        if self.w.name != "warm_cli":
            return
        self.store = tempfile.mkdtemp(prefix="store-", dir=os.path.join(OUT, "tmp"))
        self.env["REPRO_CACHE_DIR"] = self.store
        inputs = workloads.pass_inputs("crates_jobs2", self.seed, -1)
        env = child_env({"REPRO_CACHE": "1", "REPRO_CACHE_DIR": self.store},
                        workloads.hash_seed(self.seed, self.w.name, -1))
        self._check_cli(run_child({"mode": "fill", "inputs": inputs}, env), count=False)

    def cleanup(self) -> None:
        if self.store:
            shutil.rmtree(self.store, ignore_errors=True)

    def task(self, trace_dir=None) -> tuple[dict, dict]:
        """The next pass's task and environment."""
        env = child_env(self.env, workloads.hash_seed(self.seed, self.w.name, self.index))
        rounds = workloads.TRACED_DAEMON_ROUNDS if trace_dir else workloads.DAEMON_ROUNDS
        inputs = workloads.pass_inputs(self.w.name, self.seed, self.index, rounds)
        return {"mode": self.w.name, "trace_dir": trace_dir, "inputs": inputs}, env

    def run_pass(self) -> None:
        task, env = self.task()
        t0 = time.perf_counter()
        result = run_child(task, env)
        self.measured += time.perf_counter() - t0
        self.index += 1
        self.record(result)

    def _add(self, name: str, raw: float, reference=None) -> None:
        """Keep one sample; a timing is scaled to the reference speed."""
        self.raw.setdefault(name, []).append(raw)
        self.samples.setdefault(name, []).append(
            raw * REF_NOMINAL_S / reference if reference else raw
        )
        if name == "corpus_s":
            self.refs.append(reference)

    def record(self, result: dict, measured: bool = True) -> None:
        """Check a pass's verdicts; keep its samples if it was measured
        (not traced)."""
        if measured:
            for name, pairs in result["samples"].items():
                for seconds, reference in pairs:
                    self._add(name, seconds, reference)
            self._add("peak_rss_mb", result["peak_rss_mb"])
        if self.daemon:
            self._check_daemon(result, measured)
        else:
            self._check_cli(result)

    def _check_cli(self, result: dict, count: bool = True) -> None:
        verdicts = [tuple(v) for v in result["verdicts"]]
        self.mismatches += workloads.check_entries(self.expected, verdicts)
        if not count:
            return
        functions = {fn for fn, _, _ in verdicts}
        if self.w.name == "warm_cli" and result["store_hits"] != len(functions):
            self.mismatches.append(f"warm pass hit the store {result['store_hits']} times")
        self.attempted += len(verdicts)
        self.failed += sum(s in workloads.FAILURES for _, _, s in verdicts)
        for fn, kind, status in verdicts:
            self.verdicts.setdefault(fn, {})[kind] = status

    def _check_daemon(self, result: dict, measured: bool) -> None:
        if result["daemon_exit"] != 0:
            self.mismatches.append(f"daemon exited with {result['daemon_exit']}")
        for rec in result["responses"]:
            self.mismatches += workloads.check_response(self.expected, rec)
            self.attempted += max(1, len(rec["functions"]))
            self.failed += 1 if rec["error"] else sum(
                s in workloads.FAILURES for s in rec["functions"].values())
            for fn, status in rec["functions"].items():
                self.verdicts.setdefault(fn, {})["daemon"] = status
        if not measured:
            return
        for rec in result["responses"][result["first_measured"]:]:
            self._add(f"{rec['kind']}_ms", rec["latency_ms"], rec["reference_s"])

    # -- the traced pass ----------------------------------------------------

    def traced_pass(self) -> None:
        trace_dir = os.path.join(OUT, f"spans-{self.w.name}-seed{self.seed}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        task, env = self.task(trace_dir)
        result = run_child(task, env)
        self.record(result, measured=False)
        spans = read_spans(trace_dir)
        shutil.rmtree(trace_dir, ignore_errors=True)
        if self.daemon:
            # Only the cycles, not the priming.
            requests = result["responses"][result["first_measured"]:]
            window = {r["id"] for r in requests}
            counters: dict = {}
            for s in spans:
                if s["name"] == "service.execute" and s["ctx"] in window:
                    for k, v in s["attrs"].get("counters", {}).items():
                        counters[k] = counters.get(k, 0) + v
        else:
            requests, window = [], {"pass"}
            counters = result.get("counters", {})
        wall = statistics.median(
            seconds * REF_NOMINAL_S / ref for seconds, ref in result["samples"]["corpus_s"]
        )
        baseline = statistics.median(self.samples["corpus_s"])
        analysis = layers.analyse(spans, window, counters, wall, baseline, requests)
        analysis["text"] = layers.render(self.w.name, analysis)
        layers.write(OUT, f"{self.w.name}-seed{self.seed}", spans, analysis["text"])
        self.per_layer = analysis

    # -- summary ------------------------------------------------------------

    def metric(self, name: str) -> dict:
        m = METRICS[name]
        key = m.samples or name
        values = self.samples[key]
        return {"unit": m.unit, "bound": m.bound, "stat": m.stat,
                "value": stats.headline(values, m.stat),
                "tail": stats.tail_percentile(values), "n": len(values),
                "samples": values, "raw_samples": self.raw[key]}

    def summary(self) -> dict:
        out = {
            "why": self.w.why,
            "passes": self.index,
            "metrics": {name: self.metric(name) for name in self.w.metrics},
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_frac": self.failed / self.attempted if self.attempted else 0.0,
            "verdict_mismatches": len(self.mismatches),
            "mismatches": self.mismatches[:50],
            "verdicts": self.verdicts,
            "reference_s": self.refs,
        }
        if self.per_layer is not None:
            out["per_layer"] = self.per_layer["metrics"]
            out["layers"] = self.per_layer["table"]
        return out


def render(name: str, s: dict) -> str:
    refs = s["reference_s"]
    lines = [f"{name}: {s['passes']} passes, {s['failed']}/{s['attempted']} failed, "
             f"{s['verdict_mismatches']} verdict mismatches; reference loop "
             f"{statistics.median(refs) * 1000:.1f} ms (scaled to {REF_NOMINAL_S * 1000:.0f} ms)",
             f"  {'metric':18s} {'unit':5s} {'value':>12s} {'tail':>16s} {'n':>5s}"]
    for metric, m in s["metrics"].items():
        tail = f"p{m['tail'][0]:g} {m['tail'][1]:.6g}" if m["tail"] else "-"
        lines.append(f"  {metric:18s} {m['unit']:5s} {m['value']:12.6g} {tail:>16s} {m['n']:5d}")
    lines.append(f"  {'failed_frac':18s} {'ratio':5s} {s['failed_frac']:12.6g}")
    lines.append(f"  {'verdict_mismatches':18s} {'count':5s} {s['verdict_mismatches']:12d}")
    for line in s["mismatches"]:
        lines.append(f"  MISMATCH {line}")
    return "\n".join(lines)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    budget = ap.add_mutually_exclusive_group()
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--passes", type=int)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.passes is None and args.seconds is None:
        args.seconds = 20.0
    if (args.passes is not None and args.passes < 1) or (args.seconds is not None and args.seconds <= 0):
        ap.error("--passes and --seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for needed in ("src/repro/hybrid/pipeline.py", "scripts/reprod.py"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} not found under {ROOT}; nothing to benchmark",
                  file=sys.stderr)
            return 2
    with open(EXPECTED) as fh:
        expected = json.load(fh)["functions"]
    names = args.workload or list(WORKLOADS)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    runs = [WorkloadRun(n, args.seed, args.seconds, args.passes, expected) for n in names]
    try:
        # Untimed: compile the bytecode and fill the warm store first.
        run_child({"mode": "import"}, child_env({}, "0"))
        for r in runs:
            r.setup()
        while not all(r.done for r in runs):
            for r in runs:
                if not r.done:
                    r.run_pass()
        if args.trace:
            for r in runs:
                r.traced_pass()
    except PassFailed as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    finally:
        for r in runs:
            r.cleanup()

    summaries = {r.w.name: r.summary() for r in runs}
    for r in runs:
        print(render(r.w.name, summaries[r.w.name]))
        if r.per_layer is not None:
            print(r.per_layer["text"])
    if args.out:
        record = {"seed": args.seed, "seconds": args.seconds, "passes": args.passes,
                  "reference_nominal_s": REF_NOMINAL_S,
                  "python": platform.python_version(), "cpus": os.cpu_count(),
                  "workloads": summaries}
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)

    metrics = {}
    for name, s in summaries.items():
        prefix = f"{name}." if len(summaries) > 1 else ""
        if args.trace:
            for m in layers.PER_LAYER:
                metrics[prefix + m.name] = {"value": s["per_layer"][m.name], "unit": m.unit}
        else:
            for m in CONTRACT:
                metrics[prefix + m] = {"value": s["metrics"][m]["value"], "unit": METRICS[m].unit}
    mismatches = sum(s["verdict_mismatches"] for s in summaries.values())
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }))
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
