"""Self-tests of the benchmark harness: ``pytest perfbench``.

The smoke run starts real passes of all four workloads (about a
minute), and two more tests start a pass each; the other tests are
pure.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import compare
import layers
import run
import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


# -- statistics ---------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(19))) is None
    assert stats.tail_percentile(list(range(1, 21))) == (50.0, 10)
    assert stats.tail_percentile(list(range(1, 40))) == (50.0, 20)
    assert stats.tail_percentile(list(range(1, 41))) == (75.0, 30)
    assert stats.tail_percentile(list(range(1, 101))) == (90.0, 90)
    assert stats.tail_percentile(list(range(1, 1001))) == (99.0, 990)
    for n in (20, 37, 100, 250, 5000):
        p, _ = stats.tail_percentile(list(range(n)))
        beyond = n - -(-p * n // 100)
        assert beyond >= 10


# -- compare.py ---------------------------------------------------------------


def _run_record(value, *, verdicts=None, failed=0):
    """One run's record, holding one workload with one metric."""
    metric = {"unit": "s", "bound": 0.1, "stat": "median", "value": value}
    return {"workloads": {"w": {
        "metrics": {"corpus_s": metric},
        "attempted": 10,
        "failed": failed,
        "verdicts": verdicts or {"f": {"type_safety": "verified"}},
    }}}


def test_compare_labels():
    base = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    assert compare.label(base, [x * 0.8 for x in base], 0.1)["label"] == "improved"
    assert compare.label(base, [x * 1.03 for x in base], 0.1)["label"] == "no worse"
    assert compare.label(base, [x * 1.3 for x in base], 0.1)["label"] == "regressed"
    wide = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0]
    assert compare.label(wide, [x * 1.05 for x in wide], 0.1)["label"] == "unresolved"
    # Every change run better than every baseline run settles it.
    assert compare.label(wide, [0.4] * 10, 0.1)["label"] != "unresolved"
    # A gain must win nine tenths of the pairs, not just the median.
    mixed = [x * (0.8 if i < 8 else 1.2) for i, x in enumerate(base)]
    assert compare.label(base, mixed, 0.1)["label"] == "no worse"


def test_compare_one_run_per_side_has_no_spread():
    r = compare.label([1.0], [0.5], 0.1)
    assert r["spread"] is None and r["label"] == "no worse"
    assert compare.label([1.0], [1.01], 0.1)["label"] == "unresolved"


def test_compare_reads_several_runs_per_side(tmp_path, capsys):
    paths = []
    for side in ("a", "b"):
        for i, v in enumerate((1.0, 1.02, 0.99, 1.01, 1.0)):
            path = tmp_path / f"{side}{i}.json"
            path.write_text(json.dumps(_run_record(v)))
            paths.append(str(path))
    assert compare.main(["--base", *paths[:5], "--change", *paths[5:]]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.split()[:2] == ["w", "corpus_s"] and row.endswith("no worse")
    assert " 0/5 " in row


def test_compare_flags_verdict_and_failure_changes():
    base = [_run_record(1.0)] * 3
    change = [_run_record(1.0), _run_record(1.0, verdicts={"f": {"type_safety": "refuted"}}),
              _run_record(1.0, failed=1)]
    lines, bad = compare.compare(base, change)
    assert bad
    assert any("VERDICT CHANGED" in line for line in lines)
    assert any("failed_frac changed" in line for line in lines)
    assert not compare.compare(base, [_run_record(1.0)] * 3)[1]


# -- isolation and inputs -----------------------------------------------------


def test_child_env_scrubs_repro_settings(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_FAULT", "parallel.worker:crash")
    monkeypatch.setenv("REPRO_JOBS", "8")
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    env = run.child_env({"REPRO_CACHE": "1", "REPRO_CACHE_DIR": "store"}, "1234")
    assert {k for k in env if k.startswith("REPRO_")} == {"REPRO_CACHE", "REPRO_CACHE_DIR"}
    assert env["PYTHONHASHSEED"] == "1234"
    assert env["PYTHONPATH"] == os.path.join(ROOT, "src")


def test_inputs_follow_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.pass_inputs(w, 3, 2, rounds=4) == workloads.pass_inputs(w, 3, 2, rounds=4)
    assert workloads.pass_inputs("crates_jobs2", 3, 2) != workloads.pass_inputs("crates_jobs2", 4, 2)
    rounds = workloads.pass_inputs("daemon_edit", 0, 0, rounds=3)["rounds"]
    for rnd in rounds:
        assert sorted(c["target"] for c in rnd) == sorted(workloads.DAEMON_EDIT_TARGETS)
    assert workloads.hash_seed(0, "warm_cli", 1) != workloads.hash_seed(1, "warm_cli", 1)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.CONTRACT)
    for m in bench["end_to_end"]:
        assert m["unit"] == workloads.METRICS[m["name"]].unit
        assert m["bound"] == workloads.METRICS[m["name"]].bound <= 0.25
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.PER_LAYER
    ]


def test_every_checked_function_has_a_known_answer():
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)["functions"]
    names = set(workloads.E1) | set(workloads.E2) | set(workloads.DAEMON_WARM)
    names |= set(workloads.DEMO_FNS)
    for fns in workloads.CRATES.values():
        names |= set(fns)
    assert names <= set(expected)
    assert all(e.get("source") for e in expected.values())
    # A verifier that accepts everything must fail the benchmark.
    assert any("refuted" in e.values() for e in expected.values())


# -- end to end ---------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "record.json"
    proc = _run("--seed", "0", "--passes", "1", "--trace", "--out", str(out))
    return proc, json.loads(out.read_text()) if out.exists() else None


def test_smoke_all_workloads(smoke):
    proc, record = smoke
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for name, w in record["workloads"].items():
        assert w["verdict_mismatches"] == 0 and w["failed_frac"] == 0
        assert set(w["metrics"]) == set(workloads.WORKLOADS[name].metrics)
        assert set(w["per_layer"]) == {m.name for m in layers.PER_LAYER}
        assert os.path.exists(os.path.join(HERE, "out", f"trace-{name}-seed0.json"))
        assert os.path.exists(os.path.join(HERE, "out", f"layers-{name}-seed0.txt"))
        for m in layers.PER_LAYER:
            assert f"{name}.{m.name}" in last["metrics"]
    paper = record["workloads"]["paper_e1e2"]["per_layer"]
    # Layer self times account for the traced pass's wall time.
    assert paper["trace.coverage"] >= 0.9
    assert paper["solver.checks"] > 0 and paper["gillian.branches"] > 0


def test_wrong_expected_verdict_fails(tmp_path, monkeypatch, capsys):
    with open(run.EXPECTED) as fh:
        expected = json.load(fh)
    expected["functions"]["LinkedList::new"]["type_safety"] = "refuted"
    bad = tmp_path / "expected.json"
    bad.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", str(bad))
    assert run.main(["--workload", "paper_e1e2", "--passes", "1"]) == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "paper_e1e2", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
