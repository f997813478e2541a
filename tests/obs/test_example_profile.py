"""The repository's hybrid example reports where its time went.

``examples/hybrid_client.py`` runs with a proof store attached; its
report's phase table must record every layer the profile renders. Its
``--verify-verdicts`` path cross-checks after the run, so the report's
counters are the verification's alone."""

import importlib.util
import pathlib

from repro.store import ProofStore

EXAMPLE = pathlib.Path(__file__).parents[2] / "examples" / "hybrid_client.py"


def load_example():
    spec = importlib.util.spec_from_file_location("hybrid_client", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_example_records_every_phase(tmp_path):
    report = load_example().verify(store=ProofStore(tmp_path / "cache"))
    assert report.ok
    calls: dict[str, int] = {}
    for phases in report.phase_stats.values():
        for name, rec in phases.items():
            calls[name] = calls.get(name, 0) + rec["calls"]
    for name in ("encode", "vcgen", "symex", "solve", "store.get", "store.put"):
        assert calls.get(name, 0) > 0, name
    assert "== profile: per-function phase times (s) ==" in report.render(
        verbose=True
    )


def verify_calls(report) -> dict:
    return {
        fn: phases["verify"]["calls"]
        for fn, phases in report.phase_stats.items()
        if "verify" in phases
    }


def test_cross_check_leaves_the_run_counters_alone():
    example = load_example()
    plain = example.verify()
    checked, adversary = example.verify_and_cross_check()
    assert plain.ok and checked.ok and adversary.ok
    assert adversary.entries  # the cross-check did its own solver work
    assert checked.solver_stats == plain.solver_stats
    assert verify_calls(checked) == verify_calls(plain)
    assert sum(verify_calls(plain).values()) == 5
