"""The repository's hybrid example reports where its time went.

``examples/hybrid_client.py`` runs with a proof store attached; its
report's phase table must record every layer the profile renders."""

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
