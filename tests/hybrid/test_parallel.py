"""jobs=N must be a pure throughput knob: the ``HybridReport`` it
produces has to match the serial ``jobs=1`` path entry for entry —
including when a worker is killed or raises mid-verification (the
fault-tolerance layer retries or degrades just the affected entry)."""

import pytest

from repro import faultinject
from repro.gilsonite.ownable import OwnableRegistry
from repro.hybrid import pipeline
from repro.hybrid.pipeline import HybridEntry, HybridVerifier
from repro.lang.mir import Program
from repro.parallel import default_jobs, fork_available
from repro.pearlite.ast import PBool, PearliteSpec
from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
from repro.rustlib.linked_list import build_program
from repro.rustlib.specs import install_callee_specs

from tests.hybrid.test_pipeline import client_body
from tests.robustness.conftest import _diverging_body, _fast_body

FUNCTIONS = [
    "client::push_pop",
    "LinkedList::new",
    "LinkedList::push_front_node",
    "LinkedList::pop_front_node",
    "LinkedList::front_mut",
]


@pytest.fixture(scope="module")
def env():
    program, ownables = build_program()
    install_callee_specs(program, ownables)
    program.add_body(client_body())
    return program, ownables


def _run(env, jobs):
    program, ownables = env
    hv = HybridVerifier(
        program, ownables, LINKED_LIST_CONTRACTS,
        manual_pure_pre=MANUAL_PURE_PRECONDITIONS,
    )
    return hv.run(FUNCTIONS, jobs=jobs)


def _fingerprint(report):
    """Everything observable about a report except wall-clock."""
    return [
        (e.function, e.half, e.ok, [str(i) for i in _issues(e)])
        for e in report.entries
    ]


def _issues(entry):
    detail = entry.detail
    return getattr(detail, "issues", []) or []


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestParallelEquivalence:
    def test_jobs4_matches_jobs1(self, env):
        serial = _run(env, jobs=1)
        parallel = _run(env, jobs=4)
        assert _fingerprint(parallel) == _fingerprint(serial)
        assert parallel.ok == serial.ok
        assert serial.ok, serial.render()

    def test_jobs2_matches_jobs1(self, env):
        serial = _run(env, jobs=1)
        parallel = _run(env, jobs=2)
        assert _fingerprint(parallel) == _fingerprint(serial)
        assert serial.ok, serial.render()

    def test_render_order_is_serial_order(self, env):
        report = _run(env, jobs=4)
        assert [e.function for e in report.entries] == [
            "client::push_pop",
            "LinkedList::new",
            "LinkedList::new",  # type safety + functional halves
            "LinkedList::push_front_node",
            "LinkedList::push_front_node",
            "LinkedList::pop_front_node",
            "LinkedList::pop_front_node",
            "LinkedList::front_mut",
        ]

    def test_reordered_jobs4_matches_serial(self, env, monkeypatch):
        # The pool receives the functions longest-estimate-first, not in
        # FUNCTIONS order; the report must not notice.
        seen = []
        real_fanout = pipeline.fanout

        def spy(fn, payload, items, jobs, on_error=None):
            seen.extend(items)
            return real_fanout(fn, payload, items, jobs, on_error=on_error)

        monkeypatch.setattr(pipeline, "fanout", spy)
        serial = _run(env, jobs=1)
        parallel = _run(env, jobs=4)
        assert sorted(seen) == sorted(FUNCTIONS) and seen != FUNCTIONS
        assert _fingerprint(parallel) == _fingerprint(serial)
        assert parallel.ok, parallel.render()


class _StubBody:
    """Just the shape the cost estimate reads: blocks + is_safe."""

    def __init__(self, blocks, safe=True):
        self.blocks = {f"bb{i}": None for i in range(blocks)}
        self.is_safe = safe


class TestEstimateCost:
    def test_more_blocks_costs_more(self):
        small = pipeline._estimate_cost(_StubBody(2), None)
        big = pipeline._estimate_cost(_StubBody(8), None)
        assert big > small > 0

    def test_unsafe_doubles_block_weight(self):
        safe = pipeline._estimate_cost(_StubBody(4), None)
        unsafe = pipeline._estimate_cost(_StubBody(4, safe=False), None)
        assert unsafe - safe == 4

    def test_contract_clauses_add_weight(self):
        body = _StubBody(2)
        bare = pipeline._estimate_cost(body, None)
        heavy = pipeline._estimate_cost(
            body, {"requires": ["a", "b"], "ensures": ["c"]}
        )
        assert heavy > bare

    def test_pearlite_spec_contract(self):
        spec = PearliteSpec(
            requires=(PBool(True),), ensures=(PBool(True), PBool(False))
        )
        body = _StubBody(2)
        assert pipeline._estimate_cost(body, spec) == pipeline._estimate_cost(
            body, {"requires": ["a"], "ensures": ["b", "c"]}
        )

    def test_no_body_is_cheap_but_positive(self):
        assert pipeline._estimate_cost(None, None) > 0


def test_pool_gets_longest_estimate_first(monkeypatch):
    # Estimates: the two-block diverging body and fn2 (one block plus a
    # contract clause) tie above the one-block fn0/fn1.
    program = Program()
    for n in ("fn0", "fn1", "fn2"):
        program.add_body(_fast_body(n))
    program.add_body(_diverging_body())
    contracts = {"fn2": {"requires": ["x > 0"]}}
    seen = []

    def fake_fanout(fn, payload, items, jobs, on_error=None):
        seen.extend(items)
        return [[HybridEntry(n, "gillian-rust", True, None)] for n in items]

    monkeypatch.setattr(pipeline, "fanout", fake_fanout)
    hv = HybridVerifier(program, OwnableRegistry(program), contracts)
    names = ["fn0", "fn2", "fn1", "diverge"]
    report = hv.run(names, jobs=2)
    assert seen == ["fn2", "diverge", "fn0", "fn1"]
    assert [e.function for e in report.entries] == names


def test_jobs_none_uses_default(env, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    assert default_jobs() == 2
    report = _run(env, jobs=None)
    assert report.ok, report.render()


def test_invalid_repro_jobs_warns(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "several")
    with pytest.warns(RuntimeWarning, match="'several'"):
        default_jobs()


@pytest.fixture(scope="module")
def serial_report(env):
    report = _run(env, jobs=1)
    assert report.ok, report.render()
    return report


@pytest.fixture()
def clean_faults():
    faultinject.clear()
    yield
    faultinject.clear()


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestCrashIsolation:
    """A dying or raising worker must cost at most its own entry: the
    report stays complete and every other entry matches the serial run."""

    def test_killed_worker_recovers_bit_identical(
        self, env, serial_report, clean_faults
    ):
        # os._exit(1) in the worker verifying pop_front_node: the pool
        # breaks, the lost items re-run serially in the parent (where
        # the crash rule never fires), and the report is identical.
        faultinject.install("parallel.worker@pop_front_node:crash")
        report = _run(env, jobs=4)
        assert _fingerprint(report) == _fingerprint(serial_report)
        assert report.ok
        assert report.status == "verified"

    def test_raising_worker_degrades_only_its_entry(
        self, env, serial_report, clean_faults
    ):
        faultinject.install("verifier.function@front_mut:raise:WorkerCrashed")
        report = _run(env, jobs=4)
        affected = [e for e in report.entries if "front_mut" in e.function]
        assert len(affected) == 1
        assert affected[0].status == "crashed"
        assert not affected[0].ok
        unaffected = [
            f for f in _fingerprint(report) if "front_mut" not in f[0]
        ]
        expected = [
            f for f in _fingerprint(serial_report) if "front_mut" not in f[0]
        ]
        assert unaffected == expected
        assert report.status == "crashed"
