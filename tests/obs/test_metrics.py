"""The metrics registry: instruments, legacy-group absorption, the
single reset path, and the fork-worker delta protocol."""

import pytest

from repro.obs import metrics as metrics_mod
from repro.obs.metrics import Metrics, metrics
from repro.parallel import PARALLEL_STATS
from repro.solver.core import GLOBAL_STATS
from repro.store.store import STORE_STATS


class TestInstruments:
    def test_counters(self):
        m = Metrics()
        m.inc("a")
        m.inc("a", 2)
        assert m.counter("a") == 3
        assert m.counter("missing") == 0

    def test_gauges(self):
        m = Metrics()
        m.gauge("g", 1.5)
        m.gauge("g", 2.5)
        assert m.snapshot()["gauges"] == {"g": 2.5}


class TestLegacyGroups:
    """The four historical stats dicts are absorbed as named groups;
    ``metrics.reset(group)`` is the one way to zero one."""

    def test_groups_registered(self):
        groups = metrics.snapshot()["groups"]
        assert set(groups) >= {"solver", "parallel", "store"}
        assert groups["solver"].keys() == GLOBAL_STATS.keys()

    def test_group_reset_zeroes_the_module_dict(self):
        GLOBAL_STATS["checks"] += 7
        metrics.reset("solver")
        assert GLOBAL_STATS["checks"] == 0

    def test_each_group_reset_zeroes_its_dict(self):
        GLOBAL_STATS["checks"] += 1
        PARALLEL_STATS["fanouts"] += 1
        STORE_STATS["hits"] += 1
        metrics.reset("solver")
        metrics.reset("parallel")
        metrics.reset("store")
        assert GLOBAL_STATS["checks"] == 0
        assert PARALLEL_STATS["fanouts"] == 0
        assert STORE_STATS["hits"] == 0

    def test_unknown_group_raises(self):
        with pytest.raises(KeyError):
            metrics.reset("no-such-group")

    def test_full_reset_clears_everything(self):
        metrics.inc("test.full_reset")
        GLOBAL_STATS["branches"] += 3
        metrics.reset()
        assert metrics.counter("test.full_reset") == 0
        assert GLOBAL_STATS["branches"] == 0


class TestDeltaProtocol:
    """What a forked worker ships back and how the parent merges it."""

    def test_counter_delta_roundtrip(self):
        m = Metrics()
        m.inc("x", 5)
        base = m.delta_snapshot()
        m.inc("x", 2)
        m.inc("y")
        d = m.delta_since(base)
        assert d["counters"] == {"x": 2, "y": 1}
        parent = Metrics()
        parent.inc("x", 100)
        parent.merge_delta(d)
        assert parent.counter("x") == 102
        assert parent.counter("y") == 1

    def test_legacy_group_delta(self):
        m = Metrics()
        stats = m.register_legacy("g", {"n": 10})
        base = m.delta_snapshot()
        stats["n"] += 4
        d = m.delta_since(base)
        assert d["groups"] == {"g": {"n": 4}}
        parent = Metrics()
        pstats = parent.register_legacy("g", {"n": 1})
        parent.merge_delta(d)
        assert pstats["n"] == 5

    def test_no_delta_group_excluded(self):
        """The store group opts out: the parent credits worker
        publishes through ``note_worker_publish`` — shipping the
        worker-side counters too would double-count."""
        m = Metrics()
        stats = m.register_legacy("store-like", {"stores": 0}, delta=False)
        base = m.delta_snapshot()
        stats["stores"] += 3
        d = m.delta_since(base)
        assert "store-like" not in d["groups"]

    def test_real_store_group_is_no_delta(self):
        base = metrics.delta_snapshot()
        assert "store" not in base["groups"]
        assert "solver" in base["groups"]
