"""The hot session: incremental dispatch, warm reuse, fingerprint
invalidation, deadlines and drain — all in-process (no sockets)."""

import pytest

from repro import faultinject
from repro.hybrid.pipeline import HybridVerifier, entries_status
from repro.service.corpus import DEMO_FNS, load_corpus
from repro.service.session import ServiceSession
from repro.store import ProofStore
from repro.store.store import STORE_STATS


@pytest.fixture
def session(tmp_path):
    return ServiceSession("demo", store=ProofStore(tmp_path / "cache"))


ALL = sorted(DEMO_FNS)


def _fresh(params=None, contracts=None):
    """Fingerprints and per-function statuses of a fresh, store-less
    run of the demo corpus under ``params`` and ``contracts``."""
    corpus = load_corpus("demo", params)
    hv = HybridVerifier(
        corpus.program, corpus.ownables, {**corpus.contracts, **(contracts or {})}
    )
    statuses = {n: entries_status(es) for n, es in hv.run().by_function().items()}
    return {n: hv.fingerprint(n) for n in statuses}, statuses


class TestIncremental:
    def test_cold_submit_verifies_everything(self, session):
        r = session.submit()
        assert r["ok"] and r["status"] == "verified"
        assert r["reverified"] == ALL
        assert set(r["reasons"].values()) == {"new"}
        assert "service.parse" in r["phases"]
        assert "service.logic" in r["phases"]

    def test_warm_resubmit_verifies_nothing_and_skips_setup(self, session):
        session.submit()
        r = session.submit()
        assert r["ok"]
        assert r["reverified"] == [] and r["cached"] == []
        assert r["reused"] == ALL
        # The acceptance observable: no program setup on the warm path.
        assert "service.parse" not in r["phases"]
        assert "service.logic" not in r["phases"]

    def test_body_edit_reverifies_exactly_that_function(self, session):
        session.submit()
        r = session.submit(params={"pad": {"demo::leaf": 2}})
        assert r["reverified"] == ["demo::leaf"]
        assert r["reasons"] == {"demo::leaf": "changed"}
        # The edit reloaded the program, so setup spans are back.
        assert "service.parse" in r["phases"]

    @pytest.mark.parametrize(
        "jobs, fault",
        [
            pytest.param(1, None, id="jobs1"),
            pytest.param(2, None, id="jobs2"),
            # mid's worker dies, so the pool's serial retry in the
            # parent re-verifies it. leaf's delay keeps its worker from
            # publishing before the pool breaks, so its retry verifies
            # too instead of resuming from a store hit.
            pytest.param(
                2,
                "parallel.worker@mid:crash,pipeline.verify_one@leaf:delay:0.3",
                id="jobs2-crash",
            ),
        ],
    )
    def test_contract_edit_reverifies_moved_keys(
        self, session, jobs, fault
    ):
        contracts = {"demo::leaf": {"ensures": ["result == x", "x == x"]}}
        old_fps, _ = _fresh()
        new_fps, fresh = _fresh(contracts=contracts)
        moved = sorted(n for n in ALL if new_fps[n] != old_fps[n])
        # leaf's own contract and mid's direct callee's contract moved;
        # top only assumes mid's unchanged contract.
        assert moved == ["demo::leaf", "demo::mid"]
        session.submit()
        if fault:
            faultinject.install(fault)
        before = dict(STORE_STATS)
        r = session.submit(contracts=contracts, jobs=jobs)
        faultinject.clear()
        assert r["ok"]
        assert r["reverified"] == moved
        assert r["reasons"] == {n: "changed" for n in moved}
        assert r["reused"] == ["demo::side", "demo::top"]
        # The moved keys are honest misses, each published once.
        delta = {k: STORE_STATS[k] - before[k] for k in STORE_STATS}
        assert delta["hits"] == 0
        assert delta["misses"] == delta["stores"] == len(moved)
        assert r["functions"] == fresh

    def test_refuting_leaf_edit_turns_the_aggregate_refuted(self, session):
        session.submit()
        contracts = {"demo::leaf": {"ensures": ["result >= x"]}}
        r = session.submit(contracts=contracts)
        assert not r["ok"] and r["status"] == "refuted"
        assert r["functions"] == {
            "demo::leaf": "verified",
            "demo::mid": "refuted",
            "demo::side": "verified",
            "demo::top": "verified",
        }
        assert r["reverified"] == ["demo::leaf", "demo::mid"]
        assert r["functions"] == _fresh(contracts=contracts)[1]

    def test_every_edit_matches_a_fresh_run(self, session):
        """The staleness check: after each edit the session's verdicts
        equal those of a fresh run with no store and no session."""
        weakened = {"demo::leaf": {"ensures": ["result >= x"]}}
        tautology = {"demo::leaf": {"ensures": ["result == x", "x == x"]}}
        pad = {"pad": {"demo::mid": 1}}
        for params, contracts in (
            (None, None),
            (None, tautology),
            (None, weakened),
            (pad, weakened),
            (pad, None),
            (None, None),
        ):
            r = session.submit(params=params, contracts=contracts)
            assert r["functions"] == _fresh(params, contracts)[1], (
                params, contracts,
            )

    def test_override_change_renormalises_only_what_changed(self, session):
        # Both halves read the verifier's one contract table and parse
        # a contract on first use; a changed override is parsed again,
        # every other contract keeps its parse.
        session.submit()
        creusot = session.verifier.creusot
        before = {n: creusot.contract(n) for n in ALL}
        session.submit(contracts={"demo::leaf": {"ensures": ["result >= x"]}})
        assert session.verifier.contracts is creusot.contracts
        after = {n: creusot.contract(n) for n in ALL}
        assert after["demo::leaf"] is not before["demo::leaf"]
        assert all(after[n] is before[n] for n in ALL if n != "demo::leaf")
        # Dropping the override re-normalises leaf's corpus contract.
        session.submit()
        assert creusot.contract("demo::leaf") == before["demo::leaf"]

    def test_warm_after_contract_edit(self, session):
        session.submit()
        contracts = {"demo::leaf": {"ensures": ["result == x", "x == x"]}}
        session.submit(contracts=contracts)
        r = session.submit(contracts=contracts)
        assert r["reverified"] == [] and r["reused"] == ALL

    def test_restart_resumes_from_the_store(self, session, tmp_path):
        session.submit()
        fresh = ServiceSession("demo", store=ProofStore(tmp_path / "cache"))
        r = fresh.submit()
        # A fresh session trusts nothing ("new") but the warm store
        # answers everything: zero actual re-verifications.
        assert r["reverified"] == []
        assert r["cached"] == ALL

    def test_subset_request(self, session):
        r = session.submit(functions=["demo::leaf", "demo::mid"])
        assert sorted(r["functions"]) == ["demo::leaf", "demo::mid"]
        r2 = session.submit(functions=["demo::top"])
        assert r2["reverified"] == ["demo::top"]

    def test_jobs_parallel_dispatch_matches_serial(self, session):
        r = session.submit(jobs=2)
        assert r["ok"] and r["reverified"] == ALL
        assert all(s == "verified" for s in r["functions"].values())


def _cli(corpus_name, store, jobs):
    corpus = load_corpus(corpus_name)
    return HybridVerifier(
        corpus.program,
        corpus.ownables,
        corpus.contracts,
        manual_pure_pre=corpus.manual_pure_pre,
        auto_extract=corpus.auto_extract,
        store=store,
    ).run(jobs=jobs)


def _never():
    return None


class TestSameLoopAsTheCli:
    """The session drives ``HybridVerifier.run``; with the daemon's
    stop hook attached it must still count and decide exactly as the
    CLI does."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_store_counters_match_the_cli(self, tmp_path, jobs):
        cli = _cli("demo", ProofStore(tmp_path / "cli"), jobs)
        session = ServiceSession("demo", store=ProofStore(tmp_path / "svc"))
        before = dict(STORE_STATS)
        r = session.submit(jobs=jobs, stop_check=_never)
        assert r["ok"] and r["reverified"] == ALL
        delta = {k: STORE_STATS[k] - before[k] for k in STORE_STATS}
        assert delta == cli.store_stats
        assert delta["misses"] == delta["stores"] == len(ALL)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("corpus", ["demo", "linked_list"])
    def test_daemon_and_cli_give_the_same_verdicts(self, tmp_path, corpus, jobs):
        def by_function(report):
            return {
                n: entries_status(es) for n, es in report.by_function().items()
            }

        cli_store = ProofStore(tmp_path / "cli")
        cold_cli = by_function(_cli(corpus, cli_store, jobs))
        assert by_function(_cli(corpus, cli_store, jobs)) == cold_cli
        svc = tmp_path / "svc"
        cold = ServiceSession(corpus, store=ProofStore(svc)).submit(
            jobs=jobs, stop_check=_never
        )
        assert cold["functions"] == cold_cli
        # A restarted session over the filled store: every answer is a
        # store hit, and still the same verdict.
        warm = ServiceSession(corpus, store=ProofStore(svc)).submit(
            jobs=jobs, stop_check=_never
        )
        assert warm["reverified"] == []
        assert warm["functions"] == cold_cli


class TestPerRequestCost:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Names fingerprinted, plus ``"logic"`` per logic digest."""
        from repro.hybrid import pipeline

        seen = []
        real_fp, real_logic = pipeline.function_fingerprint, pipeline.logic_digest

        def fingerprint(name, **kw):
            seen.append(name)
            return real_fp(name, **kw)

        def logic(*args):
            seen.append("logic")
            return real_logic(*args)

        monkeypatch.setattr(pipeline, "function_fingerprint", fingerprint)
        monkeypatch.setattr(pipeline, "logic_digest", logic)
        return seen

    def test_each_fingerprint_once_per_request(self, session, calls):
        session.submit()
        session.submit(
            contracts={"demo::leaf": {"ensures": ["result == x", "x == x"]}}
        )
        # The diff and the run's lookup share one key per function, and
        # the logic digest is computed once for the loaded program.
        assert calls.count("logic") == 1
        assert sorted(n for n in calls if n != "logic") == sorted(ALL * 2)

    def test_one_logic_digest_across_linked_list_requests(
        self, tmp_path, calls
    ):
        # front_mut's lemma defines a predicate on first use; neither
        # that nor the session's per-request logic check re-derives the
        # digest or moves a key.
        session = ServiceSession(
            "linked_list", store=ProofStore(tmp_path / "cache")
        )
        session.submit(functions=["LinkedList::front_mut"])
        r = session.submit(functions=["LinkedList::front_mut"])
        assert r["reverified"] == [] and r["reused"] == ["LinkedList::front_mut"]
        assert calls.count("logic") == 1

    def test_cli_runs_share_the_logic_digest(self, tmp_path, calls):
        corpus = load_corpus("demo")
        hv = HybridVerifier(
            corpus.program, corpus.ownables, corpus.contracts,
            store=ProofStore(tmp_path / "cache"),
        )
        hv.run()
        hv.run()
        assert calls.count("logic") == 1


class TestDegradation:
    def test_unknown_function_is_a_request_error(self, session):
        with pytest.raises(KeyError, match="demo::nope"):
            session.submit(functions=["demo::nope"])

    def test_unknown_corpus_is_a_request_error(self, tmp_path):
        with pytest.raises(KeyError, match="unknown corpus"):
            ServiceSession("no-such-corpus").submit()

    def test_expired_deadline_drains_with_timeout_entries(self, session):
        r = session.submit(deadline=0.0)
        assert not r["ok"] and r["status"] == "timeout"
        assert sorted(r["drained"]) == ALL
        assert set(r["functions"].values()) == {"timeout"}
        # A drained function publishes no entry, so it is a store miss.
        assert not any(
            session.store.has(session.verifier.fingerprint(n)) for n in ALL
        )
        # Nothing was committed: the next submit re-verifies all.
        before = dict(STORE_STATS)
        r2 = session.submit()
        assert r2["ok"] and r2["reverified"] == ALL
        assert STORE_STATS["misses"] - before["misses"] == len(ALL)

    def test_stop_check_drains_between_chunks(self, session):
        calls = []

        def stop_after_two():
            calls.append(1)
            return "drain" if len(calls) > 2 else None

        r = session.submit(stop_check=stop_after_two)
        done = [n for n, s in r["functions"].items() if s == "verified"]
        assert len(done) == 2 and len(r["drained"]) == 2
        assert r["status"] == "error"
        # The entry files are the record: the done half has one, the
        # drained half none.
        has = {n: session.store.has(session.verifier.fingerprint(n)) for n in ALL}
        assert sorted(n for n in ALL if has[n]) == sorted(done)
        # Resume: exactly the drained half re-verifies; the completed
        # half answers from the store/session.
        r2 = session.submit()
        assert sorted(r2["reverified"]) == sorted(r["drained"])

    def test_nothing_cacheable_is_not_committed(self, session):
        session.submit(deadline=0.0)  # all timeout
        assert session.committed == {}

    def test_entries_status_severity(self, session):
        session.submit()
        entries = session._results["demo::leaf"]
        assert entries_status(entries) == "verified"


def _recording(monkeypatch) -> list:
    """Every report ``HybridVerifier.run`` returns from now on."""
    reports = []
    real_run = HybridVerifier.run

    def run(self, *args, **kw):
        reports.append(real_run(self, *args, **kw))
        return reports[-1]

    monkeypatch.setattr(HybridVerifier, "run", run)
    return reports


def _with_clause(fn, side, clause):
    from repro.rustlib.contracts import LINKED_LIST_CONTRACTS

    base = LINKED_LIST_CONTRACTS[fn]
    return {fn: {**base, side: [*base.get(side, []), clause]}}


class TestAlphaMemo:
    """The session keeps its verifier and its solver's per-function
    alpha-memo scopes across requests. A ``requires``-side tautology
    moves the encoded precondition, so symbolic execution runs again,
    and every query it asks renames an earlier one: the memo answers
    all of them without a single search. An ``ensures``-only tautology
    re-runs only the postcondition, on the exit states the last run
    left, so its queries repeat earlier ones exactly."""

    FNS = ["LinkedList::new", "LinkedList::pop_front_node"]

    @pytest.mark.parametrize("fn", FNS)
    def test_tautology_edit_is_answered_from_the_memo(self, tmp_path, monkeypatch, fn):
        from repro.obs import report as obs_report

        reports = _recording(monkeypatch)
        session = ServiceSession("linked_list", store=ProofStore(tmp_path / "cache"))
        assert session.submit(functions=[fn])["ok"]
        r = session.submit(
            functions=[fn], contracts=_with_clause(fn, "requires", "1 == 1")
        )
        assert r["ok"] and r["reverified"] == [fn]
        assert "solve" not in r["phases"]

        report = reports[-1]
        assert report.post_reused == 0 and "pre" in r["phases"]
        ss = report.solver_stats
        assert ss["checks"] == 0 and ss["alpha_hits"] > 0
        assert "solve" not in report.phase_stats[fn]
        text = report.render(verbose=True)
        assert f"-- solver: 0 checks, {ss['alpha_hits']} alpha-memo hits" in text
        table = obs_report.render_phase_table(report.phase_stats)
        assert fn in table

    @pytest.mark.parametrize("fn", FNS)
    def test_ensures_tautology_reuses_the_exit_states(self, tmp_path, monkeypatch, fn):
        reports = _recording(monkeypatch)
        session = ServiceSession("linked_list", store=ProofStore(tmp_path / "cache"))
        assert session.submit(functions=[fn])["ok"]
        r = session.submit(
            functions=[fn], contracts=_with_clause(fn, "ensures", "1 == 1")
        )
        assert r["ok"] and r["reverified"] == [fn]
        # Type safety is reused whole, and the functional obligation
        # consumes its postcondition against recorded exit states: no
        # precondition is produced.
        assert "pre" not in r["phases"] and "solve" not in r["phases"]
        report = reports[-1]
        assert report.safety_reused == 1 and report.post_reused == 1
        assert "pre" not in report.phase_stats[fn]
        assert report.solver_stats["checks"] == 0
        assert "-- functional: 1 re-checked only the postcondition" in (
            report.render(verbose=True)
        )


class TestTypeSafetyReuse:
    """The session keeps its verifier across requests, so a contract
    edit re-runs only the functional obligation of each moved unsafe
    function: its type-safety entry is reused from the earlier run."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_contract_edit_reuses_type_safety(self, tmp_path, monkeypatch, jobs):
        from repro.rustlib.contracts import LINKED_LIST_CONTRACTS

        reports = []
        real_run = HybridVerifier.run

        def run(self, *args, **kw):
            reports.append(real_run(self, *args, **kw))
            return reports[-1]

        monkeypatch.setattr(HybridVerifier, "run", run)
        fns = ["LinkedList::pop_front", "LinkedList::pop_front_node"]
        session = ServiceSession("linked_list", store=ProofStore(tmp_path / "cache"))
        session.submit(functions=fns, jobs=jobs)
        cold = reports[-1]
        base = LINKED_LIST_CONTRACTS["LinkedList::pop_front_node"]
        edit = {"LinkedList::pop_front_node": {
            **base, "ensures": [*base.get("ensures", []), "1 == 1"],
        }}
        r = session.submit(functions=fns, contracts=edit, jobs=jobs)
        # pop_front_node's own contract and pop_front's callee contract
        # moved; both re-verify, and neither re-runs type safety.
        assert r["reverified"] == fns
        report = reports[-1]
        assert report.safety_reused == 2
        for fn in fns:
            assert report.phase_stats[fn]["symex"]["calls"] == 1
            assert report.by_function()[fn][0] == cold.by_function()[fn][0]
        corpus = load_corpus("linked_list")
        fresh = HybridVerifier(
            corpus.program, corpus.ownables, {**corpus.contracts, **edit},
            manual_pure_pre=corpus.manual_pure_pre,
        ).run(fns)
        assert r["functions"] == {
            n: entries_status(es) for n, es in fresh.by_function().items()
        }
