"""The session's fingerprint diff: a function is dirty when it is
``new`` (never committed) or ``changed`` (its fingerprint moved), and
only then."""

from repro.service.session import ServiceSession


def committed(fps):
    """A session that has committed ``fps`` after its first diff."""
    session = ServiceSession("demo")
    session.diff(fps)
    session.committed.update(fps)
    return session


class TestIndex:
    FPS = {"leaf": "f1", "mid": "f2", "top": "f3"}

    def test_everything_new_on_first_diff(self):
        session = ServiceSession("demo")
        out = session.diff({"leaf": "f1", "mid": "f2"})
        assert out == {"leaf": "new", "mid": "new"}

    def test_clean_after_commit(self):
        session = committed(self.FPS)
        assert session.diff(self.FPS) == {}
        assert session.committed == self.FPS

    def test_body_edit_stays_local(self):
        session = committed(self.FPS)
        out = session.diff({**self.FPS, "leaf": "f1'"})
        assert out == {"leaf": "changed"}

    def test_contract_edit_dirties_exactly_the_moved_fingerprints(self):
        # A leaf contract edit moves leaf's and mid's fingerprints (mid
        # hashes its direct callee's contract); top's is unchanged, so
        # top stays clean.
        session = committed(self.FPS)
        out = session.diff({"leaf": "f1'", "mid": "f2'", "top": "f3"})
        assert out == {"leaf": "changed", "mid": "changed"}
        assert session.committed == {"top": "f3"}

    def test_uncommitted_round_stays_dirty(self):
        # The dirty round never produced a cacheable verdict (drain or
        # timeout): the dirty functions were evicted, so they stay
        # dirty until a commit, even when the edit is reverted.
        session = committed(self.FPS)
        session.diff({**self.FPS, "leaf": "f1'"})
        assert session.diff({**self.FPS, "leaf": "f1'"}) == {"leaf": "new"}
        assert session.diff(self.FPS) == {"leaf": "new"}
        session.committed["leaf"] = "f1"
        assert session.diff(self.FPS) == {}
