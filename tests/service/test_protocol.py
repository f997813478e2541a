"""NDJSON framing: encode/decode, validation, line bounds."""

import socket
import threading

import pytest

from repro.service import protocol


class TestCodec:
    def test_roundtrip(self):
        msg = {"op": "submit", "corpus": "demo", "functions": ["a", "b"]}
        assert protocol.decode(protocol.encode(msg).rstrip(b"\n")) == msg

    def test_encode_is_one_line(self):
        data = protocol.encode({"note": "with\nnewline"})
        assert data.endswith(b"\n") and data.count(b"\n") == 1

    def test_oversize_encode_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="MAX_LINE"):
            protocol.encode({"blob": "x" * protocol.MAX_LINE})

    def test_oversize_decode_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="MAX_LINE"):
            protocol.decode(b"x" * (protocol.MAX_LINE + 1))

    def test_garbage_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="JSON"):
            protocol.decode(b"{not json")
        with pytest.raises(protocol.ProtocolError, match="object"):
            protocol.decode(b"[1,2]")


class TestValidate:
    def test_ops(self):
        for op in protocol.OPS:
            msg = {"op": op}
            if op == "submit":
                msg["corpus"] = "demo"
            assert protocol.validate_request(msg) is None

    def test_unknown_op(self):
        assert "op must be" in protocol.validate_request({"op": "explode"})
        assert "op must be" in protocol.validate_request({})

    def test_submit_needs_corpus(self):
        assert "corpus" in protocol.validate_request({"op": "submit"})

    def test_bad_field_types(self):
        base = {"op": "submit", "corpus": "demo"}
        assert "functions" in protocol.validate_request(
            {**base, "functions": "demo::leaf"}
        )
        assert "params" in protocol.validate_request({**base, "params": [1]})
        assert "contracts" in protocol.validate_request(
            {**base, "contracts": "x"}
        )
        assert "deadline" in protocol.validate_request(
            {**base, "deadline": "soon"}
        )
        assert "jobs" in protocol.validate_request({**base, "jobs": 0})

    @pytest.mark.parametrize(
        "deadline", [float("nan"), float("inf"), -5, -0.5, 0, 0.0, True, False]
    )
    def test_deadline_must_be_finite_positive_seconds(self, deadline):
        msg = {"op": "submit", "corpus": "demo", "deadline": deadline}
        assert "deadline" in protocol.validate_request(msg)

    def test_nan_deadline_off_the_wire_is_refused(self):
        msg = protocol.decode(b'{"op":"submit","corpus":"demo","deadline":NaN}')
        assert "deadline" in protocol.validate_request(msg)
        msg = protocol.decode(
            b'{"op":"submit","corpus":"demo","deadline":Infinity}'
        )
        assert "deadline" in protocol.validate_request(msg)

    @pytest.mark.parametrize("jobs", [True, False, 1.5, -1])
    def test_jobs_must_be_a_positive_int_not_a_bool(self, jobs):
        msg = {"op": "submit", "corpus": "demo", "jobs": jobs}
        assert "jobs" in protocol.validate_request(msg)

    def test_good_deadline_and_jobs_pass(self):
        msg = {"op": "submit", "corpus": "demo", "deadline": 2.5, "jobs": 2}
        assert protocol.validate_request(msg) is None
        assert protocol.validate_request({**msg, "deadline": 3}) is None

    def test_error_response_shapes(self):
        r = protocol.error_response(
            "overloaded", "full", {"id": "r9"}, retry_after=0.2
        )
        assert r == {
            "ok": False,
            "error": "overloaded",
            "message": "full",
            "retry_after": 0.2,
            "id": "r9",
        }


class TestReadLines:
    def test_split_and_reassembled_lines(self):
        a, b = socket.socketpair()
        a.sendall(b'{"x":1}\n{"y"')
        a.sendall(b':2}\n')
        a.close()
        lines = list(protocol.read_lines(b))
        assert lines == [b'{"x":1}', b'{"y":2}']

    def test_oversized_line_raises(self):
        a, b = socket.socketpair()

        # A megabyte does not fit in the socketpair buffer; feed it
        # from a thread so the reader can drain while we send.
        def feed():
            try:
                a.sendall(b"x" * (protocol.MAX_LINE + 2))
            except OSError:
                pass  # reader bailed early and closed its end
            finally:
                a.close()

        t = threading.Thread(target=feed)
        t.start()
        try:
            with pytest.raises(protocol.ProtocolError, match="MAX_LINE"):
                list(protocol.read_lines(b))
        finally:
            b.close()
            t.join(timeout=10)
