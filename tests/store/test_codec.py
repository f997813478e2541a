"""The plain-data entry codec: faithful round-trips for every result
shape the pipeline produces, and hard ValueError rejection of anything
else — a cache file is untrusted input, so decoding must reconstruct
known dataclasses field-by-field and never execute content (the reason
the store does not pickle)."""

import json

import pytest

from repro.creusot.vcgen import CreusotIssue, CreusotResult
from repro.gillian.engine import VerificationIssue
from repro.gillian.verifier import VerificationResult
from repro.hybrid.pipeline import HybridEntry
from repro.store.codec import decode_entries, encode_entries


def creusot_entry():
    return HybridEntry(
        "push", "creusot", ok=True,
        detail=CreusotResult(
            "push", True,
            issues=[CreusotIssue("push", "bb2", "overflow")],
            elapsed=0.25, branches=3, vcs=7,
        ),
        note="7 VCs",
    )


def gillian_entry():
    return HybridEntry(
        "pop", "gillian-rust", ok=False,
        detail=VerificationResult(
            "pop", "show_safety", ok=False,
            issues=[VerificationIssue("pop", "bb0", "leak")],
            elapsed=1.5, branches=9,
            status="refuted",
        ),
        status="refuted",
    )


class TestRoundTrip:
    @pytest.mark.parametrize(
        "entry",
        [
            creusot_entry(),
            gillian_entry(),
            HybridEntry("id", "gillian-rust", ok=True, detail=None, note="n"),
        ],
        ids=["creusot", "gillian", "no-detail"],
    )
    def test_entry_survives(self, entry):
        [back] = decode_entries(
            json.loads(json.dumps(encode_entries([entry])))
        )
        assert back == entry

    def test_payload_is_json_safe(self):
        blob = json.dumps(encode_entries([creusot_entry(), gillian_entry()]))
        assert isinstance(json.loads(blob), list)


class TestRejection:
    def test_unencodable_detail_raises(self):
        entry = HybridEntry("f", "creusot", ok=True, detail=object())
        with pytest.raises(ValueError, match="not encodable"):
            encode_entries([entry])

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("function"),
            lambda d: d.__setitem__("ok", "yes"),
            lambda d: d.__setitem__("detail", "creusot"),
            lambda d: d.__setitem__("detail", {"type": "creusot"}),
            lambda d: d.__setitem__("detail", {"type": "pickle"}),
            lambda d: d["detail"].__setitem__("issues", "none"),
            lambda d: d["detail"].__setitem__("vcs", True),
            lambda d: d["detail"].__setitem__("elapsed", "fast"),
        ],
    )
    def test_malformed_records_raise(self, mutate):
        [record] = encode_entries([creusot_entry()])
        mutate(record)
        with pytest.raises(ValueError):
            decode_entries([record])

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.__setitem__("kind", 7),
            lambda d: d.__setitem__("branches", "many"),
            lambda d: d.__setitem__("status", None),
            lambda d: d.__setitem__("issues", [{"where": "bb0"}]),
        ],
    )
    def test_malformed_gillian_details_raise(self, mutate):
        [record] = encode_entries([gillian_entry()])
        mutate(record["detail"])
        with pytest.raises(ValueError):
            decode_entries([record])

    def test_gillian_tactic_counts_are_not_persisted(self):
        # A run's tactic counts live in its report (the ``tactic.*``
        # registry counters), not in the entries the store replays.
        [record] = encode_entries([gillian_entry()])
        assert "stats" not in record["detail"]

    def test_non_list_payload_raises(self):
        with pytest.raises(ValueError, match="entry list"):
            decode_entries({"surprise": 1})
