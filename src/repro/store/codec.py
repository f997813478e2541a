"""Plain-data codec for persisted store entries.

Cache files cross a trust boundary: with ``REPRO_CACHE=1`` the default
root is the cwd-relative ``.repro-cache``, so verifying an untrusted
checkout — or pointing ``REPRO_CACHE_DIR`` at a shared CI cache —
means reading files someone else may have written. The envelope
checksum detects *accidents*, not tampering (it is computed from the
payload itself), so the decoder must be safe on arbitrary bytes:
entries are flattened to JSON-safe dicts on the way out and rebuilt
field-by-field into the known result dataclasses on the way in.
Malformed or unexpected shapes raise :class:`ValueError`, which the
store maps to corruption (quarantine + re-verify); nothing read from a
cache file is ever unpickled or otherwise executed.

The imports of the result classes are deferred into the functions:
``repro.hybrid.pipeline`` imports ``repro.store`` at module load, so
importing it back at the top here would be circular.
"""

from __future__ import annotations


def encode_entries(entries) -> list:
    """Flatten ``HybridEntry`` objects to JSON-safe dicts.

    Raises :class:`ValueError` for any detail the plain-data format
    cannot express — the caller skips caching that entry rather than
    falling back to an executable serialisation."""
    return [
        {
            "function": _typed(e.function, str, "function"),
            "half": _typed(e.half, str, "half"),
            "ok": bool(e.ok),
            "note": _typed(e.note, str, "note"),
            "status": _typed(e.status, str, "status"),
            "detail": _encode_detail(e.detail),
        }
        for e in entries
    ]


def decode_entries(data) -> list:
    """Rebuild ``HybridEntry`` objects from :func:`encode_entries`
    output; raises :class:`ValueError` on any shape mismatch."""
    from repro.hybrid.pipeline import HybridEntry

    if not isinstance(data, list):
        raise ValueError("payload is not an entry list")
    return [
        HybridEntry(
            function=_field(item, "function", str),
            half=_field(item, "half", str),
            ok=_field(item, "ok", bool),
            detail=_decode_detail(_obj(item, "entry").get("detail")),
            note=_field(item, "note", str),
            status=_field(item, "status", str),
        )
        for item in data
    ]


def _encode_detail(detail):
    from repro.creusot.vcgen import CreusotResult
    from repro.gillian.verifier import VerificationResult

    if detail is None:
        return None
    if isinstance(detail, CreusotResult):
        return {
            "type": "creusot",
            "function": _typed(detail.function, str, "function"),
            "ok": bool(detail.ok),
            "elapsed": float(detail.elapsed),
            "branches": int(detail.branches),
            "vcs": int(detail.vcs),
            "issues": _encode_issues(detail.issues),
        }
    if isinstance(detail, VerificationResult):
        return {
            "type": "gillian",
            "function": _typed(detail.function, str, "function"),
            "kind": _typed(detail.kind, str, "kind"),
            "ok": bool(detail.ok),
            "elapsed": float(detail.elapsed),
            "branches": int(detail.branches),
            "status": _typed(detail.status, str, "status"),
            "issues": _encode_issues(detail.issues),
        }
    raise ValueError(f"detail of type {type(detail).__name__} is not encodable")


def _encode_issues(issues):
    return [
        {
            "function": _typed(i.function, str, "function"),
            "where": _typed(i.where, str, "where"),
            "message": _typed(i.message, str, "message"),
        }
        for i in issues
    ]


def _decode_detail(data):
    if data is None:
        return None
    kind = _obj(data, "detail").get("type")
    if kind == "creusot":
        from repro.creusot.vcgen import CreusotIssue, CreusotResult

        return CreusotResult(
            function=_field(data, "function", str),
            ok=_field(data, "ok", bool),
            issues=_decode_issues(data, CreusotIssue),
            elapsed=_number(data, "elapsed"),
            branches=_field(data, "branches", int),
            vcs=_field(data, "vcs", int),
        )
    if kind == "gillian":
        from repro.gillian.engine import VerificationIssue
        from repro.gillian.verifier import VerificationResult

        return VerificationResult(
            function=_field(data, "function", str),
            kind=_field(data, "kind", str),
            ok=_field(data, "ok", bool),
            issues=_decode_issues(data, VerificationIssue),
            elapsed=_number(data, "elapsed"),
            branches=_field(data, "branches", int),
            status=_field(data, "status", str),
        )
    raise ValueError(f"unknown detail type {kind!r}")


def _decode_issues(data, issue_cls):
    issues = _obj(data, "detail").get("issues")
    if not isinstance(issues, list):
        raise ValueError("detail field 'issues' is not a list")
    return [
        issue_cls(
            function=_field(i, "function", str),
            where=_field(i, "where", str),
            message=_field(i, "message", str),
        )
        for i in issues
    ]


def _obj(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} is not an object")
    return value


def _typed(value, ty, what: str):
    if not isinstance(value, ty):
        raise ValueError(f"{what} is not {ty.__name__}")
    return value


def _field(data, key: str, ty):
    value = _obj(data, "record").get(key)
    # bool is an int subclass; an int field must still reject True.
    if not isinstance(value, ty) or (ty is int and isinstance(value, bool)):
        raise ValueError(f"field {key!r} is not {ty.__name__}")
    return value


def _number(data, key: str) -> float:
    value = _obj(data, "record").get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {key!r} is not a number")
    return float(value)
