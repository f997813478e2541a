"""Crash-safe, content-addressed persistent proof store.

Layout (all under one cache root)::

    <root>/
      entries/<fp[:2]>/<fp>.json   one verified result per fingerprint,
                                   grouped by fingerprint hex prefix
      tmp/                         staging for atomic publishes
      quarantine/                  corrupt entries moved aside, kept for
                                   forensics, transparently re-verified

The store is one tier: every lookup reads its entry file and every
publish writes through to disk before ``put`` returns (DESIGN.md §13).
Anything else under the root — for instance the shard-count stamp
and ``abc/`` prefix directories of older, sharded stores — is ignored:
an entry outside ``entries/<fp[:2]>/`` is a miss, re-verified and
republished at its path.

Durability protocol — a publish is: serialise → write to ``tmp/`` →
``fsync`` the file → ``os.replace`` into ``entries/`` → ``fsync`` the
entry's directory. The rename is the publish, and the entry file is the
only record of it: a function is completed exactly when its entry
exists. A crash at any point leaves either no entry or a complete,
checksummed one; there is no state in between that a reader could
mistake for a proof. A publish that fails removes its own staging
file; the litter of a killed process is ignored.

Entries are serialised by the plain-data codec (:mod:`.codec`) — JSON
dicts rebuilt field-by-field into the known result dataclasses, never
pickle: a cache directory is attacker-writable in common setups (cwd
checkout, shared CI cache), and the checksum only detects accidents,
so reading an entry must be safe on arbitrary bytes.

Validation — every read re-checks the envelope: JSON well-formedness,
format version, fingerprint echo, SHA-256 of the payload, payload
decodability, and that the envelope's ``function`` and ``statuses``
echo the decoded payload. Any failure is *corruption*: the file is
moved to ``quarantine/`` and the lookup reports a miss, so the caller
re-verifies and the fresh publish heals the entry.

Only deterministic verdicts (``verified`` / ``refuted``) are
persisted: a ``timeout`` depends on the machine's speed that day, a
``crashed``/``error`` on transient conditions — caching those would
make a bad day permanent.

Env knobs: ``REPRO_CACHE=1`` opts in, ``REPRO_CACHE_DIR`` picks the
root (default ``.repro-cache``).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Optional

from repro import faultinject
from repro.errors import StoreCorrupted
from repro.obs import span
from repro.obs.metrics import metrics
from repro.parallel import with_retries
from repro.store import codec
from repro.store.fingerprint import STORE_FORMAT

#: Statuses that are functions of the fingerprint alone, hence safe to
#: replay from disk. Everything else re-verifies next run.
CACHEABLE_STATUSES = ("verified", "refuted")

#: Aggregate counters (like PARALLEL_STATS): surfaced in
#: ``HybridReport.render()``. All zero on a run that never touched a
#: store. Only the process that calls ``HybridVerifier.run`` ticks
#: them: pool workers never touch the store.
STORE_STATS = metrics.register_legacy(
    "store",
    {
        "hits": 0,            # lookups answered from an entry file
        "misses": 0,          # lookups that fell through to verification
        "disk_reads": 0,      # entry-file reads performed by get()
        "stores": 0,          # entries newly published
        "skipped": 0,         # results not persisted (nondeterministic verdict)
        "corrupt": 0,         # entries that failed validation
        "quarantined": 0,     # corrupt entries moved to quarantine/
        "healed": 0,          # quarantined fingerprints re-published
        "io_retries": 0,      # transient I/O errors absorbed by retry
        "io_errors": 0,       # I/O failures that exhausted the retries
    },
)


class ProofStore:
    """One cache root; safe to share between processes (publishes are
    atomic and idempotent)."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.entries_dir = self.root / "entries"
        self.tmp_dir = self.root / "tmp"
        self.quarantine_dir = self.root / "quarantine"
        for d in (self.entries_dir, self.tmp_dir, self.quarantine_dir):
            d.mkdir(parents=True, exist_ok=True)
        #: Fingerprints this process quarantined; a later publish of one
        #: of these is a *heal*.
        self._quarantined: set[str] = set()

    # -- configuration -------------------------------------------------------

    @classmethod
    def from_env(cls, environ: Optional[dict] = None) -> Optional["ProofStore"]:
        """The env-configured store, or ``None`` when caching is off
        (``REPRO_CACHE`` unset) or the store cannot be opened."""
        env = os.environ if environ is None else environ
        if env.get("REPRO_CACHE") != "1":
            return None
        return cls.open(env.get("REPRO_CACHE_DIR") or ".repro-cache")

    @classmethod
    def open(cls, root) -> Optional["ProofStore"]:
        """The store at ``root``, or ``None``. Never raises: a store
        that cannot be opened (read-only FS, a NUL in the path) warns
        and disables itself — the cache may degrade performance, never
        break a run."""
        try:
            return cls(root)
        except (OSError, ValueError) as e:
            warnings.warn(
                f"the proof store at {str(root)!r} cannot be opened "
                f"({e}); continuing without a cache",
                RuntimeWarning,
                stacklevel=3,
            )
            return None

    # -- paths ---------------------------------------------------------------

    def _entry_path(self, fp: str) -> Path:
        return self.entries_dir / fp[:2] / f"{fp}.json"

    def has(self, fp: str) -> bool:
        """Whether ``fp`` is published (present, not yet validated)."""
        return self._entry_path(fp).exists()

    # -- lookups -------------------------------------------------------------

    def get(self, fp: str, context: str = ""):
        """The cached entries for ``fp``, or ``None`` (a miss).

        Corruption quarantines the entry and reports a miss. I/O errors
        are retried with backoff; a persistent one is a miss (the proof
        is re-run — slower, never wrong)."""
        with span("store.get"):
            return self._get(fp, context)

    def _get(self, fp: str, context: str):
        path = self._entry_path(fp)
        if not path.exists():
            # The common cold-run path: a plain miss, not an I/O fault
            # — no retries (and no fault-injection fire) for absence.
            STORE_STATS["misses"] += 1
            return None
        STORE_STATS["disk_reads"] += 1
        try:
            blob = with_retries(
                lambda: self._read_entry(path, context),
                on_retry=lambda e: _bump("io_retries"),
            )
        except FileNotFoundError:
            STORE_STATS["misses"] += 1
            return None
        except OSError:
            STORE_STATS["io_errors"] += 1
            STORE_STATS["misses"] += 1
            return None
        try:
            entries = self._decode(fp, blob, path)
        except StoreCorrupted:
            STORE_STATS["corrupt"] += 1
            self._quarantine(fp, path)
            STORE_STATS["misses"] += 1
            return None
        STORE_STATS["hits"] += 1
        return entries

    def _read_entry(self, path: Path, context: str) -> bytes:
        faultinject.fire("store.read", context)
        return path.read_bytes()

    def _decode(self, fp: str, blob: bytes, path: Path):
        try:
            envelope = json.loads(blob)
        except ValueError:
            raise StoreCorrupted("entry is not valid JSON (torn write?)",
                                 str(path)) from None
        if not isinstance(envelope, dict):
            raise StoreCorrupted("entry envelope is not an object", str(path))
        if envelope.get("version") != STORE_FORMAT:
            raise StoreCorrupted(
                f"entry format {envelope.get('version')!r} != {STORE_FORMAT}",
                str(path),
            )
        if envelope.get("fp") != fp:
            raise StoreCorrupted("entry fingerprint does not echo its key",
                                 str(path))
        payload = envelope.get("payload")
        checksum = envelope.get("checksum")
        if not isinstance(payload, str) or not isinstance(checksum, str):
            raise StoreCorrupted("entry envelope incomplete", str(path))
        if hashlib.sha256(payload.encode()).hexdigest() != checksum:
            raise StoreCorrupted("payload checksum mismatch (bit-flip?)",
                                 str(path))
        try:
            entries = codec.decode_entries(json.loads(base64.b64decode(payload)))
        except Exception:
            raise StoreCorrupted("payload failed to decode", str(path)) from None
        # The envelope's ``function`` and ``statuses`` sit outside the
        # checksum and are read without decoding the payload, so they
        # must echo it.
        if {e.function for e in entries} != {envelope.get("function")} or (
            envelope.get("statuses") != [e.status for e in entries]
        ):
            raise StoreCorrupted(
                "entry envelope does not match its payload", str(path)
            )
        return entries

    def _quarantine(self, fp: str, path: Path) -> None:
        """Move a corrupt entry aside (atomic, keeps the evidence) so
        the next publish of this fingerprint heals it."""
        dest = self.quarantine_dir / f"{fp}.{os.getpid()}.quarantined"
        try:
            os.replace(path, dest)
        except OSError:
            # Even removal may fail (read-only FS); a corrupt entry we
            # cannot move will simply keep re-verifying. Still a miss.
            pass
        self._quarantined.add(fp)
        STORE_STATS["quarantined"] += 1

    # -- publishes -----------------------------------------------------------

    def put(self, fp: str, function: str, entries: list) -> bool:
        """Atomically publish one function's entries under ``fp``.

        Returns ``True`` when the entry is durable on disk (whether
        written now or already present). Never raises: a cache that
        cannot be written costs performance, not the run — persistent
        I/O failures are counted and swallowed."""
        with span("store.put", function=function):
            return self._put(fp, function, entries)

    def _put(self, fp: str, function: str, entries: list) -> bool:
        statuses = [getattr(e, "status", "?") for e in entries]
        if not entries or any(s not in CACHEABLE_STATUSES for s in statuses):
            STORE_STATS["skipped"] += 1
            return False
        try:
            flat = codec.encode_entries(entries)
        except (AttributeError, TypeError, ValueError):
            # An entry the plain-data codec cannot express is simply
            # not cached — never fall back to an executable format.
            STORE_STATS["skipped"] += 1
            return False
        path = self._entry_path(fp)
        if path.exists():
            return True  # idempotent: content-addressed, already published
        envelope = {
            "version": STORE_FORMAT,
            "fp": fp,
            "function": function,
            "statuses": statuses,
        }
        payload = base64.b64encode(
            json.dumps(flat, sort_keys=True, separators=(",", ":")).encode()
        ).decode()
        envelope["payload"] = payload
        envelope["checksum"] = hashlib.sha256(payload.encode()).hexdigest()
        blob = (json.dumps(envelope, sort_keys=True) + "\n").encode()
        try:
            with_retries(
                lambda: self._write_entry(path, fp, function, blob),
                on_retry=lambda e: _bump("io_retries"),
            )
        except OSError:
            STORE_STATS["io_errors"] += 1
            return False
        STORE_STATS["stores"] += 1
        if fp in self._quarantined:
            self._quarantined.discard(fp)
            STORE_STATS["healed"] += 1
        return True

    def _write_entry(
        self, path: Path, fp: str, function: str, blob: bytes
    ) -> None:
        faultinject.fire("store.write", function)
        blob = faultinject.corrupt("store.write", function, blob)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.tmp_dir / f"{fp}.{os.getpid()}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                os.write(fd, blob)
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
        self._fsync_dir(path.parent)

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """Make the rename itself durable (POSIX: the directory entry
        lives in the directory's own data)."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


def _bump(key: str) -> None:
    STORE_STATS[key] += 1
