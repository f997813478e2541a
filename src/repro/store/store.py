"""Crash-safe, content-addressed persistent proof store.

Layout (all under one cache root)::

    <root>/
      entries/<prefix>/<fp>.json   one verified result per fingerprint,
                                   sharded by fingerprint hex prefix
      tmp/                         staging for atomic publishes
      quarantine/                  corrupt entries moved aside, kept for
                                   forensics, transparently re-verified
      journal.jsonl                append-only run journal (see journal.py)
      layout.json                  shard-count stamp ({"version", "shards"})

Sharding: the prefix width follows the shard count (``1`` → flat,
``16`` → ``f/``, ``256`` → ``ab/`` — the historical layout — ``4096``
→ ``abc/``), chosen by ``REPRO_CACHE_SHARDS`` at creation and stamped
in ``layout.json``; an existing stamp always wins over the knob, so
every process sharing a root agrees on the layout. A pre-stamp store
(the fixed ``fp[:2]`` layout) is migrated transparently on first open,
and lookups fall back to the legacy path (relocating what they find)
so a reader racing the migration never misses an entry that exists.

Tiering (DESIGN.md §13): an optional bounded in-process LRU of decoded
entries (:class:`repro.store.memtier.MemTier`, ``REPRO_CACHE_MEM``)
sits read-through over the disk layer, so hot warm-run lookups never
touch disk (``STORE_STATS`` splits ``mem_hits``/``disk_hits``, and
``disk_reads`` counts actual file reads — the CI warm-run gate).
Publishes can be write-behind (``REPRO_CACHE_WB``): buffered in the
parent and flushed at checkpoint boundaries (:meth:`ProofStore.flush`,
called by ``end_run`` and the daemon's dispatch loop). Forked pool
workers always write through — their buffers would die with them.

Durability protocol — a publish is: serialise → write to ``tmp/`` →
``fsync`` the file → ``os.replace`` into ``entries/`` → ``fsync`` the
shard directory → append a journal record. A crash at any point leaves
either no entry (tmp litter is ignored and reclaimed) or a complete,
checksummed entry; there is no state in between that a reader could
mistake for a proof. Write-behind defers the *whole* sequence — the
journal record still follows its durable entry file, so a journal
record always implies a readable entry, and a kill mid-flush costs at
most not-yet-flushed (unacknowledged) buffer contents.

Entries are serialised by the plain-data codec (:mod:`.codec`) — JSON
dicts rebuilt field-by-field into the known result dataclasses, never
pickle: a cache directory is attacker-writable in common setups (cwd
checkout, shared CI cache), and the checksum only detects accidents,
so reading an entry must be safe on arbitrary bytes.

Validation — every read re-checks the envelope: JSON well-formedness,
format version, fingerprint echo, SHA-256 of the payload, and payload
decodability. Any failure is *corruption*: in ``heal`` mode (default)
the file is moved to ``quarantine/`` and the lookup reports a miss, so
the caller re-verifies and the fresh publish heals the entry; in
``strict`` mode a :class:`~repro.errors.StoreCorrupted` surfaces (the
pipeline maps it to an ``error`` entry — it still never crashes a run).

Only deterministic verdicts (``verified`` / ``refuted``) are
persisted: a ``timeout`` depends on the machine's speed that day, a
``crashed``/``error`` on transient conditions — caching those would
make a bad day permanent.

Env knobs: ``REPRO_CACHE=1`` opts in, ``REPRO_CACHE_DIR`` picks the
root (default ``.repro-cache``), ``REPRO_CACHE_VERIFY=strict|heal``
picks the corruption policy, ``REPRO_CACHE_SHARDS`` the shard count
for new stores (1/16/256/4096, default 256), ``REPRO_CACHE_MEM`` the
memory-tier capacity in entries (default 256, ``0`` disables),
``REPRO_CACHE_WB=0`` forces write-through publishes.
"""

from __future__ import annotations

import base64
import hashlib
import json
import multiprocessing
import os
import signal
import warnings
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from repro import faultinject
from repro.errors import StoreCorrupted
from repro.obs import span
from repro.obs.metrics import metrics
from repro.parallel import with_retries
from repro.store import codec
from repro.store.fingerprint import STORE_FORMAT
from repro.store.journal import Journal
from repro.store.memtier import MemTier

#: Statuses that are functions of the fingerprint alone, hence safe to
#: replay from disk. Everything else re-verifies next run.
CACHEABLE_STATUSES = ("verified", "refuted")

#: Supported shard counts -> fingerprint hex-prefix width. 256 is the
#: historical ``fp[:2]`` layout, so it doubles as the migration-free
#: default for pre-stamp stores.
_SHARD_WIDTHS = {1: 0, 16: 1, 256: 2, 4096: 3}

#: The shard-count stamp file inside the cache root.
LAYOUT_FILENAME = "layout.json"
LAYOUT_FORMAT = 1
DEFAULT_SHARDS = 256
#: Prefix width of the pre-``layout.json`` (flat v2) layout.
_LEGACY_WIDTH = 2

#: Aggregate counters (like PARALLEL_STATS): surfaced in
#: ``HybridReport.render()`` and the bench JSON. All zero on a run that
#: never touched a store.
#: Registered with the metrics registry as group ``"store"`` but
#: *excluded* from the fork-worker delta merge (``delta=False``): the
#: parent already credits worker publishes through
#: :meth:`ProofStore.note_worker_publish`, and worker-side lookup
#: counters describe a private probe the parent repeats — merging
#: either would double-count.
STORE_STATS = metrics.register_legacy(
    "store",
    {
        "hits": 0,            # lookups answered from cache (mem or disk)
        "misses": 0,          # lookups that fell through to verification
        "mem_hits": 0,        # ...of hits: answered by the memory tier
        "disk_hits": 0,       # ...of hits: answered by an entry file
        "disk_reads": 0,      # entry-file reads performed by get()
        "stores": 0,          # entries newly published
        "wb_flushes": 0,      # write-behind buffer flushes
        "skipped": 0,         # results not persisted (nondeterministic verdict)
        "corrupt": 0,         # entries that failed validation
        "quarantined": 0,     # corrupt entries moved to quarantine/
        "healed": 0,          # quarantined fingerprints re-published
        "migrated": 0,        # entry files moved to a new shard layout
        "io_retries": 0,      # transient I/O errors absorbed by retry
        "io_errors": 0,       # I/O failures that exhausted the retries
        "journal_bad_lines": 0,  # torn/invalid journal lines skipped
    },
    delta=False,
)


def reset_store_stats() -> None:
    """Deprecated alias: resets route through the metrics registry."""
    metrics.reset("store")


class ProofStore:
    """One cache root; safe to share between a parent and its forked
    pool workers (publishes are atomic and idempotent, journal appends
    are single-write)."""

    def __init__(
        self,
        root,
        verify_mode: str = "heal",
        shards: Optional[int] = None,
        mem: int = 0,
        write_behind: bool = False,
    ) -> None:
        if verify_mode not in ("heal", "strict"):
            raise ValueError(
                f"verify_mode must be 'heal' or 'strict', got {verify_mode!r}"
            )
        if shards is not None and shards not in _SHARD_WIDTHS:
            raise ValueError(
                f"shards must be one of {sorted(_SHARD_WIDTHS)}, got {shards!r}"
            )
        self.root = Path(root)
        self.verify_mode = verify_mode
        self.entries_dir = self.root / "entries"
        self.tmp_dir = self.root / "tmp"
        self.quarantine_dir = self.root / "quarantine"
        for d in (self.entries_dir, self.tmp_dir, self.quarantine_dir):
            d.mkdir(parents=True, exist_ok=True)
        self.journal = Journal(self.root / "journal.jsonl")
        self.shards = self._resolve_layout(shards)
        self._shard_width = _SHARD_WIDTHS[self.shards]
        #: The read-through memory tier (None when ``mem=0``).
        self.memtier: Optional[MemTier] = MemTier(mem) if mem > 0 else None
        self.write_behind = bool(write_behind)
        #: Write-behind buffer: fp -> (function, statuses, blob,
        #: decoded entries), flushed in insertion order.
        self._pending: "OrderedDict[str, tuple]" = OrderedDict()
        #: Fingerprints this process quarantined; a later publish of one
        #: of these is a *heal*.
        self._quarantined: set[str] = set()
        #: Fingerprints whose publish this process already counted in
        #: ``STORE_STATS`` — guards :meth:`note_worker_publish` against
        #: double-crediting an entry the parent itself wrote (e.g. via
        #: the broken-pool serial retry).
        self._published: set[str] = set()

    # -- configuration -------------------------------------------------------

    @classmethod
    def from_env(cls, environ: Optional[dict] = None) -> Optional["ProofStore"]:
        """The env-configured store, or ``None`` when caching is off.
        Never raises: a store that cannot be opened (read-only FS, bad
        mode string) warns and disables itself — the cache may degrade
        performance, never break a run."""
        env = os.environ if environ is None else environ
        if env.get("REPRO_CACHE") != "1":
            return None
        root = env.get("REPRO_CACHE_DIR") or ".repro-cache"
        mode = env.get("REPRO_CACHE_VERIFY") or "heal"
        try:
            return cls(root, verify_mode=mode, **tier_kwargs_from_env(env))
        except (OSError, ValueError) as e:
            warnings.warn(
                f"REPRO_CACHE=1 but the store at {root!r} cannot be "
                f"opened ({e}); continuing without a cache",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    # -- layout --------------------------------------------------------------

    def _resolve_layout(self, requested: Optional[int]) -> int:
        """The store's shard count: the ``layout.json`` stamp when one
        exists (processes sharing a root must agree, so the stamp beats
        the knob), else ``requested`` (default 256) — migrating any
        pre-stamp (fixed ``fp[:2]``) entries into the new layout before
        stamping it."""
        layout_path = self.root / LAYOUT_FILENAME
        try:
            doc = json.loads(layout_path.read_text())
        except (OSError, ValueError):
            doc = None
        if (
            isinstance(doc, dict)
            and doc.get("version") == LAYOUT_FORMAT
            and doc.get("shards") in _SHARD_WIDTHS
        ):
            return int(doc["shards"])
        shards = DEFAULT_SHARDS if requested is None else requested
        width = _SHARD_WIDTHS[shards]
        if width != _LEGACY_WIDTH:
            self._migrate_entries(width)
        stamp = json.dumps(
            {"version": LAYOUT_FORMAT, "shards": shards}, sort_keys=True
        )
        tmp = layout_path.with_name(f"{LAYOUT_FILENAME}.{os.getpid()}.tmp")
        tmp.write_text(stamp + "\n")
        os.replace(tmp, layout_path)
        return shards

    def _migrate_entries(self, width: int) -> None:
        """Move every entry file into the ``width``-prefix layout
        (atomic per file; content-addressed names make a concurrent
        double-migration a benign race). Best-effort per file: one
        unmovable entry costs a counted I/O error, not the open."""
        moved = 0
        for src in sorted(self.entries_dir.rglob("*.json")):
            fp = src.stem
            dest = self._path_at(fp, width)
            if src == dest:
                continue
            try:
                dest.parent.mkdir(parents=True, exist_ok=True)
                os.replace(src, dest)
                moved += 1
            except OSError:
                STORE_STATS["io_errors"] += 1
        if moved:
            STORE_STATS["migrated"] += moved
        # Drop now-empty shard directories of the old layout.
        for d in sorted(self.entries_dir.iterdir()):
            if d.is_dir():
                try:
                    d.rmdir()
                except OSError:
                    pass

    # -- paths ---------------------------------------------------------------

    def _path_at(self, fp: str, width: int) -> Path:
        if width == 0:
            return self.entries_dir / f"{fp}.json"
        return self.entries_dir / fp[:width] / f"{fp}.json"

    def _entry_path(self, fp: str) -> Path:
        return self._path_at(fp, self._shard_width)

    def _legacy_fallback(self, fp: str) -> Optional[Path]:
        """A pre-migration writer (old code sharing this root) may
        still publish into the fixed ``fp[:2]`` layout; probe it on a
        miss and relocate what we find."""
        if self._shard_width == _LEGACY_WIDTH:
            return None
        legacy = self._path_at(fp, _LEGACY_WIDTH)
        if not legacy.exists():
            return None
        dest = self._entry_path(fp)
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(legacy, dest)
            STORE_STATS["migrated"] += 1
            return dest
        except OSError:
            return legacy

    def has(self, fp: str) -> bool:
        """Whether ``fp`` is published: resident in a memory tier /
        write-behind buffer, or present (not yet validated) on disk."""
        if self.memtier is not None and fp in self.memtier:
            return True
        if fp in self._pending:
            return True
        if self._entry_path(fp).exists():
            return True
        return (
            self._shard_width != _LEGACY_WIDTH
            and self._path_at(fp, _LEGACY_WIDTH).exists()
        )

    def note_worker_publish(self, fp: str) -> None:
        """Credit this run's counters with a publish performed by a
        forked pool worker: the worker's ``STORE_STATS`` die with its
        process, but the parent can observe the entry file appearing
        between lookup (a miss) and reassembly. A no-op for entries
        this process published (and counted) itself."""
        if fp in self._published:
            return
        self._published.add(fp)
        STORE_STATS["stores"] += 1
        if fp in self._quarantined:
            self._quarantined.discard(fp)
            STORE_STATS["healed"] += 1

    # -- lookups -------------------------------------------------------------

    def get(self, fp: str, context: str = ""):
        """The cached entries for ``fp``, or ``None`` (a miss).

        Corruption in ``heal`` mode quarantines and reports a miss; in
        ``strict`` mode it raises :class:`StoreCorrupted`. I/O errors
        are retried with backoff; a persistent one is a miss (the proof
        is re-run — slower, never wrong)."""
        with span("store.get", fp=fp[:12]):
            return self._get(fp, context)

    def _get(self, fp: str, context: str):
        if self.memtier is not None:
            entries = self.memtier.get(fp)
            if entries is not None:
                STORE_STATS["hits"] += 1
                STORE_STATS["mem_hits"] += 1
                return entries
        pending = self._pending.get(fp)
        if pending is not None:
            # Read-your-writes for a buffered publish: the decoded
            # entries are right here — an in-memory hit.
            STORE_STATS["hits"] += 1
            STORE_STATS["mem_hits"] += 1
            return pending[3]
        path = self._entry_path(fp)
        if not path.exists():
            fallback = self._legacy_fallback(fp)
            if fallback is None:
                # The common cold-run path: a plain miss, not an I/O
                # fault — no retries (and no fault-injection fire) for
                # absence.
                STORE_STATS["misses"] += 1
                return None
            path = fallback
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
        except StoreCorrupted as e:
            STORE_STATS["corrupt"] += 1
            if self.verify_mode == "strict":
                raise
            self._quarantine(fp, path, str(e))
            STORE_STATS["misses"] += 1
            return None
        STORE_STATS["hits"] += 1
        STORE_STATS["disk_hits"] += 1
        if self.memtier is not None:
            self.memtier.put(fp, entries)
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
        return entries

    def _quarantine(self, fp: str, path: Path, reason: str) -> None:
        """Move a corrupt entry aside (atomic, keeps the evidence) so
        the next publish of this fingerprint heals it."""
        dest = self.quarantine_dir / f"{fp}.{os.getpid()}.quarantined"
        if self.memtier is not None:
            self.memtier.invalidate(fp)
        try:
            os.replace(path, dest)
        except OSError:
            # Even removal may fail (read-only FS); a corrupt entry we
            # cannot move will simply keep re-verifying. Still a miss.
            pass
        self._quarantined.add(fp)
        STORE_STATS["quarantined"] += 1
        try:
            self.journal.append(
                {"kind": "quarantine", "fp": fp, "reason": reason}
            )
        except OSError:
            STORE_STATS["io_errors"] += 1

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
        if fp in self._pending:
            return True  # already buffered; flush will make it durable
        path = self._entry_path(fp)
        if path.exists():
            if self.memtier is not None:
                self.memtier.put(fp, entries)
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
        if self.write_behind and multiprocessing.parent_process() is None:
            # Parent-only: a forked worker's buffer would die with its
            # process, losing a publish the parent believes happened.
            self._pending[fp] = (function, statuses, blob, entries)
        else:
            with _sigterm_held():
                try:
                    with_retries(
                        lambda: self._write_entry(path, fp, function, blob),
                        on_retry=lambda e: _bump("io_retries"),
                    )
                except OSError:
                    STORE_STATS["io_errors"] += 1
                    return False
                try:
                    self.journal.append(
                        {"kind": "entry", "fn": function, "fp": fp,
                         "statuses": statuses}
                    )
                except OSError:
                    STORE_STATS["io_errors"] += 1
        STORE_STATS["stores"] += 1
        self._published.add(fp)
        if self.memtier is not None:
            self.memtier.put(fp, entries)
        if fp in self._quarantined:
            self._quarantined.discard(fp)
            STORE_STATS["healed"] += 1
        return True

    def flush(self) -> int:
        """Drain the write-behind buffer: each entry file is made
        durable (tmp → fsync → rename → dir fsync), *then* its journal
        record is appended — so a journal record always implies a
        readable entry, and a SIGKILL mid-flush costs at most buffered
        publishes that no checkpoint acknowledged yet. Returns the
        number of entries flushed; a no-op on an empty buffer."""
        if not self._pending:
            return 0
        STORE_STATS["wb_flushes"] += 1
        flushed = 0
        while self._pending:
            fp, (function, statuses, blob, _entries) = \
                self._pending.popitem(last=False)
            path = self._entry_path(fp)
            if not path.exists():
                try:
                    with_retries(
                        lambda p=path, f=fp, fn=function, b=blob:
                            self._write_entry(p, f, fn, b),
                        on_retry=lambda e: _bump("io_retries"),
                    )
                except OSError:
                    STORE_STATS["io_errors"] += 1
                    continue
            try:
                self.journal.append(
                    {"kind": "entry", "fn": function, "fp": fp,
                     "statuses": statuses}
                )
            except OSError:
                STORE_STATS["io_errors"] += 1
            flushed += 1
        return flushed

    def pending(self) -> int:
        """Buffered (acknowledged-to-caller, not yet durable) publishes."""
        return len(self._pending)

    def _write_entry(
        self, path: Path, fp: str, function: str, blob: bytes
    ) -> None:
        faultinject.fire("store.write", function)
        blob = faultinject.corrupt("store.write", function, blob)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.tmp_dir / f"{fp}.{os.getpid()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, blob)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
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

    # -- run bookkeeping -----------------------------------------------------

    def begin_run(self, functions: list[str]) -> None:
        try:
            self.journal.append(
                {"kind": "run", "event": "begin", "functions": len(functions)}
            )
        except OSError:
            STORE_STATS["io_errors"] += 1

    def end_run(self) -> None:
        # The run checkpoint is a flush boundary: everything this run
        # acknowledged must be durable before the "end" record claims
        # the run completed.
        self.flush()
        try:
            self.journal.append({"kind": "run", "event": "end"})
        except OSError:
            STORE_STATS["io_errors"] += 1

    def resume_info(self) -> dict:
        """What the journal knows: published fingerprints, interrupted
        runs, and how many journal lines were torn/skipped."""
        completed = self.journal.completed_fingerprints()
        STORE_STATS["journal_bad_lines"] += self.journal.bad_lines
        return {
            "completed": completed,
            "interrupted_runs": self.journal.interrupted_runs(),
            "bad_lines": self.journal.bad_lines,
        }


def tier_kwargs_from_env(environ: Optional[dict] = None) -> dict:
    """The tiering constructor kwargs (``shards``, ``mem``,
    ``write_behind``) as configured by the ``REPRO_CACHE_*`` knobs.

    Shared by :meth:`ProofStore.from_env` and by callers that pick the
    store root themselves (the verification daemon) but still want the
    env-tuned hierarchy.
    """
    env = os.environ if environ is None else environ
    shards = _env_int(env, "REPRO_CACHE_SHARDS", None)
    if shards is not None and shards not in _SHARD_WIDTHS:
        warnings.warn(
            f"REPRO_CACHE_SHARDS={shards!r} is not one of "
            f"{sorted(_SHARD_WIDTHS)}; using the store default",
            RuntimeWarning,
            stacklevel=2,
        )
        shards = None
    mem = _env_int(env, "REPRO_CACHE_MEM", 256)
    return {
        "shards": shards,
        "mem": max(0, mem if mem is not None else 256),
        "write_behind": env.get("REPRO_CACHE_WB", "1") != "0",
    }


def _bump(key: str) -> None:
    STORE_STATS[key] += 1


@contextmanager
def _sigterm_held():
    """Defer SIGTERM across one entry's write and its journal record.
    A pool that loses a worker terminates the surviving workers; one
    caught between the two writes would leave an entry the journal
    never lists, so resume would report a finished function as
    unfinished. SIGKILL cannot be held: there the entry is still a
    valid cache hit, only unjournaled."""
    mask = getattr(signal, "pthread_sigmask", None)
    if mask is None:
        yield
        return
    old = mask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        yield
    finally:
        mask(signal.SIG_SETMASK, old)


def _env_int(env, key: str, default: Optional[int]) -> Optional[int]:
    """An integer env knob; a malformed value warns and falls back."""
    raw = env.get(key)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        warnings.warn(
            f"{key}={raw!r} is not an integer; using the default",
            RuntimeWarning,
            stacklevel=3,
        )
        return default
