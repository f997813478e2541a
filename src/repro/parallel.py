"""Process-pool fan-out for per-function verification jobs.

Functions are verified independently (the compositionality that the
paper's per-function specs buy us), so per-function jobs parallelise
embarrassingly. The pool uses the ``fork`` start method: workers
inherit the program graph, ownable registry and solver from the parent
address space, so only the task keys (function names — strings) and
the results (picklable dataclasses; terms re-intern on unpickle via
``Term.__reduce__``) ever cross the pipe. On platforms without
``fork`` the fan-out silently degrades to the serial path.

``jobs=1`` bypasses the pool entirely, preserving the serial code path
— and therefore report ordering and determinism — bit for bit.

Fault tolerance (the degradation ladder, outermost rung first):

1. a worker that *raises* delivers its exception through the future;
   it is collected per-future (never unwinding the whole fan-out) and
   mapped through ``on_error`` — the other futures keep their results;
2. a worker that *dies* (``os._exit``, segfault, OOM kill) breaks the
   pool: every undelivered future is cancelled, and the affected items
   are retried **serially in the parent** (bounded attempts with
   backoff) — transient crashes recover, deterministic ones surface
   as :class:`~repro.errors.WorkerCrashed` through ``on_error``;
3. a re-entrant ``fanout`` call while a pool is live (fork-inherited
   ``_PAYLOAD`` would be clobbered) is detected and falls back to the
   serial path.

Without ``on_error`` the first failure re-raises after all futures are
drained (legacy behaviour, still loss-free for completed siblings).

Items are submitted one future each, so idle workers pull the next
queued item on demand; callers that want longest-first dispatch order
their ``items`` before calling.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import time
import warnings
import zlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from repro import faultinject
from repro.errors import WorkerCrashed
from repro.obs import merge_worker_delta, worker_begin, worker_delta
from repro.obs.metrics import metrics

T = TypeVar("T")
R = TypeVar("R")

#: Payload handed to workers by fork inheritance (never pickled).
_PAYLOAD = None

#: True while a pool is live; guards ``_PAYLOAD`` against re-entrancy.
_ACTIVE = False

#: Fault/retry counters, surfaced in ``HybridReport.render()`` and
#: perfbench's per-layer metrics so a degraded run is visible.
PARALLEL_STATS = metrics.register_legacy(
    "parallel",
    {
        "fanouts": 0,
        "worker_failures": 0,
        "broken_pools": 0,
        "cancelled_futures": 0,
        "serial_retries": 0,
        "serial_fallbacks": 0,
    },
)


def cgroup_cpu_quota(root: str = "/sys/fs/cgroup") -> Optional[int]:
    """The container's effective CPU limit from its cgroup quota
    (ceil(quota / period)), or ``None`` when unlimited or unreadable.
    Reads v2 ``cpu.max`` first (``"max 100000"`` = unlimited,
    ``"200000 100000"`` = 2 CPUs), then the v1 pair
    ``cpu/cpu.cfs_quota_us`` / ``cpu/cpu.cfs_period_us`` (quota ``-1``
    = unlimited)."""
    try:
        with open(os.path.join(root, "cpu.max")) as fh:
            quota_s, _, period_s = fh.read().strip().partition(" ")
        if quota_s != "max":
            quota, period = int(quota_s), int(period_s or 100000)
            if quota > 0 and period > 0:
                return max(1, math.ceil(quota / period))
        return None
    except (OSError, ValueError):
        pass
    try:
        with open(os.path.join(root, "cpu", "cpu.cfs_quota_us")) as fh:
            quota = int(fh.read().strip())
        with open(os.path.join(root, "cpu", "cpu.cfs_period_us")) as fh:
            period = int(fh.read().strip())
        if quota > 0 and period > 0:
            return max(1, math.ceil(quota / period))
    except (OSError, ValueError):
        pass
    return None


def default_jobs() -> int:
    """``REPRO_JOBS`` env var, else the CPU count capped by the cgroup
    CPU quota — a container granted 2 CPUs on a 64-core host forks 2
    workers, not 64 (oversubscribed forks thrash instead of scale)."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            jobs = 0
        if jobs > 0:
            return jobs
        warnings.warn(
            f"REPRO_JOBS={env!r} is not a positive integer; "
            "falling back to the CPU count",
            RuntimeWarning,
            stacklevel=2,
        )
    cpus = os.cpu_count() or 1
    quota = cgroup_cpu_quota()
    return min(cpus, quota) if quota else cpus


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _invoke(fn: Callable, idx: int, item) -> tuple:
    """Worker-side wrapper: runs one item and ships the observability
    delta (counters, trace events, phase times, slow queries) recorded
    while running it back with the result, so the parent's merged view
    of a ``jobs=N`` run is as complete as a serial run's. A worker that
    raises or dies loses its delta — acceptable: the parent's serial
    retry re-counts the work it redoes."""
    faultinject.fire("parallel.worker", str(item))
    mark = worker_begin()
    result = fn(_PAYLOAD, item)
    return idx, result, worker_delta(mark)


def fanout(
    fn: Callable,
    payload,
    items: Iterable[T],
    jobs: Optional[int],
    on_error: Optional[Callable[[T, BaseException], R]] = None,
    crash_retries: int = 2,
    backoff: float = 0.05,
) -> list:
    """Run ``fn(payload, item)`` for every item; results in item order.

    ``fn`` must be a module-level function (pickled by reference);
    ``payload`` may be arbitrarily unpicklable — it reaches workers via
    fork inheritance. ``jobs=None`` means :func:`default_jobs`.

    ``on_error(item, exc) -> result`` maps a failed item to a stand-in
    result instead of raising, so callers can degrade one entry while
    keeping the rest of the report. Items lost to a broken pool are
    first retried serially in the parent (``crash_retries`` attempts,
    jittered exponential ``backoff``); only a retry-proof failure reaches
    ``on_error`` (as :class:`WorkerCrashed`).
    """
    global _PAYLOAD, _ACTIVE
    items = list(items)
    if jobs is None:
        jobs = default_jobs()
    serial = jobs <= 1 or len(items) <= 1 or not fork_available()
    if not serial and _ACTIVE:
        # Re-entrant fan-out (e.g. a worker-side callee fanning out
        # again after fork): the live pool owns _PAYLOAD; clobbering it
        # would hand other workers the wrong closure. Degrade serially.
        PARALLEL_STATS["serial_fallbacks"] += 1
        serial = True
    if serial:
        return [_call_serial(fn, payload, it, on_error) for it in items]
    PARALLEL_STATS["fanouts"] += 1
    ctx = multiprocessing.get_context("fork")
    _PAYLOAD = payload
    _ACTIVE = True
    out: list = [None] * len(items)
    lost: list[int] = []  # indices whose future died with the pool
    first_failure: Optional[BaseException] = None
    try:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(items)), mp_context=ctx
        ) as pool:
            futures = [
                pool.submit(_invoke, fn, i, it) for i, it in enumerate(items)
            ]
            broken = False
            for i, fut in enumerate(futures):
                if broken:
                    # The pool is gone; don't block on futures that can
                    # never complete — cancel and queue for retry.
                    if fut.cancel():
                        PARALLEL_STATS["cancelled_futures"] += 1
                        lost.append(i)
                        continue
                try:
                    idx, result, delta = fut.result()
                    out[idx] = result
                    merge_worker_delta(delta)
                except BrokenProcessPool:
                    if not broken:
                        broken = True
                        PARALLEL_STATS["broken_pools"] += 1
                    lost.append(i)
                except Exception as e:
                    # One worker's exception must not unwind the fan-out:
                    # record it, keep draining the siblings' results.
                    PARALLEL_STATS["worker_failures"] += 1
                    if on_error is not None:
                        out[i] = on_error(items[i], e)
                    elif first_failure is None:
                        first_failure = e
    finally:
        _PAYLOAD = None
        _ACTIVE = False
    for i in lost:
        out[i] = _retry_serial(
            fn, payload, items[i], on_error, crash_retries, backoff
        )
    if first_failure is not None:
        raise first_failure
    return out


def jitter_seed(key) -> int:
    """Deterministic per-key jitter seed (CRC over the repr, xor'd with
    the pid): two workers retrying the *same* item in *different*
    processes draw different jitter — the de-synchronisation that
    prevents a thundering herd — while any single (process, item) pair
    replays the exact same schedule, keeping tests pinnable."""
    return zlib.crc32(repr(key).encode()) ^ os.getpid()


def backoff_schedule(
    attempts: int,
    base: float = 0.02,
    factor: float = 2.0,
    cap: float = 1.0,
    jitter: float = 0.5,
    seed: int = 0,
) -> list[float]:
    """The sleep before each retry of a bounded-retry loop.

    Retry ``k`` (1-based) sleeps ``min(cap, base * factor**(k-1))``
    stretched by a seeded jitter factor in ``[1, 1+jitter)`` — i.e.
    exponential backoff with deterministic multiplicative jitter.
    Exponential, so a burst of workers that all lost the same pool
    spread out instead of re-hitting the store in lockstep; seeded, so
    a given ``seed`` always yields the same schedule (the unit tests
    pin the exact values). Returns ``attempts - 1`` sleeps (the first
    attempt never waits)."""
    rng = random.Random(seed)
    out = []
    for k in range(max(0, attempts - 1)):
        delay = min(cap, base * factor**k)
        out.append(delay * (1.0 + jitter * rng.random()))
    return out


def with_retries(
    fn: Callable[[], R],
    attempts: int = 3,
    backoff: float = 0.02,
    exceptions: tuple = (OSError,),
    on_retry: Optional[Callable[[BaseException], None]] = None,
    seed: Optional[int] = None,
) -> R:
    """Run ``fn()`` with bounded retries and exponential backoff plus
    seeded jitter (:func:`backoff_schedule`; ``backoff`` is the base of
    the exponential, ``seed=None`` derives one from the pid).

    The proof store publishes through this from pool workers and the
    parent alike, so a transient I/O error (EAGAIN, a full fd table, an
    NFS hiccup) costs a retry, not a lost proof — and many workers
    retrying after a shared failure fan out over jittered exponential
    delays instead of thundering back in lockstep. The final failure
    re-raises — callers decide whether losing the side effect is fatal
    (for cache writes it never is)."""
    sleeps = backoff_schedule(
        max(1, attempts),
        base=backoff,
        seed=jitter_seed("with_retries") if seed is None else seed,
    )
    last: Optional[BaseException] = None
    for attempt in range(max(1, attempts)):
        if attempt:
            time.sleep(sleeps[attempt - 1])
        try:
            return fn()
        except exceptions as e:
            last = e
            if on_retry is not None:
                on_retry(e)
    assert last is not None
    raise last


def _call_serial(fn, payload, item, on_error):
    if on_error is None:
        return fn(payload, item)
    try:
        return fn(payload, item)
    except Exception as e:
        return on_error(item, e)


def _retry_serial(fn, payload, item, on_error, retries: int, backoff: float):
    """Re-run an item lost to a broken pool, in the parent process.
    Sleeps follow the jittered exponential schedule, seeded per item —
    many parents retrying different items after a shared pool crash
    don't re-hit the store at the same instants."""
    last: BaseException = WorkerCrashed(
        f"worker processing {item!r} died before returning a result"
    )
    sleeps = backoff_schedule(
        max(1, retries), base=backoff, seed=jitter_seed(item)
    )
    for attempt in range(max(1, retries)):
        if attempt:
            time.sleep(sleeps[attempt - 1])
        PARALLEL_STATS["serial_retries"] += 1
        try:
            return fn(payload, item)
        except Exception as e:
            last = e
    if on_error is not None:
        if not isinstance(last, WorkerCrashed):
            last = WorkerCrashed(
                f"worker for {item!r} died and serial retry failed: {last}"
            )
        return on_error(item, last)
    raise last
