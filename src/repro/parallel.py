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

The caller sees each result in its own process the moment it arrives
(``on_result``), so the side effects of a result — the proof store's
publish — happen in the parent alone; workers only compute.

Fault tolerance (the degradation ladder, outermost rung first):

1. a worker that *raises* delivers its exception through the future;
   it is collected per-future (never unwinding the whole fan-out) and
   mapped through ``on_error`` — the other futures keep their results;
2. a worker that *dies* (``os._exit``, segfault, OOM kill) breaks the
   pool: every undelivered future is cancelled, and the affected items
   run once more, **serially in the parent** — a crash confined to the
   worker recovers, one that recurs in the parent surfaces as
   :class:`~repro.errors.WorkerCrashed` through ``on_error``. The
   items a windowed fan-out had not yet handed out then go to one
   replacement pool; only if that one breaks too do they run serially
   in the parent;
3. a re-entrant ``fanout`` call while a pool is live (fork-inherited
   ``_PAYLOAD`` would be clobbered) is detected and falls back to the
   serial path.

Items are submitted one future each, so idle workers pull the next
queued item on demand; callers that want longest-first dispatch order
their ``items`` before calling. With a ``stop`` hook the fan-out is
windowed instead: at most ``jobs`` items in flight, the hook asked
before each hand-out.

Each worker runs its item inside an observation window
(:class:`repro.obs.trace.window`) and ships the window's delta back
with the result; the parent folds it in (:func:`repro.obs.merge`), so
the counters, phases and slow queries of a ``jobs=N`` run are as
complete as a serial run's.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
import zlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Optional, TypeVar

from repro import faultinject, obs
from repro.errors import WorkerCrashed
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


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _invoke(fn: Callable, item) -> tuple:
    """Worker-side wrapper: runs one item inside an observation window
    and ships the window's delta back with the result. A worker that
    raises or dies loses its delta; the parent's serial run of an item
    lost to a dead worker counts in the parent."""
    faultinject.fire("parallel.worker", str(item))
    with obs.window() as seen:
        result = fn(_PAYLOAD, item)
    return result, seen.delta


def fanout(
    fn: Callable,
    payload,
    items: Iterable[T],
    jobs: int,
    on_error: Callable[[T, BaseException], R],
    *,
    on_result: Optional[Callable[[T, R], None]] = None,
    stop: Optional[Callable[[], Optional[str]]] = None,
) -> list:
    """Run ``fn(payload, item)`` for every item handed out; results in
    item order.

    ``fn`` must be a module-level function (pickled by reference);
    ``payload`` may be arbitrarily unpicklable — it reaches workers via
    fork inheritance.

    ``on_error(item, exc) -> result`` maps a failed item to a stand-in
    result, so callers can degrade one entry while keeping the rest.
    Items lost to a broken pool run once more, serially in this
    process; only a failure there reaches ``on_error`` (as
    :class:`WorkerCrashed`). Items not yet handed out when a pool
    breaks go to one replacement pool, and after a second break run
    serially here.

    ``on_result(item, result)`` sees every result (stand-ins included)
    in this process as soon as it arrives, in completion order.

    ``stop() -> reason | None`` is called before each item is handed
    out, with at most ``jobs`` items in flight; after the first reason
    nothing more is handed out, and the items in flight finish. The
    returned list then covers the items handed out — a prefix of
    ``items``. Without ``stop`` every item is submitted at once.
    """
    global _PAYLOAD, _ACTIVE
    items = list(items)
    out: list = [None] * len(items)
    handed = 0  # items[:handed] have been handed out
    halted = False

    def hand_out() -> Optional[int]:
        """The next item's index; ``None`` once there is none or the
        stop hook gave a reason."""
        nonlocal handed, halted
        if halted or handed == len(items) or (stop is not None and stop()):
            halted = True
            return None
        handed += 1
        return handed - 1

    def deliver(i: int, result) -> None:
        out[i] = result
        if on_result is not None:
            on_result(items[i], result)

    def run_serially(indices: Iterable[int], crashed: bool) -> None:
        for i in indices:
            if crashed:
                PARALLEL_STATS["serial_retries"] += 1
            try:
                result = fn(payload, items[i])
            except Exception as e:
                if crashed and not isinstance(e, WorkerCrashed):
                    e = WorkerCrashed(
                        f"worker for {items[i]!r} died and its serial run "
                        f"failed: {e}"
                    )
                result = on_error(items[i], e)
            deliver(i, result)

    serial = jobs <= 1 or len(items) <= 1 or not fork_available()
    if not serial and _ACTIVE:
        # Re-entrant fan-out (e.g. a worker-side callee fanning out
        # again after fork): the live pool owns _PAYLOAD; clobbering it
        # would hand other workers the wrong closure. Degrade serially.
        PARALLEL_STATS["serial_fallbacks"] += 1
        serial = True
    if not serial:
        PARALLEL_STATS["fanouts"] += 1
    # A broken pool is replaced once; after a second break the rest
    # runs in the serial tail.
    pools = 0 if serial else 2
    while pools and not halted and handed < len(items):
        pools -= 1
        lost: list[int] = []  # indices whose future died with the pool
        _PAYLOAD = payload
        _ACTIVE = True
        try:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(items) - handed),
                mp_context=multiprocessing.get_context("fork"),
            ) as pool:
                running: dict = {}  # future -> item index
                while True:
                    while (
                        not lost
                        and (stop is None or len(running) < jobs)
                        and (i := hand_out()) is not None
                    ):
                        running[pool.submit(_invoke, fn, items[i])] = i
                    if not running:
                        break
                    done, _ = wait(running, return_when=FIRST_COMPLETED)
                    for fut in done:
                        i = running.pop(fut)
                        try:
                            result, delta = fut.result()
                        except BrokenProcessPool:
                            # The pool is gone: don't wait on futures
                            # that can never complete — cancel what has
                            # not started; everything lost runs serially
                            # below.
                            if not lost:
                                PARALLEL_STATS["broken_pools"] += 1
                                for other in list(running):
                                    if other.cancel():
                                        PARALLEL_STATS["cancelled_futures"] += 1
                                        lost.append(running.pop(other))
                            lost.append(i)
                            continue
                        except Exception as e:
                            # One worker's exception must not unwind the
                            # fan-out: degrade its item, keep the others.
                            PARALLEL_STATS["worker_failures"] += 1
                            result = on_error(items[i], e)
                        else:
                            obs.merge(delta)
                        deliver(i, result)
        finally:
            _PAYLOAD = None
            _ACTIVE = False
        # What the pool lost runs in this process, ahead of anything
        # not yet handed out.
        run_serially(sorted(lost), crashed=True)
    run_serially(iter(hand_out, None), crashed=False)
    return out[:handed]


def jitter_seed(key) -> int:
    """Deterministic per-key jitter seed (CRC over the repr, xor'd with
    the pid): two processes retrying the *same* operation draw
    different jitter — the de-synchronisation that
    prevents a thundering herd — while any single (process, key) pair
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
    Exponential, so a burst of processes that all failed at once
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

    The proof store reads and publishes through this, so a transient
    I/O error (EAGAIN, a full fd table, an NFS hiccup) costs a retry,
    not a lost proof — and many processes sharing a store and retrying
    after a shared failure fan out over jittered exponential delays
    instead of thundering back in lockstep. The final failure
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
