"""The single timing authority for the whole stack.

Every module that measures time imports these two names instead of
reaching for :mod:`time` directly, so the choice of clock is made in
exactly one place and is auditable:

* :func:`now` — the high-resolution *duration* clock
  (``time.perf_counter``): monotonic, sub-microsecond, the right clock
  for span timing and elapsed-time reporting;
* :func:`monotonic` — the *deadline* clock (``time.monotonic``):
  monotonic and slewed rather than stepped under NTP adjustments, the
  right clock for budgets and resume accounting that must never move
  backwards.

(Both ``perf_counter`` and ``monotonic`` read ``CLOCK_MONOTONIC`` on
Linux, so timestamps taken with :func:`now` are comparable across a
``fork`` — forked pool workers and the parent share one timeline.)
"""

from __future__ import annotations

import time

#: Duration clock: monotonic, highest available resolution.
now = time.perf_counter

#: Deadline clock: monotonic, immune to wall-clock steps.
monotonic = time.monotonic
