"""Run ``scripts/reprod.py`` with the benchmark's tracer installed.

Usage::

    python perfbench/launch_daemon.py --trace-dir DIR [reprod.py arguments]

The wrappers go in before ``VerifierDaemon`` starts, so every request
the daemon serves is traced; its spans are written to ``DIR`` when the
daemon exits.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPROD = os.path.join(ROOT, "scripts", "reprod.py")


def main() -> int:
    if sys.argv[1:2] != ["--trace-dir"] or len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = Tracer(sys.argv[2])
    tracer.ctx = "setup"
    tracer.install()
    tracer.add("lang.import", STARTED, time.perf_counter())
    sys.argv = [REPROD, *sys.argv[3:]]
    try:
        runpy.run_path(REPROD, run_name="__main__")
    except SystemExit as e:
        return e.code or 0
    finally:
        tracer.write()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
