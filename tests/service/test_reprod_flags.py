"""``scripts/reprod.py`` refuses bad time and count flags before it
starts."""

import os
import subprocess
import sys

import pytest

from repro.service.config import ServiceConfig

from tests.service.conftest import REPO


def _assert_refused(tmp_path, flag, value):
    proc = subprocess.run(
        [
            sys.executable, str(REPO / "scripts" / "reprod.py"),
            "--socket", str(tmp_path / "reprod.sock"),
            f"{flag}={value}",
        ],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert flag in proc.stderr
    assert "listening" not in proc.stdout
    assert not (tmp_path / "reprod.sock").exists()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--deadline", "nan"),
        ("--deadline", "0"),
        ("--drain-timeout", "-1"),
        ("--watchdog", "inf"),
    ],
)
def test_bad_time_flag_exits_2(tmp_path, flag, value):
    _assert_refused(tmp_path, flag, value)


@pytest.mark.parametrize(
    "flag, value",
    [("--jobs", "0"), ("--queue-bound", "0")],
)
def test_bad_count_flag_exits_2(tmp_path, flag, value):
    _assert_refused(tmp_path, flag, value)


@pytest.mark.parametrize("field", ["jobs", "queue_bound"])
def test_config_refuses_non_positive_counts(field):
    # A queue bound of 0 would make the admission queue unbounded.
    with pytest.raises(ValueError, match=field):
        ServiceConfig(**{field: 0})
