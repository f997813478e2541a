"""``scripts/reprod.py`` refuses bad time flags before it starts."""

import os
import subprocess
import sys

import pytest

from tests.service.conftest import REPO


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
