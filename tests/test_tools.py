"""Smoke tests of the development tools under tools/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_cases_compares_a_checkout_with_itself():
    cmd = [sys.executable, str(ROOT / "tools" / "ab_cases.py"), str(ROOT), str(ROOT),
           "exact_circle", "--runs", "1", "--cases", "2"]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    assert lines[-1].startswith("all") and lines[-1].endswith("digests agree 2/2")
    assert all(" parent " in line and " change " in line for line in lines)
