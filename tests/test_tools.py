"""Smoke tests of the development tools under tools/."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_ab_cases_compares_a_checkout_with_itself():
    cmd = [sys.executable, str(ROOT / "tools" / "ab_cases.py"), str(ROOT), str(ROOT),
           "exact_circle", "--runs", "1", "--cases", "2"]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    assert lines[-1].startswith("all") and lines[-1].endswith("digests agree 2/2")
    assert all(" parent " in line and " change " in line for line in lines)


def test_cone_census_reports_three_draws():
    cmd = [sys.executable, str(ROOT / "tools" / "cone_census.py"), "1", "3"]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    assert lines[0] == "seed 1: 3 inputs"
    counts = [int(line.rsplit(": ", 1)[1]) for line in lines[1:] if " exposed=" in line]
    assert sum(counts) == 3
    assert "witnesses: exact" in "\n".join(lines) and lines[-1] == "exceptions: 0"


@pytest.mark.parametrize("seed", [1, 2])
def test_cone_census_leaves_nothing_undecided(seed):
    cmd = [sys.executable, str(ROOT / "tools" / "cone_census.py"), str(seed), "100"]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    assert "undecided: 0" in lines and lines[-1] == "exceptions: 0"


def test_report_fields_finds_a_checkout_identical_to_itself():
    cmd = [sys.executable, str(ROOT / "tools" / "report_fields.py"), str(ROOT), str(ROOT), "1"]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [["exact", "identical"]]


def test_fuzz_raises_only_lacuna_errors_and_witnesses_every_non_extreme_verdict():
    import importlib.util

    from lacuna import LacunaError

    spec = importlib.util.spec_from_file_location("fuzz_classify", ROOT / "tools" / "fuzz_classify.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    families = set()
    for family, text, pattern, out in fuzz.outcomes(1, 300):
        families.add(family)
        if isinstance(out, Exception):
            assert isinstance(out, LacunaError), (text, pattern.N, pattern.forbidden, out)
        elif out.extreme is False:
            assert sorted(w.kind for w in out.witnesses) == ["non_exposed", "non_extreme"], text
    assert families == set(fuzz.FAMILIES)


def test_ab_cases_builds_the_lacunary_family():
    cmd = [sys.executable, str(ROOT / "tools" / "ab_cases.py"), str(ROOT), str(ROOT),
           "lacunary", "--runs", "1", "--cases", "2"]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["k=2", "k=3", "all"]
    assert lines[-1].endswith("digests agree 2/2") and " 0.0/s" not in lines[-1]
