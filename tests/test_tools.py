"""Smoke tests of the development tools under tools/."""

import contextlib
import io
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
    assert any(line.startswith("witnesses: ") for line in lines) and lines[-1] == "exceptions: 0"


def test_cone_census_draws_on_the_cube_root_bases(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from cone_census import BASES, draws

    from lacuna.poly_core import _divides, parse_poly

    p, _ = next(draws(1, BASES["cube"]))
    assert any(_divides(parse_poly(b).coeffs, p.coeffs) for b in BASES["cube"])
    cmd = [sys.executable, str(ROOT / "tools" / "cone_census.py"), "1", "1", "cube"]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    assert lines[0] == "seed 1: 1 inputs"
    assert sum(int(line.rsplit(": ", 1)[1]) for line in lines[1:] if " exposed=" in line) == 1
    assert lines[-1] == "exceptions: 0"


@pytest.mark.parametrize("seed", [1, 2])
def test_cone_census_leaves_nothing_undecided(seed):
    cmd = [sys.executable, str(ROOT / "tools" / "cone_census.py"), str(seed), "100"]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    assert "undecided: 0" in lines and lines[-1] == "exceptions: 0"


def test_report_fields_finds_a_checkout_identical_to_itself():
    cmd = [sys.executable, str(ROOT / "tools" / "report_fields.py"), str(ROOT), str(ROOT), "1"]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["identical"]


def test_report_fields_reads_a_norm_move_against_its_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from report_fields import compare

    def report(value, dim):
        return {"norm": {"value": value, "error_bound": 1e-12}, "dim_plus": dim}

    parent = {("w", "a"): report(1.0, 1), ("w", "b"): report(2.0, 1)}
    # a moves within its bound, b by 1e-9 > 1e-12, and b's dim_plus doubles
    change = {("w", "a"): report(1.0 + 1e-13, 1), ("w", "b"): report(2.0 + 1e-9, 2)}
    assert compare(parent, change) == [
        "dim_plus differs in 1/2 max |diff| 1 max rel 0.5",
        "norm.value differs in 2/2 max |diff| 1e-09 max rel 5e-10 beyond bound 1",
    ]
    assert compare(parent, parent) == ["identical in 2 reports"]


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
            assert fuzz.uncertified_steps(out) == 0, text
    assert families == set(fuzz.FAMILIES)


def test_ab_cases_builds_the_lacunary_family():
    cmd = [sys.executable, str(ROOT / "tools" / "ab_cases.py"), str(ROOT), str(ROOT),
           "lacunary", "--runs", "1", "--cases", "2"]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["k=2", "k=3", "all"]
    assert lines[-1].endswith("digests agree 2/2") and " 0.0/s" not in lines[-1]


def test_ab_cases_builds_the_cyclotomic_family():
    cmd = [sys.executable, str(ROOT / "tools" / "ab_cases.py"), str(ROOT), str(ROOT),
           "cyclotomic", "--runs", "1", "--cases", "2"]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["k=3", "all"]
    assert lines[-1].endswith("digests agree 2/2") and " 0.0/s" not in lines[-1]


def _bench_pairs():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


@pytest.mark.parametrize(
    "old,new,better,want",
    [
        (_PARENT, [x + 10 for x in _PARENT], "higher", "claim met"),
        # 9 of 10 pairs won is enough; 8 is not
        (_PARENT, [x + 10 for x in _PARENT[:9]] + [90.0], "higher", "claim met"),
        (_PARENT, [x + 10 for x in _PARENT[:8]] + [90.0, 90.0], "higher", "flat"),
        # every pair won, but by less than the parent's interquartile range
        (_PARENT, [x + 0.5 for x in _PARENT], "higher", "flat"),
        (_PARENT, [x * 0.7 for x in _PARENT], "higher", "worse"),
        (_PARENT, [x * 1.2 for x in _PARENT], "lower", "flat"),
        (_PARENT, [x * 1.3 for x in _PARENT], "lower", "worse"),
        (_PARENT, [x * 0.9 for x in _PARENT], "lower", "claim met"),
        # the parent spreads wider than the bound: no claim can be read
        ([50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0],
         [60.0, 160.0, 70.0, 150.0, 80.0, 140.0, 90.0, 130.0, 100.0, 120.0], "higher", "unresolved"),
    ],
)
def test_bench_pairs_verdict_reads_runs_as_the_benchmark_check_does(old, new, better, want):
    assert _bench_pairs().verdict(old, new, better, 0.24) == want


def _lacuna1(rep) -> dict:
    """The lacuna/1 document of a classify report, every fact written from
    the report's own objects."""
    from lacuna.cli_reports import _matrix_to_json, _vector_to_json, report_to_dict
    from lacuna.poly_core import poly_to_json

    doc = report_to_dict(rep)
    doc["schema"] = "lacuna/1"
    doc["factorization"]["cofactor"] = poly_to_json(rep.canonical.cofactor)
    doc["tilde"]["total_factor"] = poly_to_json(rep.canonical.disk_factor * rep.tilde.circle_factor)
    doc["tilde"]["reduced_cofactor"] = poly_to_json(rep.tilde.reduced_cofactor)
    doc["matrix_tilde"] = _matrix_to_json(rep.matrix_tilde, rep.kernel_tilde, "tilde")
    if rep.dim_plus is not None:  # plus_dimension returns dim_plus plus vectors
        doc["diagnostics"] = {**doc["diagnostics"], "plus_vectors_found": rep.dim_plus}
    doc["witnesses"] = [
        {"kind": w.kind, "vector": _vector_to_json(w.vector), "perturbation": poly_to_json(w.perturbation),
         "spectrum": list(w.spectrum), "step": None if w.step is None else str(w.step)}
        for w in rep.witnesses
    ]
    return doc


def test_to_lacuna1_rebuilds_every_report_byte_for_byte(monkeypatch):
    # the seed-1 reports of both workloads, census and corpus included, and
    # the OUTSIDE inputs of tools/report_digests.py
    import itertools
    import json

    import lacuna
    from lacuna.cli_reports import main, report_to_dict

    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import report_digests
    from perfbench import cases
    from to_lacuna1 import to_lacuna1

    def dump(doc):
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    outside = (("outside", case) for case in report_digests.outside_cases(lacuna, cases))
    seen = {"reports": 0, "matrix_tilde": 0, "witness": 0, "plusdim": 0}
    for _, case in itertools.chain(report_digests.workload_cases(cases, ROOT, 1), outside):
        if case.kind == "plusdim":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["plusdim", json.dumps(case.source)]) == 0
            doc = json.loads(out.getvalue())
            assert to_lacuna1(doc) == {**doc, "schema": "lacuna/1"}
            seen["plusdim"] += 1
            continue
        try:
            rep = report_digests.classify_case(lacuna, case)
        except lacuna.LacunaError:
            continue
        doc = report_to_dict(rep)
        assert dump(to_lacuna1(doc)) == dump(_lacuna1(rep)), case.id
        assert to_lacuna1(to_lacuna1(doc)) == to_lacuna1(doc)
        if doc["dim_plus"] is not None:  # an older lacuna/2 document still wrote the count
            older = {**doc, "diagnostics": {**doc["diagnostics"], "plus_vectors_found": doc["dim_plus"]}}
            assert to_lacuna1(older) == to_lacuna1(doc)
        seen["reports"] += 1
        seen["matrix_tilde"] += doc["matrix_tilde"] == {"same_as": "matrix"}
        seen["witness"] += any("same_as" in w for w in doc["witnesses"])
    # both shortened forms occur, and so do the full ones
    assert seen["reports"] > seen["matrix_tilde"] > 0 and seen["witness"] > 0 and seen["plusdim"] > 0, seen
