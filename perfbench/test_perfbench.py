"""Tests of the benchmark itself: inputs, expectations, statistics, tracing.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import random
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import lacuna
import lacuna.cli_reports  # noqa: F401  (imported so the tracer wraps it)
from lacuna import classify_full_space, parse_poly
from perfbench import harness
from perfbench.cases import (
    NO_NO,
    WORKLOADS,
    YES_NO,
    YES_YES,
    Case,
    circle_family,
    make_cases,
    make_census,
    planted_pair,
)
from perfbench.tracing import ROOT, Tracer, layer_metrics, self_times

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert make_cases(workload, 7, CORPUS) == make_cases(workload, 7, CORPUS)
    assert make_census(workload, CORPUS) == make_census(workload, CORPUS)


def test_seed_changes_the_random_inputs():
    a = {c.source for c in make_cases("exact_generic", 1, CORPUS)}
    b = {c.source for c in make_cases("exact_generic", 2, CORPUS)}
    assert a.isdisjoint(b)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_seed_gives_the_same_mix(workload):
    def mix(cases):
        return sorted((c.family, c.N) for c in cases)

    assert mix(make_cases(workload, 1, CORPUS)) == mix(make_cases(workload, 5, CORPUS))


def test_inputs_carry_no_seed():
    cases = make_cases("exact_generic", 12345, CORPUS)
    assert all("12345" not in repr(c.source) for c in cases)


def test_census_is_disjoint_from_timed_cases():
    census = {c.id for c in make_census("exact_circle", CORPUS)}
    assert census == {
        "circle_gap-(1 + z^3)^4", "circle_gap-(1 - z^3)^4",
        "circle_gap-(1 + z^3)^5", "circle_gap-(1 - z^3)^5",
    }
    assert not {c.id for c in make_cases("exact_circle", 0, CORPUS)} & census


# ---------------------------------------------------------------------------
# expectations, hand-checked
# ---------------------------------------------------------------------------


def test_planted_pair_has_the_reflected_zeros():
    cs, text = planted_pair(random.Random(3), 10)
    assert parse_poly(text).deg == 10
    roots = np.roots(np.array(cs[::-1]))
    # some root a and its reflection 1/conj(a) are both zeros
    refl = 1.0 / np.conj(roots)
    gaps = np.abs(roots[:, None] - refl[None, :])
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() < 1e-8


@pytest.mark.parametrize("text", ["(1 - z^2)^2", "(1 + z)^3", "(1 - z^3)^2"])
def test_circle_family_expectation_matches_full_space_route(text):
    fs = classify_full_space(text)
    assert (fs.extreme, fs.exposed) == (YES_NO["extreme"], YES_NO["exposed"])


def test_gapped_family_member_matches_the_corpus_example():
    # corpus/double_circle.json: (1 - z^2)^2 with pattern 4:1,3
    gapped = [c for _, _, c in circle_family() if c.id == "circle_gap-(1 - z^2)^2"]
    res = harness.run_case(gapped[0], lacuna, limit=30.0)
    assert res.outcome == harness.DECIDED


@pytest.mark.parametrize(
    "case",
    [
        Case("g", "generic", "classify", "[[3,1],[0,0],[1,-2],[0,0],[2,2]]", 4, (1, 3), expect=YES_YES),
        Case("p", "planted", "classify", "(z - 1/2)(1 - z/2)", 2, (), expect=NO_NO),
        Case("c", "circle", "classify", "(1 + z)^2", 2, (), expect=YES_NO),
    ],
    ids=lambda c: c.id,
)
def test_hand_checked_cases_are_decided_ok(case):
    res = harness.run_case(case, lacuna, limit=30.0)
    assert res.outcome == harness.DECIDED, res.detail


def test_wrong_expectation_is_reported_as_wrong():
    case = Case("p", "planted", "classify", "(z - 1/2)(1 - z/2)", 2, (), expect=YES_YES)
    res = harness.run_case(case, lacuna, limit=30.0)
    assert res.outcome == "wrong"
    assert "extreme" in res.detail


def test_corpus_jobs_pass_against_their_own_expectations():
    corpus = [c for c in make_cases("exact_circle", 0, CORPUS) if c.family == "corpus"]
    assert len(corpus) == 9
    for case in corpus:
        assert harness.run_case(case, lacuna, limit=30.0).outcome == harness.DECIDED, case.id


# ---------------------------------------------------------------------------
# outcomes and statistics
# ---------------------------------------------------------------------------


def _fake_program(parse):
    return types.SimpleNamespace(poly_core=types.SimpleNamespace(parse_poly=parse))


def test_case_over_its_limit_is_stopped_as_timeout():
    t0 = time.perf_counter()
    res = harness.run_case(Case("slow", "generic", "classify", "z"), _fake_program(lambda s: time.sleep(5)),
                           limit=0.05)
    assert res.outcome == "timeout"
    assert time.perf_counter() - t0 < 2.0


def test_program_exception_becomes_an_error_outcome():
    def boom(s):
        raise ZeroDivisionError("x")

    res = harness.run_case(Case("e", "generic", "classify", "z"), _fake_program(boom), limit=5.0)
    assert res.outcome == "error:ZeroDivisionError"


def test_percentile_is_a_harrell_davis_estimate():
    assert harness.percentile([5.0], 0.8) == pytest.approx(5.0)
    # symmetric samples: the median estimate is the centre
    assert harness.percentile([1, 2, 3, 4, 5, 6, 7, 8, 9], 0.5) == pytest.approx(5.0, abs=1e-6)
    # many samples: close to the order statistic
    xs = list(np.linspace(0.0, 1.0, 2001))
    assert harness.percentile(xs, 0.8) == pytest.approx(0.8, abs=2e-3)
    assert harness.percentile(xs, 0.5) < harness.percentile(xs, 0.8)


def test_failures_count_at_the_limit_in_percentiles():
    case = Case("x", "generic", "classify", "z")
    ok = [harness.Result(case, harness.DECIDED, 0.1 * i) for i in range(1, 9)]
    bad = [harness.Result(case, "timeout", 9.0), harness.Result(case, "error:SolverStalled", 0.01)]
    samples = harness.latency_samples(ok + bad, limit=3.0)
    assert sorted(samples)[-2:] == [3.0, 3.0]
    as_timed = [r.seconds for r in ok] + [0.9, 0.95]
    assert harness.percentile(samples, 0.8) > harness.percentile(as_timed, 0.8) + 0.5


def test_best_of_takes_the_fastest_repetition_unless_one_failed():
    case = Case("x", "generic", "classify", "z")
    fast = harness.Result(case, harness.DECIDED, 0.1)
    slow = harness.Result(case, harness.DECIDED, 0.3)
    stalled = harness.Result(case, "error:SolverStalled", 0.2)
    assert harness.best_of([slow, fast]) is fast
    assert harness.best_of([fast, stalled, slow]) is stalled


def test_byte_instability_marks_the_case_wrong():
    case = Case("x", "generic", "classify", "z")
    check = harness.StabilityCheck({harness.case_key(case): "a" * 64})
    res = harness.Result(case, harness.DECIDED, 0.1, digest="b" * 64)
    check.apply(res)
    assert res.outcome == "wrong" and check.mismatches == 1


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def _bindings():
    mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "lacuna"]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_wrappers_cover_every_caller_binding_and_are_restored():
    before = _bindings()
    tracer = Tracer(lacuna)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            # the names callers use, besides the defining module's own
            for mod, name, defining in (
                (lacuna.classifier, "canonical_factorization", lacuna.factorization),
                (lacuna.factorization, "find_zeros", lacuna.circle_analysis),
                (lacuna.circle_analysis, "find_zeros", lacuna.circle_analysis),
                (lacuna.poly_core, "gcd_exact", lacuna.poly_core),
                (lacuna, "classify", lacuna.classifier),
            ):
                original = before[(defining.__name__, name)]
                assert getattr(mod, name) is not original
                assert getattr(mod, name).__wrapped__ is original
            raise RuntimeError("leave the block by an exception")
    assert _bindings() == before


def test_self_times_sum_to_the_traced_case_time():
    case = Case("p", "planted", "classify", "(z - 1/2)(1 - z/2)(1 + z^3)", 5, (), expect=NO_NO)
    tracer = Tracer(lacuna)
    with tracer.installed():
        with tracer.case(case.id):
            res = harness.run_case(case, lacuna, limit=30.0)
    assert res.outcome == harness.DECIDED, res.detail
    spans = tracer.spans
    root = [s for s in spans if s.name == ROOT]
    assert len(root) == 1 and all(s.case == case.id for s in spans)
    resolution = time.get_clock_info("perf_counter").resolution
    assert sum(self_times(spans)) == pytest.approx(root[0].end - root[0].start, abs=len(spans) * resolution + 1e-12)
    by_id = {s.id: s for s in spans}
    # square_free_decomposition calls gcd_exact as a module global
    assert any(by_id[s.parent].name == "poly_core.square_free_decomposition"
               for s in spans if s.name == "poly_core.gcd_exact")
    m = layer_metrics(spans, 1)
    assert m["circle_analysis.find_zeros.calls"][0] == 3
    assert m["classifier.witness.accept_frac"][0] > 0
    assert m["poly_core.parse_poly.s"][0] > 0


def test_failed_calls_are_counted_by_exception_class(monkeypatch):
    def ill_conditioned(p, eps_circle=1e-8):
        raise lacuna.errors.IllConditionedZeros("stub")

    def stalled(*args, **kwargs):
        raise lacuna.errors.SolverStalled("stub")

    monkeypatch.setattr(lacuna.circle_analysis, "find_zeros", ill_conditioned)
    monkeypatch.setattr(lacuna.plus_cone, "find_plus_in_slice", stalled)
    tracer = Tracer(lacuna)
    with tracer.installed((("circle_analysis", "find_zeros"), ("plus_cone", "find_plus_in_slice"))):
        with tracer.case("stub"):
            for call in (lacuna.circle_analysis.find_zeros, lacuna.plus_cone.find_plus_in_slice):
                with pytest.raises(lacuna.errors.LacunaError):
                    call(None)
    assert layer_metrics(tracer.spans, 1)["plus_cone.find_plus_in_slice.stalled"][0] == 1
    assert [s.error for s in tracer.spans if s.name != ROOT] == ["IllConditionedZeros", "SolverStalled"]
