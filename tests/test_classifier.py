"""End-to-end classification of the worked examples and invariances."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lacuna import (
    ClassifyOptions,
    LacunaryPattern,
    RankIndeterminate,
    SpectrumViolation,
    classify,
    classify_full_space,
    infer_pattern,
    parse_poly,
    real_symbol_on_circle,
    spectrum,
    spectrum_in,
    symbol_to_poly,
)

NORM_PAIR_AND_GAP = 10 / math.pi
NORM_CLEAN_GAP = 8.548791149407617


def test_pair_and_gap_report(examples):
    p, pat = examples["pair_and_gap"]
    rep = classify(p, pat)
    assert rep.mode == "exact"
    assert rep.extreme is False and rep.exposed is False
    assert rep.fast_path_extreme == "rank"
    assert rep.fast_path_exposed == "not_extreme"
    assert abs(rep.norm - NORM_PAIR_AND_GAP) <= 1e-10
    assert rep.kernel.rank == 0 and rep.kernel.dim == 3
    kinds = sorted(w.kind for w in rep.witnesses)
    assert kinds == ["non_exposed", "non_extreme"]
    for w in rep.witnesses:
        # the hand-checked perturbation: q(z) = 4(z + z^5), up to a kernel choice
        assert w.spectrum == (1, 5)
        assert [complex(c) for c in w.perturbation.coeffs] == [
            0,
            4,
            0,
            0,
            0,
            4,
        ]


def test_clean_gap_report(examples):
    p, pat = examples["clean_gap"]
    rep = classify(p, pat)
    assert rep.extreme is True and rep.exposed is True
    assert rep.fast_path_exposed == "simple_circle_zeros"
    assert abs(rep.norm - NORM_CLEAN_GAP) <= 1e-9
    assert rep.kernel.rank == 2 and rep.kernel.dim == 1
    assert rep.witnesses == ()
    v = rep.kernel.vectors[0].as_array()
    assert np.allclose(v / v[1], [-5 / 4, 1.0, 0.0])


def test_double_circle_report(examples):
    p, pat = examples["double_circle"]
    rep = classify(p, pat)
    assert rep.extreme is True and rep.exposed is False
    assert rep.fast_path_exposed == "plus_dimension"
    assert rep.dim_plus == 3
    assert rep.kernel_tilde.dim == 3
    (w,) = rep.witnesses
    assert w.kind == "non_exposed"
    assert [complex(c) for c in w.perturbation.coeffs] == [0, 0, -2]
    assert w.checks["min_multiplier"] >= -1e-8
    # multiplier h = 1/(2 sin^2 t) is unbounded; only its sign is constrained
    assert w.multiplier_bound > 100


def test_single_double_zero_report(examples):
    p, pat = examples["single_double_zero"]
    rep = classify(p, pat)
    assert rep.extreme is True and rep.exposed is True
    assert rep.fast_path_exposed == "tilde_full_rank"
    assert rep.kernel_tilde.dim == 1
    v = rep.kernel_tilde.vectors[0].as_array()
    assert np.allclose(v / v[0], [1.0, -1.0, 0.0])


def test_float_mode_matches_exact(examples):
    for name, (p, pat) in examples.items():
        exact = classify(p, pat, ClassifyOptions(generate_witnesses=False))
        flo = classify(p.to_float(), pat, ClassifyOptions(generate_witnesses=False))
        assert flo.mode == "float"
        assert (flo.extreme, flo.exposed) == (exact.extreme, exact.exposed), name
        assert flo.kernel.rank == exact.kernel.rank
        assert flo.kernel_tilde.rank == exact.kernel_tilde.rank


def test_audit_mode_all_examples(examples):
    # the cone dimension the cross-check must find: the zero matrix of the
    # first example leaves the whole degree-1 space (dimension 3); the
    # double circle zero leaves a 3-dimensional cone slice; the two
    # shortcut-exposed examples have a single positive kernel line
    expected_dim = {"pair_and_gap": 3, "double_circle": 3}
    for name, (p, pat) in examples.items():
        rep = classify(p, pat, ClassifyOptions(audit=True))
        assert rep.audit["performed"] is True
        assert rep.audit["mismatches"] == [], name
        assert rep.audit["dim_plus_audit"] == expected_dim.get(name, 1), name


FULL_PATTERN_CASES = [("(1 - z^2)^2", 4), ("(z - 1/2)(1 - z/2)", 2), ("1 + z/2", 1)]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("text,N", FULL_PATTERN_CASES)
def test_audit_runs_the_full_space_route_on_full_patterns(text, N, mode):
    rep = classify(text, LacunaryPattern(N, []), ClassifyOptions(mode=mode, audit=True))
    assert "full_space_route" in rep.audit["checks"]
    assert rep.audit["mismatches"] == []


def test_audit_raises_when_the_full_space_route_disagrees(monkeypatch):
    import dataclasses

    import lacuna.classifier
    from lacuna import AuditMismatch

    original = lacuna.classifier.classify_full_space

    def flipped(*args, **kwargs):
        fs = original(*args, **kwargs)
        return dataclasses.replace(fs, extreme=not fs.extreme)

    monkeypatch.setattr(lacuna.classifier, "classify_full_space", flipped)
    with pytest.raises(AuditMismatch, match="zero-structure route"):
        classify("(1 - z^2)^2", LacunaryPattern(4, []), ClassifyOptions(audit=True))


def test_scaling_invariance(examples):
    p, pat = examples["single_double_zero"]
    base = classify(p, pat, ClassifyOptions(generate_witnesses=False))
    for c in (2, Fraction(1, 3), 0.7, -1.5, 2.0 + 1.0j):
        scaled = p * c if not isinstance(c, complex) else p.to_float() * c
        rep = classify(scaled, pat, ClassifyOptions(generate_witnesses=False))
        assert (rep.extreme, rep.exposed) == (base.extreme, base.exposed)
        assert rep.kernel.rank == base.kernel.rank
        assert rep.kernel_tilde.rank == base.kernel_tilde.rank


def test_infer_pattern(examples):
    p, pat = examples["pair_and_gap"]
    assert infer_pattern(p) == pat
    rep = classify(p, options=ClassifyOptions(infer_pattern=True))
    assert rep.pattern == pat
    with pytest.raises(ValueError):
        classify(p)  # no pattern and inference not enabled


def test_spectrum_violations():
    with pytest.raises(SpectrumViolation):
        classify(parse_poly("1 + z^3"), LacunaryPattern(6, [3]))
    with pytest.raises(SpectrumViolation):
        classify(parse_poly("z^7"), LacunaryPattern(6, [3]))


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        classify(parse_poly("0"), LacunaryPattern(2, []))


def test_string_input_accepted():
    rep = classify("1 + z/2", LacunaryPattern(1, []))
    assert rep.extreme is True and rep.exposed is True


def test_undecided_report(examples, monkeypatch):
    import lacuna.classifier as mod

    def raising(*args, **kwargs):
        raise RankIndeterminate("forced", singular_values=(1.0, 1e-10))

    monkeypatch.setattr(mod, "rank_and_kernel", raising)
    p, pat = examples["clean_gap"]
    rep = classify(p, pat)
    assert rep.undecided
    assert rep.extreme is None and rep.exposed is None
    assert "undecided_reason" in rep.diagnostics


def test_non_extreme_witness_norm_identity(examples):
    # with h = q/p real and |t h| <= 1/2 on the circle,
    # |1 + t h| + |1 - t h| = 2 pointwise, so the two perturbed norms
    # average back to ||p|| exactly: p is a midpoint of a sphere chord
    # (after rescaling the endpoints)
    from lacuna import l1_norm

    p, pat = examples["pair_and_gap"]
    rep = classify(p, pat)
    base = l1_norm(p).value
    w = next(w for w in rep.witnesses if w.kind == "non_extreme")
    t = Fraction(1, 2) / Fraction(w.multiplier_bound).limit_denominator(10**6)
    plus = l1_norm(p + w.perturbation * t).value
    minus = l1_norm(p + w.perturbation * (-t)).value
    assert abs((plus + minus) / 2 - base) <= 1e-9 * base
    assert abs(plus - minus) > 1e-3 * base  # the chord is not degenerate


def test_non_exposed_witness_norm_linearity(examples):
    # with h = q/p >= 0 on the circle, |p + t q| = |p| (1 + t h) pointwise
    # for every t >= 0, so the norm grows linearly in t: the supporting
    # functional of p attains its maximum along the whole ray.
    from lacuna import l1_norm

    p, pat = examples["double_circle"]
    rep = classify(p, pat)
    (w,) = rep.witnesses
    base = l1_norm(p).value
    assert abs(base - 2.0) <= 1e-10  # |(1 - z^2)^2| = 4 sin^2 t on the circle
    n1 = l1_norm(p + w.perturbation * Fraction(1, 8)).value
    n2 = l1_norm(p + w.perturbation * Fraction(1, 4)).value
    slope1 = (n1 - base) / (1 / 8)
    slope2 = (n2 - base) / (1 / 4)
    assert abs(slope1 - slope2) <= 1e-8 * max(1.0, abs(slope1))
    assert abs(n2 - 2.5) <= 1e-9  # q = -2 z^2 adds exactly 2t to the norm


def test_symbol_roundtrip_through_factors(examples):
    for name in ("pair_and_gap", "clean_gap"):
        p, pat = examples[name]
        from lacuna import canonical_factorization

        can = canonical_factorization(p, pat.N)
        for factor in (can.disk_factor, can.disk_factor.to_float()):
            v = real_symbol_on_circle(factor, can.m)
            assert v.is_exact is (factor.mode == "exact")
            back = symbol_to_poly(v, can.m)
            assert back.mode == factor.mode
            assert back.coeffs == factor.coeffs


# -- the zero-structure route -----------------------------------------------------


def test_full_space_shared_pair():
    rep = classify_full_space(parse_poly("(z - 1/2)(1 - z/2)"))
    assert rep.extreme is False and rep.exposed is False
    assert rep.shared_disk_multiplicity == 1


def test_full_space_double_circle():
    rep = classify_full_space(parse_poly("(1 - z^2)^2"))
    assert rep.extreme is True and rep.exposed is False
    assert sorted(rep.circle_multiplicities) == [2, 2]


def test_full_space_clean():
    rep = classify_full_space(parse_poly("1 + z/2"))
    assert rep.extreme is True and rep.exposed is True
    assert rep.shared_disk_multiplicity == 0


def test_full_space_simple_circle_zero_is_exposed():
    rep = classify_full_space(parse_poly("1 + z"))
    assert rep.extreme is True and rep.exposed is True
    assert rep.circle_multiplicities == (1,)


def test_full_space_origin_padding():
    # with N = 3 the reciprocal gains an origin zero matching p's
    rep = classify_full_space(parse_poly("z + z^2"), N=3)
    assert rep.extreme is False
    assert rep.shared_disk_multiplicity == 1


def test_full_space_agrees_with_matrix_route(rng):
    # random products of linear factors, full pattern: the rank criterion
    # must reproduce the zero-structure verdicts
    opts = ClassifyOptions(generate_witnesses=False)
    for _ in range(50):
        deg = int(rng.integers(1, 7))
        factors = []
        for _k in range(deg):
            num = int(rng.integers(-8, 9))
            den = int(rng.integers(1, 9))
            a = Fraction(num, den)
            if abs(a) == 1:
                a += Fraction(1, 16)
            factors.append(a)
        p = parse_poly("1")
        for a in factors:
            p = p * parse_poly(f"z - ({a})")
        fs = classify_full_space(p)
        rep = classify(p, LacunaryPattern(p.deg, []), opts)
        assert rep.extreme == fs.extreme
        assert rep.exposed == fs.exposed


def test_classify_reports_scale(examples):
    p, _pat = examples["pair_and_gap"]
    rep = classify(p, examples["pair_and_gap"][1])
    assert abs(rep.scale * rep.norm - 1.0) <= 1e-12


def test_spectrum_helpers_on_witnesses(examples):
    p, pat = examples["double_circle"]
    rep = classify(p, pat)
    for w in rep.witnesses:
        assert spectrum_in(w.perturbation, pat)
        assert spectrum(w.perturbation) == w.spectrum


def test_witness_search_certifies_only_until_the_first_witness(examples, monkeypatch):
    # the candidate pool of (1 - z^2)^2 holds 14 rational vectors; only the
    # cone solver's seed check and the first pool vector need a certificate
    import sys

    import lacuna.plus_cone

    original = lacuna.plus_cone.certify_nonneg_exact
    calls = []

    def counting(v):
        calls.append(v)
        return original(v)

    for name, mod in list(sys.modules.items()):
        if name == "lacuna" or name.startswith("lacuna."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    p, pat = examples["double_circle"]
    rep = classify(p, pat)
    assert len(calls) <= 2
    (w,) = rep.witnesses
    assert w.kind == "non_exposed"
    assert w.vector.alpha == (1, 0, 0) and w.vector.beta == (0, 0)


def test_cone_solver_decides_without_gram_certificates(monkeypatch):
    import lacuna.plus_cone

    def no_gram(*args, **kwargs):
        raise AssertionError("a Gram certificate was built")

    monkeypatch.setattr(lacuna.plus_cone, "_fejer_riesz_gram", no_gram)
    rep = classify("(1 + z^2)^6", LacunaryPattern(12, [1, 3, 5, 7, 9, 11]))
    assert rep.extreme is True and rep.exposed is False
    assert [w.kind for w in rep.witnesses] == ["non_exposed"]


def test_non_exposed_multiplier_with_a_pole_is_unbounded(examples):
    import json

    from lacuna.cli_reports import report_to_dict

    p, pat = examples["double_circle"]
    rep = classify(p, pat)
    (w,) = rep.witnesses
    # q/p = 1/(2 sin^2 t) has poles at t = 0 and pi: the grid maximum
    # stays a check, but no finite bound holds
    assert w.multiplier_bound == math.inf
    assert math.isfinite(w.checks["multiplier_max"])
    report = report_to_dict(rep)
    assert report["witnesses"][0]["multiplier_bound"] is None
    assert "Infinity" not in json.dumps(report)
    # no multiple circle zero, so no pole: the grid maximum is the bound
    p, pat = examples["pair_and_gap"]
    (w,) = [w for w in classify(p, pat).witnesses if w.kind == "non_exposed"]
    assert w.multiplier_bound == w.checks["multiplier_max"] < math.inf
