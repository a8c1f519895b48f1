"""End-to-end classification of the worked examples and invariances."""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lacuna import (
    ClassifyOptions,
    ComplexPoly,
    GaussianRational,
    IllConditionedZeros,
    LacunaryPattern,
    SolverStalled,
    SpectrumViolation,
    classify,
    classify_full_space,
    infer_pattern,
    parse_poly,
    plus_dimension,
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
    v = rep.kernel.vectors[0].entries
    assert [x / v[1] for x in v] == [Fraction(-5, 4), 1, 0]


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
    v = rep.kernel_tilde.vectors[0].entries
    assert [x / v[0] for x in v] == [1, -1, 0]


def test_float_mode_matches_exact(examples):
    # a float input is judged by its exact value, which these integer
    # examples keep: the factorization runs exactly on the same polynomial
    for name, (p, pat) in examples.items():
        exact = classify(p, pat, ClassifyOptions(generate_witnesses=False))
        doubles = ComplexPoly([complex(c) for c in p.coeffs])
        flo = classify(doubles, pat, ClassifyOptions(generate_witnesses=False))
        assert flo.polynomial == p, name
        assert (flo.extreme, flo.exposed) == (exact.extreme, exact.exposed), name
        assert flo.kernel.rank == exact.kernel.rank
        assert flo.kernel_tilde.rank == exact.kernel_tilde.rank


# the last is (1 - z^2)^3 rounded, times 0.7: g = gcd(p, p*) is square-free
# with six circle zeros, which find_zeros places about 1e-6 off the circle
ROUNDED_CUBE = (
    '{"coeffs_f": [[0.7, 0.0], [0.0, 0.0], [-2.0999999999999996, 0.0], [0.0, 0.0], '
    '[2.0999999999999996, 0.0], [0.0, 0.0], [-0.7, 0.0]]}'
)
FULL_PATTERN_CASES = [("(1 - z^2)^2", 4), ("(z - 1/2)(1 - z/2)", 2), ("1 + z/2", 1), (ROUNDED_CUBE, 6)]


def _rounded(p) -> ComplexPoly:
    """p (a ComplexPoly or its text) with each coefficient rounded to doubles,
    the polynomial its JSON ``coeffs_f`` gives."""
    p = parse_poly(p) if isinstance(p, str) else p
    return ComplexPoly([complex(c) for c in p.coeffs])


def _given(text, form):
    """The input as written (``exact``) or rounded to doubles (``float``)."""
    return text if form == "exact" else _rounded(text)


def _shortcut_reports(examples):
    """(label, report) for the worked examples, the full-pattern cases and the
    planted draws of acceptance criterion 06."""
    from test_acceptance import _plant

    opts = ClassifyOptions(generate_witnesses=False)
    for name, (p, pat) in examples.items():
        yield name, classify(p, pat, opts)
    for text, N in FULL_PATTERN_CASES:
        yield text, classify(text, LacunaryPattern(N, []), opts)
    rng = np.random.default_rng(2026_06)
    for i in range(300):
        p = _plant(rng)[0]
        yield f"planted {i}", classify(p, LacunaryPattern(p.deg, []), opts)


def test_shortcut_verdicts_agree_with_the_cone_dimension(examples):
    # exposed means a one-dimensional cone trace.  The two exposed shortcuts
    # decide it without computing the dimension, so compute it here; a
    # not-extreme report carries it, and it is at least 2, as a non-extreme
    # p lies inside an exposed face of dimension at least 1.  The zero matrix
    # of pair_and_gap leaves the whole degree-1 space (dimension 3), the
    # double circle zero a 3-dimensional cone slice, and the other examples
    # a single positive kernel line
    expected_dim = {"pair_and_gap": 3, "double_circle": 3, "clean_gap": 1, "single_double_zero": 1}
    seen = set()
    for label, rep in _shortcut_reports(examples):
        dim = rep.dim_plus
        if rep.fast_path_exposed == "not_extreme":
            seen.add(rep.fast_path_exposed)
            assert dim >= 2, label
        elif rep.fast_path_exposed != "plus_dimension":
            seen.add(rep.fast_path_exposed)
            assert dim is None, label
            seed = real_symbol_on_circle(rep.tilde.total_factor, rep.tilde.m_tilde)
            dim, _ = plus_dimension(rep.kernel_tilde.vectors, seed=seed)
            assert (dim == 1) == rep.exposed, label
        if label in expected_dim:
            assert dim == expected_dim[label], label
    assert seen == {"not_extreme", "simple_circle_zeros", "tilde_full_rank"}


@pytest.mark.parametrize("form", ["exact", "float"])
@pytest.mark.parametrize("text,N", FULL_PATTERN_CASES)
def test_classify_agrees_with_full_space_on_full_patterns(text, N, form):
    rep = classify(_given(text, form), LacunaryPattern(N, []))
    fs = classify_full_space(rep.polynomial, N=N)
    assert (rep.extreme, rep.exposed) == (fs.extreme, fs.exposed)


def test_seed_outside_the_kernel_is_inconsistent():
    from lacuna.classifier import _check_seed_membership
    from lacuna.plus_cone import CoefVector

    rep = classify("(z - 1/2)(8 - z^3)", LacunaryPattern(4, [2]))
    with pytest.raises(IllConditionedZeros, match="kernel equations of the plain matrix") as err:
        _check_seed_membership(rep.matrix, CoefVector(1, (1, 0), (0,)), "plain")
    assert err.value.diagnostics == {"matrix": "plain"}


@pytest.mark.parametrize(
    "kind,entries,factor,N,forbidden",
    [
        ("non_extreme", (Fraction(1, 2), Fraction(1, 2), 0), "z", 2, [1]),  # q = (1 + z)^2 / 2 has energy at z
        ("non_extreme", (1, 0, 0), "z", 2, []),  # the multiplier 2 is constant
        ("non_exposed", (0, 1, 0), "z", 2, []),  # the multiplier 2 cos t dips below 0
    ],
    ids=["outside-pattern", "constant", "negative"],
)
def test_validated_witness_rejects_each_failed_check(kind, entries, factor, N, forbidden):
    from lacuna.classifier import _validated_witness
    from lacuna.plus_cone import CoefVector, certify_nonneg_exact

    v, one, F = CoefVector.from_array(entries), parse_poly("1"), parse_poly(factor)
    seed, pattern = real_symbol_on_circle(F, 1), LacunaryPattern(N, forbidden)
    if kind == "non_extreme":
        assert _validated_witness(kind, v, 1, one, F, seed, pattern) is None
    else:
        # a non-exposed candidate is a vector plus_dimension returned, each
        # certified nonnegative; the certificate refuses 2 cos t
        assert certify_nonneg_exact(v)[0] is False
    # the multiplier 2 cos t passes every check of a non-extreme witness
    z = parse_poly("z")
    cos = CoefVector.from_array((0, 1, 0))
    assert _validated_witness("non_extreme", cos, 1, one, z, real_symbol_on_circle(z, 1), LacunaryPattern(2))


def test_a_factor_without_a_real_symbol_is_refused(monkeypatch, capsys):
    # both factors are Hermitian by construction; were one not, classify
    # raises rather than run without its seed
    import dataclasses

    import lacuna.classifier
    from lacuna import NotHermitianSymmetric
    from lacuna.cli_reports import EXIT_ERROR, main

    with pytest.raises(NotHermitianSymmetric):
        real_symbol_on_circle(parse_poly("i z"), 1)
    original = lacuna.classifier.canonical_factorization

    def rotated(p, N):
        can = original(p, N)
        return dataclasses.replace(can, disk_factor=can.disk_factor * GaussianRational(0, 1))

    monkeypatch.setattr(lacuna.classifier, "canonical_factorization", rotated)
    with pytest.raises(NotHermitianSymmetric):
        classify("(z - 1/2)(8 - z^3)", LacunaryPattern(4, [2]))
    assert main(["classify", "(z - 1/2)(8 - z^3)", "--pattern", "4:2"]) == EXIT_ERROR
    assert "is not the conjugate" in capsys.readouterr().err


def test_validated_witness_is_scale_free():
    # Q = 1 + z^2 over 10^12 z: the multiplier 2 cos t / 10^12 is nonconstant,
    # though its spread is far below any fixed threshold
    from lacuna.classifier import _validated_witness
    from lacuna.plus_cone import CoefVector

    F = parse_poly("10^12 z")
    v = CoefVector.from_array((0, 1, 0))
    w = _validated_witness("non_extreme", v, 1, parse_poly("1"), F, real_symbol_on_circle(F, 1), LacunaryPattern(2))
    assert w is not None and w.perturbation == parse_poly("1 + z^2")
    assert 0 < w.checks["spread"] < 1e-6


def test_cone_vectors_become_exact_certified_witnesses():
    # the witness is a vector of the facial reduction, small and exact
    from lacuna.plus_cone import _cayley_numerator, certify_nonneg_exact

    rep = classify("(1-z^2)^2*((-1/2-i) + (3+i)z + (-1-2i)z^2)", LacunaryPattern(6, [2]))
    assert rep.fast_path_exposed == "plus_dimension" and rep.exposed is False
    (w,) = rep.witnesses
    assert w.kind == "non_exposed" and all(isinstance(x, Fraction) for x in w.vector.entries)
    assert certify_nonneg_exact(w.vector)[0]
    assert all(sum(a * x for a, x in zip(row, w.vector.entries)) == 0 for row in rep.matrix_tilde.rows)
    assert max(map(abs, _cayley_numerator(w.vector))) <= 1000


# inputs whose cone the slice search left undecided (the first three) or
# whose facial check could not finish; the seed's zeros sit at +-1 for the
# first three, at the cube roots of unity (irrational in Cayley coordinates)
# for the last two
FACIAL_CASES = [
    ("(1-z^2)^2*((1+i)-(2+2i)z+(2+2i)z^2)", 7, [2], 2),
    ("(1-z^2)^2*(3-z-z^2-2z^3)", 8, [3], 2),
    ("(1-z^2)^2*((1+i)+z+(2+2i)z^2)", 6, [2], 3),
    ("(1+z+z^2)^2*((-3+3i/2) - 3iz + (3+3i)z^2)", 7, [3], 3),
    ("(1-z+z^2)^2*(-1 + (-3+i)z + (-3+2i)z^2)", 6, [2], 3),
]


@pytest.mark.parametrize("text,N,forbidden,dim", FACIAL_CASES)
def test_facial_reduction_decides_the_cone(text, N, forbidden, dim):
    from lacuna.plus_cone import certify_nonneg_exact

    rep = classify(text, LacunaryPattern(N, forbidden))
    assert rep.fast_path_exposed == "plus_dimension"
    assert rep.extreme is True and rep.exposed is False and rep.dim_plus == dim
    (w,) = rep.witnesses
    assert w.kind == "non_exposed" and all(isinstance(x, Fraction) for x in w.vector.entries) and certify_nonneg_exact(w.vector)[0]


def test_a_companion_solve_that_does_not_converge_names_the_factor():
    with pytest.raises(IllConditionedZeros, match="zeros of p's monic factor of multiplicity 1 are not found"):
        classify(parse_poly("(z + 10^20)(1 + 10^20 z)(z^3 - 2)"), LacunaryPattern(5))


def test_scaling_invariance(examples):
    p, pat = examples["single_double_zero"]
    base = classify(p, pat, ClassifyOptions(generate_witnesses=False))
    assert base.tilde.mu == 1
    for c in (2, Fraction(1, 3), 0.7, -1.5, 2.0 + 1.0j, 10**8, 10**9):
        # a double scales in float arithmetic, so its product rounds
        lossy = isinstance(c, (float, complex))
        scaled = ComplexPoly([complex(x) * c for x in p.coeffs]) if lossy else p * c
        rep = classify(scaled, pat, ClassifyOptions(generate_witnesses=False))
        assert (rep.extreme, rep.exposed) == (base.extreme, base.exposed)
        assert rep.kernel.rank == base.kernel.rank
        if scaled == p * c:
            assert rep.kernel_tilde.rank == base.kernel_tilde.rank
        else:
            # only 0.7 rounds: the exact value of the float product has two
            # simple circle zeros where p has its double one, so mu = 0
            assert c == 0.7
            assert rep.tilde.mu == 0 and rep.fast_path_exposed == "simple_circle_zeros"


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
    # the ranks are exact, so only a stalled cone solver leaves a verdict open
    import lacuna.classifier as mod

    def raising(*args, **kwargs):
        raise SolverStalled("forced")

    monkeypatch.setattr(mod, "plus_dimension", raising)
    p, pat = examples["double_circle"]
    rep = classify(p, pat, ClassifyOptions(generate_witnesses=False))
    assert rep.undecided
    assert rep.extreme is True and rep.exposed is None
    assert rep.diagnostics["undecided_reason"] == "cone solver stalled: forced"


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
        # a factor built from doubles holds their exact values, and so does its symbol
        for factor in (can.disk_factor, ComplexPoly([complex(c) for c in can.disk_factor.coeffs])):
            v = real_symbol_on_circle(factor, can.m)
            assert all(isinstance(x, Fraction) for x in v.entries)
            assert symbol_to_poly(v, can.m) == factor


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


def test_full_space_decides_the_disk_pair_that_classify_decides():
    # m = 1 is exact, though the float zeros of p land at |z| = 1
    rep = classify_full_space("(z - (1 - 1/10^9))(1 - (1 - 1/10^9)z)", 2)
    assert (rep.extreme, rep.shared_disk_multiplicity) == (False, 1)


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
    # the witness search certifies nothing of its own: only the cone
    # solver's certificates run on (1 - z^2)^2
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


# The disk zeros (3 +- sqrt 5)/2 of 1 - 3z + z^2 reflect each other, so the
# canonical factor has an irrational natural scale; its kernels are exact all
# the same (tests/test_factorization.py::test_irrational_pair_gets_a_rational_hermitian_factor).
IRRATIONAL = {
    "irrational_pair": (parse_poly("1 - 3z + z^2"), LacunaryPattern(2, [])),
    # the same pair times a double circle zero at 1: extreme, cone dimension 3
    "irrational_double_circle": (
        parse_poly("(1 - 3z + z^2)(1 - z)^2(z^2 + z - 3)"), LacunaryPattern(6, [4]),
    ),
}


@pytest.mark.parametrize(
    "name, reject, runs",
    [
        # classify's one cone search gives the witness search its vectors,
        # with or without witnesses, and the witness search runs none
        ("pair_and_gap", False, 0),
        ("irrational_pair", False, 0),
        ("double_circle", False, 0),
        ("irrational_double_circle", False, 0),
        # every candidate fails validation: no second search is run
        ("pair_and_gap", True, 0),
        ("irrational_pair", True, 0),
    ],
)
def test_witness_search_runs_the_cone_search_only_when_nothing_was_offered(
    examples, monkeypatch, name, reject, runs
):
    import lacuna.classifier
    from lacuna import WitnessValidationFailed

    original = lacuna.classifier.plus_dimension
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lacuna.classifier, "plus_dimension", counting)
    p, pat = {**examples, **IRRATIONAL}[name]
    classify(p, pat, ClassifyOptions(mode="exact", generate_witnesses=False))
    without = len(calls)
    if reject:
        validate = lacuna.classifier._validated_witness

        def no_non_exposed(kind, *args):
            return None if kind == "non_exposed" else validate(kind, *args)

        monkeypatch.setattr(lacuna.classifier, "_validated_witness", no_non_exposed)
        with pytest.raises(WitnessValidationFailed):
            classify(p, pat, ClassifyOptions(mode="exact"))
    else:
        rep = classify(p, pat, ClassifyOptions(mode="exact"))
        assert rep.exposed is False
        assert "non_exposed" in [w.kind for w in rep.witnesses]
    assert len(calls) - 2 * without == runs


@pytest.mark.parametrize("text", ["z^2 (1 + 2z)", "(-3+3i)z^2 + (-2-3i)z^3"])
def test_non_exposed_witness_of_a_seed_line_kernel_comes_from_the_cone(text):
    # G = z^2, so the tilde seed is the constant, which no witness may be;
    # the cone of the tilde kernel has dimension 3, and a vector of its
    # certificate other than the seed is the witness
    rep = classify(text, LacunaryPattern(5, [4]))
    assert (rep.extreme, rep.exposed) == (False, False)
    assert rep.canonical.m == 2 and rep.dim_plus == 3
    assert [w.kind for w in rep.witnesses] == ["non_extreme", "non_exposed"]


def test_a_disk_zero_read_as_zero_gives_the_hilbert_90_scale():
    # the disk zero -10^-10 rationalizes to 0, so the product of the nonzero
    # disk zeros reads as D = z: it divides G, but conj(D(0)) = 0 is no scale
    from lacuna.plus_cone import certify_nonneg_exact

    p = parse_poly("z (z + 10^10)(1 + 10^10 z)")
    rep = classify(p, LacunaryPattern(4))
    assert rep.canonical.m == 2 and rep.canonical.disk_factor * rep.canonical.cofactor == p
    assert certify_nonneg_exact(real_symbol_on_circle(rep.canonical.disk_factor, 2)) == (True, False)
    assert (rep.extreme, rep.exposed) == (False, False)
    assert [w.kind for w in rep.witnesses] == ["non_extreme", "non_exposed"]


def test_cone_solver_decides_without_gram_certificates():
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


GAPPED_CIRCLE = [
    (f"(1 {sym} z^{k})^{j}", k, j) for k in (2, 3) for j in range(2, 7) for sym in "+-"
]


def _classify_gapped(text, k, j, form):
    N = k * j
    pattern = LacunaryPattern(N, [e for e in range(1, N) if e % k])
    return classify(_given(text, form), pattern)


@pytest.mark.parametrize("text,k,j", GAPPED_CIRCLE)
def test_gapped_circle_powers_are_decided_on_the_harmonic_lattice(text, k, j):
    # (1 +- z^k)^j on the exponents kZ is (1 +- w)^j under w = z^k: extreme,
    # not exposed, and its cone has dimension 2 floor(j/2) + 1
    rep = _classify_gapped(text, k, j, "exact")
    assert (rep.extreme, rep.exposed) == (True, False)
    assert rep.fast_path_exposed == "plus_dimension"
    assert rep.dim_plus == 2 * (j // 2) + 1
    assert [w.kind for w in rep.witnesses] == ["non_exposed"]


@pytest.mark.parametrize("text,k,j", GAPPED_CIRCLE)
def test_gapped_circle_powers_agree_across_modes(text, k, j):
    # the text and its coefficients given as doubles: integers, read exactly
    exact = _classify_gapped(text, k, j, "exact")
    flo = _classify_gapped(text, k, j, "float")
    assert (flo.extreme, flo.exposed, flo.dim_plus) == (exact.extreme, exact.exposed, exact.dim_plus)
    assert [w.kind for w in flo.witnesses] == ["non_exposed"]


# ---------------------------------------------------------------------------
# float input is judged by its exact value
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,N,forbidden",
    [("(1 + z)^4", 4, []), ("(1 - z)^6", 6, []), ("(1 - z^2)^4", 8, [1, 3, 5, 7])],
)
def test_float_mode_decides_zeros_of_multiplicity_four_and_more(text, N, forbidden):
    pattern = LacunaryPattern(N, forbidden)
    exact = classify(text, pattern)
    flo = classify(_rounded(text), pattern)
    assert not flo.undecided
    assert (flo.extreme, flo.exposed, flo.dim_plus) == (exact.extreme, exact.exposed, exact.dim_plus)


@pytest.mark.parametrize("degree", [48, 64, 96])
def test_float_mode_decides_generic_inputs_of_high_degree(degree):
    rng = np.random.default_rng(degree)
    coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    p = ComplexPoly(coeffs.tolist())
    pattern = LacunaryPattern(degree + 2, [degree + 1])
    rep = classify(p, pattern, ClassifyOptions(generate_witnesses=False))
    assert (rep.extreme, rep.exposed) == (True, True)


def _parity_inputs():
    """(label, p, pattern) for every input of the float-input parity check: the
    worked examples, the corpus classify jobs, (1 +- z^k)^j and seeded
    Gaussian-integer polynomials."""
    from conftest import EXAMPLES

    for name, (text, pattern) in EXAMPLES.items():
        yield name, parse_poly(text), pattern
    corpus = Path(__file__).resolve().parents[1] / "corpus"
    for path in sorted(corpus.glob("*.json")):
        job = json.loads(path.read_text())
        if "input" in job:
            yield path.stem, parse_poly(job["input"]), LacunaryPattern.from_json(job["pattern"])
    for k in (1, 2, 3):
        for j in range(1, 7):
            for sym in "+-":
                N = k * j
                pattern = LacunaryPattern(N, [e for e in range(1, N) if e % k])
                yield f"(1 {sym} z^{k})^{j}", parse_poly(f"(1 {sym} z^{k})^{j}"), pattern
    rng = np.random.default_rng(19)
    for n in range(12):
        degree = int(rng.integers(2, 11))
        parts = rng.integers(-9, 10, size=(degree + 1, 2))
        parts[-1, 0] = parts[-1, 0] or 1
        p = ComplexPoly([GaussianRational(int(a), int(b)) for a, b in parts])
        yield f"seeded-{n}", p, LacunaryPattern(degree + 2, [degree + 1])


def test_float_mode_reports_equal_exact_reports_on_lossless_inputs():
    from lacuna.cli_reports import report_to_dict

    checked = 0
    for label, p, pattern in _parity_inputs():
        doubles = _rounded(p)
        if doubles != p:
            continue
        exact = report_to_dict(classify(p, pattern))
        flo = report_to_dict(classify(doubles, pattern))
        assert flo == exact, label
        checked += 1
    assert checked >= 50


# ---------------------------------------------------------------------------
# m and G come from the exact gcd(p, p*), not from a match band
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,N,forbidden",
    [
        # zeros 1/2 and 1/(1/2 + 10^-8) of p sit 4e-8 from each other's
        # reflections, yet gcd(p, p*) = 1
        ("(z - 1/2)(1 - (1/2 + 1/10^8)z)", 2, []),
        # the double zeros +-(1 + 10^-9)^(-1/2) lie in the disk, off the circle
        ("(1 - (1 + 1/10^9)z^2)^2", 4, [1, 3]),
    ],
)
def test_near_coincident_zeros_are_decided_by_the_exact_gcd(text, N, forbidden):
    rep = classify(text, LacunaryPattern(N, forbidden), ClassifyOptions(mode="exact"))
    assert (rep.canonical.m, rep.tilde.mu) == (0, 0)
    assert (rep.extreme, rep.exposed) == (True, True) and rep.witnesses == ()


def test_exact_mode_judges_float_input_as_auto_does():
    # a double is read at its exact value where it enters, so exact mode has
    # nothing to refuse
    from lacuna.cli_reports import report_to_dict

    text, pattern = '{"coeffs_f": [[0.5, 0], [1, 0]]}', LacunaryPattern(1)
    auto = classify(text, pattern)
    assert (auto.extreme, auto.exposed) == (True, True)
    assert report_to_dict(classify(text, pattern, ClassifyOptions(mode="exact"))) == report_to_dict(auto)


def test_rounding_a_tenth_removes_the_double_circle_zeros():
    # (1 - z^2/10)^2 (1 + z^2)^2 has double circle zeros at +-i, but with its
    # coefficients rounded to doubles the shared factor is square-free
    text, pattern = "(1-0.1z^2)^2*(1+z^2)^2", LacunaryPattern(8, [1, 3, 5, 7])
    exact, rounded = classify(text, pattern), classify(_rounded(text), pattern)
    assert (exact.tilde.mu, exact.extreme, exact.exposed) == (2, True, False)
    assert (rounded.tilde.mu, rounded.extreme, rounded.exposed) == (0, True, True)


def test_float_mode_is_retired_and_auto_and_exact_decide_alike(examples):
    p, pat = examples["double_circle"]
    with pytest.raises(ValueError, match="float mode is retired.*coeffs_f"):
        classify(p, pat, ClassifyOptions(mode="float"))
    with pytest.raises(ValueError, match="unknown mode 'fast'"):
        classify(p, pat, ClassifyOptions(mode="fast"))
    auto, exact = (classify(p, pat, ClassifyOptions(mode=mode)) for mode in ("auto", "exact"))
    assert (auto.extreme, auto.exposed, auto.dim_plus) == (exact.extreme, exact.exposed, exact.dim_plus) == (True, False, 3)


def test_lossy_float_product_is_judged_by_its_exact_gcd():
    # the rounded factor a + bz + az^2 has zeros with r1 r2 = 1 and a non-real
    # sum, so it shares no zero with its reflection: gcd(x, x*) = 1 + z^4
    p = ComplexPoly([complex(x) * (0.7 + 0.3j) for x in parse_poly("(z - 1/2)(2 - z)(1 + z^4)").coeffs])
    rep = classify(p, LacunaryPattern(6, [3]))
    assert rep.canonical.m == 0 and rep.tilde.mu == 0
    assert (rep.extreme, rep.exposed) == (True, True)


@pytest.mark.parametrize(
    "text,N,forbidden,mu,calls",
    [
        ("(z - 1/2)(2 - z)(1 + z^4)", 6, [3], 0, 1),  # extreme, simple circle zeros
        ("1 - 3z + z^2", 2, [], 0, 1),  # not extreme: the cone runs on the plain level
        ("(1 - z^2)^2", 4, [1, 3], 2, 2),
    ],
)
def test_mu_zero_reuses_the_plain_level(monkeypatch, text, N, forbidden, mu, calls):
    import lacuna.classifier

    counts = {"build_matrix": 0, "rank_and_kernel": 0}
    for name in counts:
        def counted(*args, _f=getattr(lacuna.classifier, name), _name=name, **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(lacuna.classifier, name, counted)
    rep = classify(text, LacunaryPattern(N, forbidden))
    assert rep.tilde.mu == mu and counts == {"build_matrix": calls, "rank_and_kernel": calls}
    assert rep.matrix_tilde.kind == "tilde"
    if not mu:
        assert rep.matrix_tilde.rows == rep.matrix.rows and rep.kernel_tilde == rep.kernel
        assert rep.tilde.total_factor == rep.canonical.disk_factor
        assert rep.tilde.reduced_cofactor == rep.canonical.cofactor


@pytest.mark.parametrize(
    "text,N,forbidden,verdicts",
    [
        ("1 - 3z + z^2", 2, [], (False, False, 3)),
        ("(1 - 3z + z^2)(1 - z)^2(z^2 + z - 3)", 6, [4], (True, False, 3)),
    ],
)
def test_irrational_natural_scale_is_decided_exactly(text, N, forbidden, verdicts):
    rep = classify(text, LacunaryPattern(N, forbidden), ClassifyOptions(mode="exact"))
    assert rep.canonical.m == 1
    assert rep.canonical.disk_factor == parse_poly("-2 + 6z - 2z^2")
    assert (rep.extreme, rep.exposed, rep.dim_plus) == verdicts
    assert rep.witnesses


def test_salem_circle_split_is_refused_by_name():
    # Lehmer's polynomial has eight simple circle zeros and two real ones off
    # the circle; no Gaussian-rational factor carries the circle zeros alone
    lehmer = "1 + z - z^3 - z^4 - z^5 - z^6 - z^7 + z^9 + z^10"
    with pytest.raises(IllConditionedZeros, match="monic product of the circle zeros of p"):
        classify(lehmer, LacunaryPattern(10), ClassifyOptions(mode="exact"))


def test_coprime_input_solves_no_roots(monkeypatch):
    # gcd(p, p*) = 1 proves there is no shared and no circle zero, so neither
    # the factorization nor the norm needs a zero of p
    import lacuna.circle_analysis
    import lacuna.factorization

    def no_roots(*args, **kwargs):
        raise AssertionError("a root solve ran on a coprime input")

    monkeypatch.setattr(np, "roots", no_roots)
    for module in (lacuna.circle_analysis, lacuna.factorization):
        monkeypatch.setattr(module, "find_zeros", no_roots)
    rng = np.random.default_rng(48)
    parts = rng.integers(-9, 10, size=(49, 2))
    parts[-1, 0] = parts[-1, 0] or 1
    p = ComplexPoly([GaussianRational(int(a), int(b)) for a, b in parts])
    rep = classify(p, LacunaryPattern(50, [49]))
    assert (rep.canonical.m, rep.tilde.mu) == (0, 0)
    assert (rep.extreme, rep.exposed) == (True, True)
    assert rep.diagnostics["norm_panels"] >= 8 and rep.norm > 0


def test_disk_pair_inside_the_circle_band_is_decided():
    # m = 1 is exact (no zero of g = p lies on the circle), though the float
    # zeros of p land at |z| = 1
    rep = classify("(z - (1 - 1/10^9))(1 - (1 - 1/10^9)z)", LacunaryPattern(2))
    assert rep.canonical.m == 1
    assert (rep.extreme, rep.exposed) == (False, False)


def test_a_shared_pair_beside_the_origin_is_decided():
    # g = (z + 10^20)(1 + 10^20 z) gives m = 1 with no shared zero at 0: p's
    # own zero at 0 lies 10^-20 from the shared one but is not counted
    rep = classify("z (z + 10^20)(1 + 10^20 z)", LacunaryPattern(3))
    assert rep.canonical.m == 1 and rep.canonical.disk_factor.order_at_zero() == 0
    ((a, mult),) = [(c.location, c.multiplicity) for c in rep.canonical.disk_zeros]
    assert mult == 1 and abs(a + 1e-20) <= 1e-35
    assert (rep.extreme, rep.exposed) == (False, False)
    assert [w.kind for w in rep.witnesses] == ["non_extreme", "non_exposed"]


def _rounded_circle_power(text: str) -> ComplexPoly:
    """The coefficients of text rounded to doubles and times 0.7 in float
    arithmetic: each multiple zero at +-1 splits into simple zeros about 1e-6
    apart, near the circle and off it."""
    return ComplexPoly([complex(c) * 0.7 for c in parse_poly(text).coeffs])


def test_rounded_cube_of_a_circle_pair_is_decided():
    # g = gcd(p, p*) is square-free of degree 6 with all six zeros on the circle
    rep = classify(_rounded_circle_power("(1 - z^2)^3"), LacunaryPattern(6))
    assert (rep.canonical.m, rep.tilde.mu) == (0, 0)
    assert (rep.extreme, rep.exposed) == (True, True)


@pytest.mark.xfail(
    raises=IllConditionedZeros,
    strict=True,
    reason="an irrational split: g = gcd(p, p*) is square-free with 4 of its 8 zeros "
    "on the circle, and no Gaussian-rational circle factor divides it",
)
def test_rounded_fourth_power_of_a_circle_pair_is_decided():
    rep = classify(_rounded_circle_power("(1 - z^2)^4"), LacunaryPattern(8))
    assert not rep.undecided
