"""Canonical and tilde factorizations on the worked examples, plus symbols."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import eval_many
from lacuna import (
    IllConditionedZeros,
    LacunaryPattern,
    NotHermitianSymmetric,
    canonical_factorization,
    certify_nonneg_exact,
    classify,
    conjugate_reciprocal,
    find_zeros,
    parse_poly,
    real_symbol_on_circle,
    tilde_factorization,
)
from lacuna import factorization
from lacuna.factorization import _circle_count, _factor_out, _unity_order, circle_parts
from lacuna.poly_core import ComplexPoly, GaussianRational, gcd_exact, square_free_decomposition


def _exact(p, coeffs):
    want = [GaussianRational(Fraction(re), Fraction(im)) for re, im in coeffs]
    assert list(p.coeffs) == want


def _close(p, q, tol=1e-9):
    a = np.array([complex(c) for c in p.coeffs])
    b = np.array([complex(c) for c in q.coeffs])
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= tol * max(1.0, np.max(np.abs(b)))


# G = (z-1/2)(1-z/2) shows up in both §2 examples
G_HALF = [(Fraction(-1, 2), 0), (Fraction(5, 4), 0), (Fraction(-1, 2), 0)]


def test_canonical_pair_and_gap(examples):
    p, pat = examples["pair_and_gap"]
    can = canonical_factorization(p, pat.N)
    assert (can.m, can.s) == (1, 4)
    _exact(can.disk_factor, G_HALF)
    _exact(can.cofactor, [(2, 0), (0, 0), (0, 0), (0, 0), (2, 0)])
    assert (can.disk_factor * can.cofactor).coeffs == p.coeffs


def test_canonical_clean_gap(examples):
    p, pat = examples["clean_gap"]
    can = canonical_factorization(p, pat.N)
    assert (can.m, can.s) == (1, 2)
    _exact(can.disk_factor, G_HALF)
    _exact(can.cofactor, [(8, 0), (4, 0), (2, 0)])


def test_canonical_no_common_zeros(examples):
    p, pat = examples["double_circle"]
    can = canonical_factorization(p, pat.N)
    assert (can.m, can.s) == (0, 4)
    assert can.disk_factor.deg == 0
    assert can.cofactor.coeffs == p.coeffs


@pytest.mark.parametrize(
    "expr,N", [("1 + z/2", 1), ("1 + z/2", 3), ("(1 - z^2)^2", 4), ("2 - 3z + z^3", 3)]
)
def test_canonical_without_shared_zeros_divides_by_one(expr, N):
    p = parse_poly(expr)
    can = canonical_factorization(p, N)
    assert (can.m, can.s) == (0, N)
    assert can.disk_factor == ComplexPoly.one()
    assert can.cofactor == p


def test_canonical_origin_pair():
    # 0 is a common zero: p* = z^2 + z^3 vanishes there doubly, p simply
    can = canonical_factorization(parse_poly("z + z^2"), 4)
    assert (can.m, can.s) == (1, 2)
    _exact(can.disk_factor, [(0, 0), (1, 0)])
    _exact(can.cofactor, [(1, 0), (1, 0)])


def test_canonical_degree_bound_via_origin():
    # deg R <= s survives an origin zero of higher multiplicity
    can = canonical_factorization(parse_poly("z^2 + z^3"), 7)
    assert can.m == 2
    assert can.cofactor.deg <= can.s


def test_tilde_double_circle(examples):
    p, pat = examples["double_circle"]
    can = canonical_factorization(p, pat.N)
    til = tilde_factorization(can)
    assert (til.mu, til.m_tilde, til.s_tilde) == (2, 2, 0)
    _exact(can.disk_factor * til.circle_factor, [(-1, 0), (0, 0), (2, 0), (0, 0), (-1, 0)])
    _exact(til.reduced_cofactor, [(-1, 0)])
    assert [c.multiplicity for c in can.zero_clusters] == [2, 2]


def test_tilde_single_double_zero(examples):
    p, pat = examples["single_double_zero"]
    can = canonical_factorization(p, pat.N)
    til = tilde_factorization(can)
    assert (til.mu, til.m_tilde, til.s_tilde) == (1, 1, 1)
    _exact(can.disk_factor * til.circle_factor, [(-1, 0), (2, 0), (-1, 0)])
    _exact(til.reduced_cofactor, [(-2, 0), (-1, 0)])


def test_tilde_trivial_when_circle_zeros_simple(examples):
    p, pat = examples["pair_and_gap"]
    can = canonical_factorization(p, pat.N)
    til = tilde_factorization(can)
    # four simple circle zeros: nothing to absorb
    assert til.mu == 0 and til.m_tilde == can.m
    assert (can.disk_factor * til.circle_factor).coeffs == can.disk_factor.coeffs
    assert til.reduced_cofactor.coeffs == can.cofactor.coeffs


def test_reconstruction_all_examples(examples):
    # the last input has a shared disk pair and a double circle zero
    both = (parse_poly("(z - 1/2)(2 - z)(1 - z)^2"), LacunaryPattern(4))
    for p, pat in [*examples.values(), both]:
        can = canonical_factorization(p, pat.N)
        til = tilde_factorization(can)
        assert (can.disk_factor * can.cofactor).coeffs == p.coeffs
        # exact: the tilde factor is the canonical factor times the circle factor
        total = can.disk_factor * til.circle_factor
        _close(total * til.reduced_cofactor, p, tol=1e-12)
        assert total * til.reduced_cofactor == p
        assert til.s_tilde == pat.N - 2 * til.m_tilde


def test_float_parity_with_exact(examples):
    # a float input is factored at its exact value; this one rounds losslessly
    p, pat = examples["pair_and_gap"]
    exact = canonical_factorization(p, pat.N)
    flo = canonical_factorization(ComplexPoly([complex(c) for c in p.coeffs]), pat.N)
    assert flo == exact


def test_irrational_pair_gets_a_rational_hermitian_factor():
    # zeros (3 +- sqrt 5)/2 reflect each other, so the natural scale -(3 - sqrt 5)/2
    # of G is irrational; G is the monic gcd(p, p*) times the Gaussian
    # rational that makes its symbol real and positive: 6 - 4 cos t
    p = parse_poly("1 - 3z + z^2")
    can = canonical_factorization(p, 2)
    assert can.m == 1
    _exact(can.disk_factor, [(-2, 0), (6, 0), (-2, 0)])
    assert can.disk_factor * can.cofactor == p
    v = real_symbol_on_circle(can.disk_factor, 1)
    assert v.alpha == (3, -2) and v.beta == (0,)


@pytest.mark.parametrize(
    "expr,N,m,factor",
    [
        # the natural scale prod(-conj a) is kept where the disk zeros have a
        # Gaussian-rational product
        ("(z - i/2)(1 + i z/2)", 2, 1, "-1/2i + (5/4)z + (1/2i)z^2"),
        ("(z - (1+i)/2)(1 - (1-i)z/2)", 2, 1, "-1/2-1/2i + (3/2)z + (-1/2+1/2i)z^2"),
        # the irrational pair of 1 - 3z + z^2 beside the simple circle zeros
        # of 1 + z^3: the Hilbert 90 scale, whatever the cofactor
        ("-(1 - 3z + z^2)(1 + z^3)", 5, 1, "-2 + (6)z + (-2)z^2"),
        # an origin pair, and eps = -1 at the outer coefficients: kappa = i
        ("z(z^2 - 4i z - 1)", 4, 2, "(-1i)z + (4)z^2 + (1i)z^3"),
    ],
)
def test_canonical_factor_is_hermitian_and_positive(expr, N, m, factor):
    p = parse_poly(expr)
    can = canonical_factorization(p, N)
    assert can.m == m and can.disk_factor * can.cofactor == p
    assert str(can.disk_factor) == factor
    v = real_symbol_on_circle(can.disk_factor, m)
    assert certify_nonneg_exact(v) == (True, False)  # positive on the whole circle


def test_lehmer_polynomial_is_refused_with_the_factor_named():
    # a Salem polynomial: eight circle zeros whose monic product is irrational
    p = parse_poly("1 + z - z^3 - z^4 - z^5 - z^6 - z^7 + z^9 + z^10")
    with pytest.raises(
        IllConditionedZeros,
        match=r"monic product of the circle zeros of p .*: 8 of its 10 zeros lie on the circle",
    ):
        canonical_factorization(p, 10)


def _rounded(text):
    """text's coefficients rounded to doubles, each times 0.7 in float arithmetic."""
    return ComplexPoly([complex(c) * 0.7 for c in parse_poly(text).coeffs])


@pytest.mark.parametrize(
    "p,N,circle,degree",
    [
        (parse_poly("1 + z - z^3 - z^4 - z^5 - z^6 - z^7 + z^9 + z^10"), 10, 8, 10),
        (_rounded("(1 - z^2)^4"), 8, 4, 8),
        (_rounded("(1 - z^2)^3"), 6, 6, 6),
        (parse_poly("(z - (1 - 1/10^9))(1 - (1 - 1/10^9)z)"), 2, 0, 2),
        (parse_poly("(1 + z^5)^3"), 15, 5, 5),
        (parse_poly("(z - 1/2)(1 - z/2)(1 + z^3)"), 5, 3, 5),
    ],
    ids=["lehmer", "rounded-fourth-power", "rounded-cube", "disk-pair", "(1+z^5)^3", "planted"],
)
def test_each_part_of_the_gcd_counts_its_circle_zeros_exactly(p, N, circle, degree):
    g = gcd_exact(p, conjugate_reciprocal(p, N))
    ((f, _j),) = square_free_decomposition(g)
    assert (_circle_count(f), f.deg) == (circle, degree)


def test_a_gcd_without_circle_zeros_solves_no_root(monkeypatch):
    # the only part of g = (z - 1/2)(z - 2) has no circle zero: C = 1, G = g
    import lacuna.factorization

    def no_zeros(p):
        raise AssertionError("find_zeros ran on g")

    monkeypatch.setattr(lacuna.factorization, "find_zeros", no_zeros)
    can = canonical_factorization(parse_poly("(z - 1/2)(1 - z/2)"), 2)
    assert (can.m, can.zero_clusters, can.circle_factors) == (1, (), ())
    _exact(can.disk_factor, G_HALF)


@pytest.mark.parametrize(
    "expr,N",
    [("(z - 1/2)(1 - (1/2 + 1/10^8)z)", 2), ("(1 - (1 + 1/10^9)z^2)^2", 4)],
)
def test_coprime_input_skips_the_zero_analysis(expr, N, monkeypatch):
    # gcd(p, p*) = 1 is certified exactly, however close the zeros of p and p*
    import lacuna.factorization

    def no_zeros(p):
        raise AssertionError("find_zeros ran on a coprime input")

    monkeypatch.setattr(lacuna.factorization, "find_zeros", no_zeros)
    can = canonical_factorization(parse_poly(expr), N)
    assert (can.m, can.disk_zeros, can.zero_clusters) == (0, (), ())
    assert can.disk_factor == ComplexPoly.one()


# Gaussian-integer cyclotomic factors: (1 +- z^a), (1 +- i z^b), Phi_3, Phi_8,
# Phi_12, Phi_5 and Phi_7
CYCLOTOMIC = ["1 + z^{}", "1 - z^{}", "1 + i z^{}", "1 - i z^{}", "z^2 + z + 1", "z^4 + 1",
              "z^4 - z^2 + 1", "1 + z + z^2 + z^3 + z^4", "1 + z + z^2 + z^3 + z^4 + z^5 + z^6"]
DISK_PAIR = "(z - (1 + i)/3)(1 - (1 - i)z/3)"


def _cyclotomic_product(rng: random.Random) -> tuple[str, LacunaryPattern]:
    """One or two factors of ``CYCLOTOMIC`` to powers 1-4, a third of the
    time times ``DISK_PAIR``, on a pattern that forbids some of its zero
    coefficients."""
    terms = []
    for form in rng.sample(CYCLOTOMIC, rng.choice([1, 2])):
        terms.append(f"({form.format(rng.randint(1, 3))})^{rng.randint(1, 4)}")
    if rng.random() < 1 / 3:
        terms.append(DISK_PAIR)
    text = " ".join(terms)
    p = parse_poly(text)
    gaps = [k for k in range(1, p.deg) if not p.coefficient(k)]
    return text, LacunaryPattern(p.deg, tuple(sorted(rng.sample(gaps, len(gaps) // 2))))


def _equal_up_to_locations(a, b):
    """The same report but for circle-zero locations, which agree to 4 ulp
    of their modulus 1 (the norm, its panel breaks, moves with them)."""
    x, y = a.canonical, b.canonical
    assert (x.m, x.disk_zeros, x.disk_factor, x.circle_factors) == (y.m, y.disk_zeros, y.disk_factor, y.circle_factors)
    assert (a.tilde.mu, a.tilde.circle_factor) == (b.tilde.mu, b.tilde.circle_factor)
    za, zb = a.canonical.zero_clusters, b.canonical.zero_clusters
    assert [z.multiplicity for z in za] == [z.multiplicity for z in zb]
    assert all(abs(u.location - v.location) <= 4 * math.ulp(1.0) for u, v in zip(za, zb))
    assert (a.kernel, a.kernel_tilde) == (b.kernel, b.kernel_tilde)
    assert (a.extreme, a.exposed, a.dim_plus) == (b.extreme, b.exposed, b.dim_plus)
    assert a.witnesses == b.witnesses


@pytest.mark.parametrize("seed", range(24))
def test_roots_of_unity_read_exactly_give_the_counted_route_report(seed, monkeypatch):
    text, pattern = _cyclotomic_product(random.Random(seed))
    p = parse_poly(text)
    read = classify(p, pattern)
    monkeypatch.setattr(factorization, "_unity_order", lambda f: None)
    counted = classify(p, pattern)
    _equal_up_to_locations(read, counted)


@pytest.mark.parametrize(
    "text,parts",
    [
        ("z^2 - 3z + 1", [(2, 1, 0)]),  # a coefficient over its binomial, no circle zero
        ("z^4 - z^3 - z^2 - z + 1", [(4, 1, 2)]),  # a Salem quartic: no n up to the bound
        ("(z^4 - z^3 - z^2 - z + 1)(1 + z^3)", [(7, 1, 5)]),
    ],
    ids=["quadratic", "salem-quartic", "salem-times-cyclotomic"],
)
def test_a_gaussian_integer_part_off_the_circle_keeps_the_counted_route(text, parts, monkeypatch):
    # each g here is its own one Yun part, self-inversive over Z with zeros off
    # the circle: it divides no z^n - 1, and its circle zeros are counted
    g = parse_poly(text)
    ((f, _j),) = square_free_decomposition(g)
    assert _unity_order(f) is None
    read = circle_parts(g)
    monkeypatch.setattr(factorization, "_unity_order", lambda f: None)
    counted = circle_parts(g)
    assert [(f.deg, j, len(zeros)) for f, j, zeros in read] == parts
    assert read == counted


def test_factor_out_reads_a_gaussian_rational_factor_off_its_float_zeros():
    D = parse_poly("(z - (1/2 + i/3))(z + 3/4)(z - 2i)")
    p = D * parse_poly("z^2 - 5z + 1/7")
    zeros = [c.location for c in find_zeros(D)]
    # the float product of the zeros, in either order, reads back as D
    assert _factor_out(p, zeros) == D and _factor_out(p, zeros[::-1]) == D
    assert _factor_out(p, []) == ComplexPoly.one()
    # (z - 2i) swapped for (z + 2i): the product does not divide p
    assert _factor_out(p, [z if abs(z - 2j) > 1e-9 else -2j for z in zeros]) is None


def test_cofactor_coefficients_match_fft(examples):
    p, pat = examples["clean_gap"]
    can = canonical_factorization(p, pat.N)
    n = 64
    grid = np.exp(2j * np.pi * np.arange(n) / n)
    vals = eval_many(can.cofactor, grid)
    hat = np.fft.fft(vals) / n  # \hat R(k) for k = 0..n-1
    for k, c in enumerate(can.cofactor.coeffs):
        assert abs(complex(c) - hat[k]) <= 1e-12
    for k in range(can.s + 1, 8):
        assert abs(hat[k]) <= 1e-12


# -- real symbols ---------------------------------------------------------------


def test_symbol_of_shared_factor():
    g = parse_poly("-1/2 + 5/4z - 1/2z^2")
    v = real_symbol_on_circle(g, 1)
    assert v.alpha == (Fraction(5, 8), Fraction(-1, 2))
    assert v.beta == (Fraction(0),)
    # tau(t) = 5/4 - cos t, strictly positive
    assert certify_nonneg_exact(v) == (True, False)


def test_symbol_of_double_zero_factor():
    g = parse_poly("-1 + 2z - z^2")  # -(1-z)^2, whose symbol is 4 sin^2(t/2)
    v = real_symbol_on_circle(g, 1)
    assert v.alpha == (Fraction(1), Fraction(-1)) and v.beta == (Fraction(0),)
    assert certify_nonneg_exact(v) == (True, True)  # 2 - 2cos t touches zero at t = 0


def test_symbol_requires_hermitian_coefficients():
    with pytest.raises(NotHermitianSymmetric):
        real_symbol_on_circle(parse_poly("(z - 1/3)(1 - z/2)"), 1)


def test_symbol_float_tolerance():
    # every factor is exact, so the symmetry check has no float tolerance
    g = parse_poly("-1/2 + 5/4z - 1/2z^2")
    noisy = ComplexPoly([complex(c) + 1e-12j for c in g.coeffs])
    with pytest.raises(NotHermitianSymmetric):
        real_symbol_on_circle(noisy, 1)


def test_degree_guard():
    with pytest.raises(ValueError):
        canonical_factorization(parse_poly("1 + z^3"), 2)
