"""Exact polynomial arithmetic against sympy oracles, parser, serialization."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import eval_many, long_division
from lacuna import (
    ComplexPoly,
    GaussianRational,
    LacunaryPattern,
    ParseError,
    conjugate_reciprocal,
    divide_exact,
    parse_poly,
    poly_to_json,
    spectrum,
    spectrum_in,
)
from lacuna.errors import NotDivisible
import lacuna.poly_core
from lacuna.plus_cone import _ints
from lacuna.poly_core import (
    _divides,
    _gcd_mod,
    _gcd_prime,
    _image,
    _integer_parts,
    _negated_remainder,
    _pseudo_divide,
    exact_decimal,
    format_poly,
    gcd_exact,
    poly_from_json,
    real_root_count,
    real_roots,
    sign_at,
    square_free_decomposition,
)

_z = sympy.symbols("z")


def _to_sympy(p: ComplexPoly):
    expr = sympy.Integer(0)
    for k, c in enumerate(p.coeffs):
        expr += (sympy.Rational(c.real) + sympy.Rational(c.imag) * sympy.I) * _z**k
    return sympy.Poly(expr, _z, domain="QQ_I")


def _from_sympy(sp) -> ComplexPoly:
    coeffs = list(reversed(sp.all_coeffs()))
    out = []
    for c in coeffs:
        c = sympy.expand(c)
        re, im = c.as_real_imag()
        out.append(GaussianRational(Fraction(str(re)), Fraction(str(im))))
    return ComplexPoly(out)


gauss = st.builds(
    GaussianRational,
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
    st.fractions(min_value=-4, max_value=4, max_denominator=9),
)
polys = st.lists(gauss, min_size=0, max_size=7).map(ComplexPoly)

# Gaussian rationals against a reference pair of Fractions: small parts that
# collide and cancel, and large ones whose float conversion must round
_parts = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20)),
)
_operands = st.one_of(
    st.tuples(_parts, _parts).map(lambda ri: (GaussianRational(*ri), ri)),
    st.integers(-50, 50).map(lambda n: (n, (Fraction(n), Fraction(0)))),
    _parts.map(lambda f: (f, (f, Fraction(0)))),
)
_scalar_ops = {
    "+": (lambda x, y: x + y, lambda a, b, c, d: (a + c, b + d)),
    "-": (lambda x, y: x - y, lambda a, b, c, d: (a - c, b - d)),
    "*": (lambda x, y: x * y, lambda a, b, c, d: (a * c - b * d, a * d + b * c)),
    "/": (lambda x, y: x / y,
          lambda a, b, c, d: ((a * c + b * d) / (c * c + d * d), (b * c - a * d) / (c * c + d * d))),
}


def _assert_normalized(x, re, im):
    """x is the Gaussian rational re + im i, stored as its reduced int triple."""
    a, b, d = x._a, x._b, x._d
    assert type(x) is GaussianRational and type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == (re, im)
    assert type(x.real) is Fraction and (x.real, x.imag) == (re, im)


def _reference_str(re, im):
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


@given(_operands, _operands, st.sampled_from(sorted(_scalar_ops)))
def test_gaussian_rational_arithmetic_matches_fraction_pairs(x, y, op):
    (xv, (a, b)), (yv, (c, d)) = x, y
    assume(isinstance(xv, GaussianRational) or isinstance(yv, GaussianRational))
    apply, reference = _scalar_ops[op]
    if op == "/" and c == 0 and d == 0:
        with pytest.raises(ZeroDivisionError):
            apply(xv, yv)
        return
    _assert_normalized(apply(xv, yv), *reference(a, b, c, d))
    assert (xv == yv) == ((a, b) == (c, d)) and (yv == xv) == (xv == yv)


@given(st.tuples(_parts, _parts))
def test_gaussian_rational_unary_views_match_fraction_pairs(ri):
    re, im = ri
    x = GaussianRational(re, im)
    _assert_normalized(x, re, im)
    _assert_normalized(x.conjugate(), re, -im)
    _assert_normalized(-x, -re, -im)
    assert hash(x) == hash(GaussianRational(re, im)) and (im or hash(x) == hash(re))
    assert str(x) == _reference_str(re, im)
    assert repr(x) == f"GaussianRational({re!r}, {im!r})"
    assert bool(x) == bool(re or im)
    if x:
        parts = [re.numerator, re.denominator, im.numerator, im.denominator]
        assert poly_to_json(ComplexPoly([x])) == {"coeffs": [parts]}
    z, want = complex(x), complex(float(re), float(im))
    assert (z.real.hex(), z.imag.hex()) == (want.real.hex(), want.imag.hex())


@pytest.mark.parametrize("value", [0, 1, -7, True, Fraction(1, 2), Fraction(-10**30, 3)])
def test_gaussian_rational_hashes_like_the_int_or_fraction_it_equals(value):
    x = GaussianRational(value)
    assert x == value and hash(x) == hash(value)
    assert len({x, value}) == 1
    assert x in {value: "x"} and value in {x: "x"}


def test_gaussian_rational_constructor_takes_what_fraction_takes():
    assert GaussianRational(0.1).real == Fraction(0.1)
    assert GaussianRational("3/4", 2).imag == 2
    x = GaussianRational(Fraction(1, 6), Fraction(-3, 4))
    assert (x._a, x._b, x._d) == (2, -9, 12)
    assert GaussianRational(True) == GaussianRational(1) == 1 == GaussianRational(Fraction(2, 2))


@given(polys, polys)
def test_mul_matches_sympy(p, q):
    if p.deg < 0 or q.deg < 0:
        assert (p * q).deg < 0
        return
    got = p * q
    want = _from_sympy(_to_sympy(p) * _to_sympy(q))
    assert got.coeffs == want.coeffs


def _dense_mul(a: ComplexPoly, b: ComplexPoly) -> ComplexPoly:
    """Schoolbook product over every pair of coefficients, zeros included."""
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] = out[i + j] + ca * cb
    return ComplexPoly(out)


sparse_polys = st.lists(st.one_of(st.just(GaussianRational(0)), gauss), min_size=1, max_size=9).map(
    ComplexPoly
)


@given(sparse_polys, sparse_polys)
def test_mul_skipping_zeros_matches_dense_product_exact(p, q):
    assume(not p.is_zero() and not q.is_zero())
    assert (p * q).coeffs == _dense_mul(p, q).coeffs


@given(polys, polys)
def test_add_matches_sympy(p, q):
    got = p + q
    if p.deg < 0 and q.deg < 0:
        assert got.deg < 0
        return
    acc = {}
    for k, c in enumerate(p.coeffs):
        acc[k] = acc.get(k, GaussianRational(0)) + c
    for k, c in enumerate(q.coeffs):
        acc[k] = acc.get(k, GaussianRational(0)) + c
    for k, c in acc.items():
        assert got.coefficient(k) == c


@given(polys, polys)
def test_divide_exact_roundtrip(p, q):
    if p.deg < 0 or q.deg < 0:
        return
    prod = p * q
    assert divide_exact(prod, q).coeffs == p.coeffs


def test_divide_exact_rejects_nondivisor():
    p = parse_poly("1 + z + z^2")
    q = parse_poly("1 + z")
    with pytest.raises(NotDivisible):
        divide_exact(p, q)


# (num, den, quotient, remainder) by hand
_DIVISIONS = [
    # x^3 - 2x + 5 = (2x - 1)(x^2/2 + x/4 - 7/8) + 33/8
    ([5, -2, 0, 1], [-1, 2], [Fraction(-7, 8), Fraction(1, 4), Fraction(1, 2)], [Fraction(33, 8)]),
    # (x^2 - 1) / (x + 1): exact, so the remainder list is empty
    ([Fraction(-1), 0, 1], [1, 1], [-1, 1], []),
    # lower degree than the divisor: quotient empty, remainder is num
    ([3, 1], [0, 0, 2], [], [3, 1]),
    ([2j, 0j, 1 + 0j], [1j, 1 + 0j], [-1j, 1], [-1 + 2j]),  # complex floats
]


@pytest.mark.parametrize("num,den,quot,rem", _DIVISIONS)
def test_long_division_is_generic_in_the_scalar(num, den, quot, rem):
    got_q, got_r = long_division(num, den)
    assert got_q == quot and got_r == rem


@st.composite
def _division_pairs(draw):
    """(a, b): b's lead complex, a negative integer, 1, or b a constant, and
    b dividing a by construction or not."""
    lead = draw(st.sampled_from([GaussianRational(2, -3), GaussianRational(-5), GaussianRational(1)]) | gauss)
    assume(lead)
    b = ComplexPoly(draw(st.lists(gauss, max_size=0 if draw(st.booleans()) else 4)) + [lead])
    a = draw(polys)
    return (a * b if draw(st.booleans()) else a), b


def _from_parts(re: list[int], im: list[int] | None) -> ComplexPoly:
    return ComplexPoly([GaussianRational(x, y) for x, y in zip(re, im or [0] * len(re))])


def _with_examples(test):
    """The divisions of ``_DIVISIONS`` as explicit examples."""
    for num, den, _, _ in _DIVISIONS:
        test = example((ComplexPoly(num), ComplexPoly(den)))(test)
    return test


@given(_division_pairs())
@_with_examples
def test_pseudo_division_matches_long_division(ab):
    a, b = ab
    quot, rem = long_division(a.coeffs, b.coeffs)
    # S Da a = q Db b + r on the integer parts Da a and Db b
    (Da, *ap), (Db, *bp) = _integer_parts(a.coeffs), _integer_parts(b.coeffs)
    (qr, qi), (rr, ri), S = _pseudo_divide(ap, bp)
    assert S > 0 and len(rr) <= b.deg
    assert _from_parts(qr, qi) == ComplexPoly(quot) * Fraction(S * Da, Db)
    assert _from_parts(rr, ri) == ComplexPoly(rem) * (S * Da)
    assert _divides(b.coeffs, a.coeffs) == (not rem)
    if rem:
        with pytest.raises(NotDivisible):
            divide_exact(a, b)
    else:
        assert divide_exact(a, b) == ComplexPoly(quot)


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=9), st.lists(st.integers(-20, 20), min_size=1, max_size=5),
       st.integers(-6, 6).filter(bool), st.booleans())
def test_negated_remainder_is_the_primitive_negated_reference(a, b, lead, divisible):
    b = b + [lead]
    a = [int(c.real) for c in (ComplexPoly(a) * ComplexPoly(b)).coeffs] if divisible else a
    assume(a and a[-1] and len(a) >= len(b))
    rem = long_division([Fraction(c) for c in a], [Fraction(c) for c in b])[1]
    assert _negated_remainder(a, b) == (_ints([-c for c in rem]) if rem else [])


@given(polys, polys)
def test_gcd_divides_both(p, q):
    if p.deg < 0 and q.deg < 0:
        return
    g = gcd_exact(p, q)
    assert g.deg >= 0
    divide_exact(p, g)
    divide_exact(q, g)
    want = sympy.gcd(_to_sympy(p), _to_sympy(q))
    assert g.deg == sympy.Poly(want, _z).degree()


def _euclid_gcd(p: ComplexPoly, q: ComplexPoly) -> ComplexPoly:
    """Monic gcd by Euclid over Q(i) alone, the reference for the certificate."""
    a, b = p.coeffs, q.coeffs
    while b:
        a, b = b, long_division(a, b)[1]
    lead = a[-1]
    return ComplexPoly([c / lead for c in a])


def test_gcd_primes_descend_and_are_1_mod_4():
    primes = [_gcd_prime(k) for k in range(8)]
    for ell, iota in primes:
        assert sympy.isprime(ell) and ell % 4 == 1 and ell < 2**30
        assert (iota * iota + 1) % ell == 0
    assert all(a[0] > b[0] for a, b in zip(primes, primes[1:]))


_L, _IOTA = _gcd_prime(0)
_ELL = GaussianRational(_L)


def _vanishing(root: int) -> GaussianRational:
    """root - i, which maps to 0 under i -> root."""
    return GaussianRational(root, -1)


def _counting_primes(monkeypatch) -> list[int]:
    """The indices of the primes gcd_exact takes, as it takes them."""
    used = []

    def counted(k):
        used.append(k)
        return _gcd_prime(k)

    monkeypatch.setattr(lacuna.poly_core, "_gcd_prime", counted)
    return used


@pytest.mark.parametrize(
    "p,q,want",
    [
        # p = 0: gcd(0, l z + 1) is z + 1/l, not the 1 of a degree-0 image
        (ComplexPoly.zero(), ComplexPoly([1, _ELL]), ComplexPoly([Fraction(1, _L), 1])),
        # p's leading coefficient maps to 0, and so does the common factor's:
        # the images z + 2 and z + 3 are coprime, p and q are not
        (
            ComplexPoly([1, _vanishing(_IOTA)]) * ComplexPoly([2, 1]),
            ComplexPoly([1, _vanishing(_IOTA)]) * ComplexPoly([3, 1]),
            ComplexPoly([1 / _vanishing(_IOTA), 1]),
        ),
        # the same under the second embedding i -> -iota
        (
            ComplexPoly([1, _vanishing(_L - _IOTA)]) * ComplexPoly([2, 1]),
            ComplexPoly([1, _vanishing(_L - _IOTA)]) * ComplexPoly([3, 1]),
            ComplexPoly([1 / _vanishing(_L - _IOTA), 1]),
        ),
        # a denominator divisible by l has no image
        (
            ComplexPoly([1 / _ELL, 1]) * ComplexPoly([2, 1]),
            ComplexPoly([1 / _ELL, 1]) * ComplexPoly([3, 1]),
            ComplexPoly([1 / _ELL, 1]),
        ),
        (ComplexPoly([2, 1]), ComplexPoly([1 / _ELL, 1]), ComplexPoly.one()),
    ],
    ids=["zero-p", "leading-coefficient-maps-to-0", "leading-coefficient-maps-to-0-under-minus-iota",
         "common-factor-over-l", "coprime-over-l"],
)
def test_gcd_certificate_guards_fall_back_to_euclid(p, q, want, monkeypatch):
    assert _euclid_gcd(p, q) == want
    used = _counting_primes(monkeypatch)
    assert gcd_exact(p, q) == want
    # a guard skips the first prime, and a later one decides
    assert len(used) >= 2 or p.is_zero()


def _lin(c) -> ComplexPoly:
    return ComplexPoly([c, 1])


@pytest.mark.parametrize(
    "p,q",
    [
        # coprime, but z + l and z are equal modulo l
        (_lin(0), _lin(_ELL)),
        # gcd z + 1; the images share (z + 1)(z + 2), of q's degree
        (_lin(1) * _lin(2), _lin(1) * _lin(_ELL + 2)),
        # gcd z + 1; the images share (z + 1)(z + 2), below q's degree
        (_lin(1) * _lin(2) * _lin(5), _lin(1) * _lin(_ELL + 2) * _lin(7)),
        # gcd z + 1; (2 - iota) + i maps to 2 under i -> iota only
        (_lin(1) * _lin(2), _lin(1) * _lin(GaussianRational(2 - _IOTA, 1))),
    ],
    ids=["coprime", "q-degree", "below-q-degree", "one-embedding"],
)
def test_gcd_skips_an_unlucky_first_prime(p, q, monkeypatch):
    want = _euclid_gcd(p, q)
    images = [_gcd_mod(_image(p.coeffs, _L, r), _image(q.coeffs, _L, r), _L) for r in (_IOTA, _L - _IOTA)]
    assert max(len(g) for g in images) - 1 > want.deg
    used = _counting_primes(monkeypatch)
    assert gcd_exact(p, q) == want
    assert len(used) >= 2


@pytest.mark.parametrize(
    "g",
    [
        _lin(Fraction(123457, 3)),
        _lin(Fraction(1, 99991)),
        ComplexPoly([5, GaussianRational(Fraction(1, 99991), 1), 1]),
        ComplexPoly([GaussianRational(7, Fraction(40000, 7)), 0, 1]),
    ],
    ids=["numerator", "denominator", "complex-denominator", "complex-numerator"],
)
def test_gcd_beyond_one_prime_needs_more_primes(g, monkeypatch):
    # one prime reads back fractions with parts up to sqrt(l / 2) < 2^15
    p = g * parse_poly("(1 + 2i) z^3 - z + 4") * parse_poly("z^2 - 3")
    q = g * parse_poly("z^4 + (2 - i) z - 6")
    used = _counting_primes(monkeypatch)
    got = gcd_exact(p, q)
    assert got == _euclid_gcd(p, q) == g
    assert len(used) >= 2


def test_gcd_of_a_shared_factor_with_100_digit_coefficients():
    big = 10**100
    g = ComplexPoly([GaussianRational(big + 7, -3 * big), GaussianRational(Fraction(1, 3), big // 7), 1])
    p = g * parse_poly("(2 - i) z^2 + z - 1")
    q = g * parse_poly("z^3 + 5i")
    assert gcd_exact(p, q) == _euclid_gcd(p, q) == g


_wide_gauss = st.builds(
    GaussianRational,
    st.fractions(min_value=-4, max_value=4, max_denominator=2**40),
    st.fractions(min_value=-4, max_value=4, max_denominator=2**40),
)
_wide_polys = st.lists(_wide_gauss, min_size=0, max_size=5).map(ComplexPoly)


@given(_wide_polys, _wide_polys, _wide_polys)
def test_gcd_with_denominators_beyond_the_primes_matches_euclid(g, a, b):
    assume(not g.is_zero())
    p, q = g * a, g * b
    assume(not (p.is_zero() and q.is_zero()))
    assert gcd_exact(p, q) == _euclid_gcd(p, q)


def test_planted_degree_96_gcd_is_fast():
    # (4z - alpha)(4 - conj(alpha) z) r: the reflected pair is gcd(p, p*)
    rng = random.Random(96)
    alpha = GaussianRational(1, -2)
    pair = ComplexPoly([-alpha, 4]) * ComplexPoly([4, -alpha.conjugate()])
    r = ComplexPoly([GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(94)] + [1])
    p = pair * r
    ps = conjugate_reciprocal(p, 96)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        g = gcd_exact(p, ps)
        times.append(time.perf_counter() - t0)
    lead = pair.coeffs[-1]
    assert g == ComplexPoly([c / lead for c in pair.coeffs])
    # well under 10 ms on a 2-vCPU Xeon; the bound is wide against machine load
    assert min(times) <= 0.1


@given(polys, polys, polys, st.booleans())
def test_gcd_with_planted_factor_matches_euclid(g, a, b, derivative):
    assume(not g.is_zero())
    p = g * a
    q = p.derivative() if derivative else g * b
    assume(not (p.is_zero() and q.is_zero()))
    assert gcd_exact(p, q) == _euclid_gcd(p, q)


def test_square_free_input_takes_one_gcd(monkeypatch):
    p = parse_poly("(2+i)z^24 - 3z^17 + (1-2i)z^5 + z - 7")
    sp = _to_sympy(p)
    assert sympy.gcd(sp, sp.diff(_z)).degree() == 0
    calls = []

    def counting_gcd(a, b):
        calls.append((a, b))
        return gcd_exact(a, b)

    monkeypatch.setattr(lacuna.poly_core, "gcd_exact", counting_gcd)
    lead = p.coeffs[-1]
    assert square_free_decomposition(p) == [(ComplexPoly([c / lead for c in p.coeffs]), 1)]
    assert len(calls) == 1


def _assert_rebuilds(p, parts):
    rebuilt = ComplexPoly.one()
    for f, mult in parts:
        for _ in range(mult):
            rebuilt = rebuilt * f
    # rebuild agrees up to the constant that sympy normalizes away
    ratio = None
    for k in range(p.deg + 1):
        c = rebuilt.coefficient(k)
        if c:
            ratio = p.coefficient(k) / c
            break
    assert all(
        p.coefficient(k) == rebuilt.coefficient(k) * ratio for k in range(p.deg + 1)
    )


def test_square_free_decomposition_oracle():
    # (1+z)^3 (2-z)^2 (1+z+z^2), multiplicities 3, 2, 1
    p = parse_poly("(1+z)^3 (2-z)^2 (1+z+z^2)")
    parts = square_free_decomposition(p)
    by_mult = {mult: f for f, mult in parts if f.deg > 0}
    assert sorted(mult for f, mult in parts if f.deg > 0) == [1, 2, 3]
    assert by_mult[3].deg == 1 and by_mult[2].deg == 1 and by_mult[1].deg == 2
    _assert_rebuilds(p, parts)


def test_square_free_decomposition_of_a_degree_48_double_zero():
    # Euclid over Q(i) on an input that is not square-free: a seeded
    # Gaussian-integer polynomial of degree 46 times (z - 1)^2
    rng = random.Random(48)
    base = ComplexPoly([GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(46)]
                       + [GaussianRational(rng.randint(1, 9), rng.randint(-9, 9))])
    p = base * parse_poly("(z - 1)^2")
    parts = square_free_decomposition(p)
    assert [(f.deg, mult) for f, mult in parts] == [(46, 1), (1, 2)]
    assert parts[1][0] == parse_poly("z - 1")
    _assert_rebuilds(p, parts)


@given(polys)
def test_square_free_parts_are_square_free(p):
    if p.deg <= 0:
        return
    for f, _mult in square_free_decomposition(p):
        if f.deg <= 0:
            continue
        sp = _to_sympy(f)
        assert sympy.gcd(sp, sp.diff(_z)).degree() == 0


def _assert_yun_parts(p: ComplexPoly, parts) -> None:
    """Each part monic and square-free, the parts pairwise coprime, their
    multiplicities increasing, and lead * prod f^j = p."""
    one = ComplexPoly.one()
    assert all(f.deg > 0 and f.coeffs[-1] == 1 for f, _ in parts)
    assert all(_euclid_gcd(f, f.derivative()) == one for f, _ in parts)
    assert all(_euclid_gcd(f, h) == one for (f, _), (h, _) in itertools.combinations(parts, 2))
    mults = [j for _, j in parts]
    assert mults == sorted(set(mults))
    rebuilt = ComplexPoly.constant(p.coeffs[-1])
    for f, j in parts:
        for _ in range(j):
            rebuilt = rebuilt * f
    assert rebuilt == p


def _yun_inputs(count: int):
    """Seeded products of 1 to 4 Gaussian-rational factors of degree 1 to 3,
    each to a power of 1 to 6; a fifth of the factors are drawn again from
    those already made, so a product may hold one factor twice."""
    rng = random.Random(49)

    def coefficient():
        re, im = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
        return GaussianRational(re, im)

    pool = []
    for _ in range(count):
        p = ComplexPoly.one()
        for _ in range(rng.randint(1, 4)):
            if pool and rng.random() < 0.2:
                f = rng.choice(pool)
            else:
                f = ComplexPoly([coefficient() for _ in range(rng.randint(1, 3))] + [coefficient() or 1])
                pool.append(f)
            for _ in range(rng.randint(1, 6)):
                p = p * f
        yield p


def test_square_free_decomposition_of_seeded_products():
    for p in _yun_inputs(300):
        _assert_yun_parts(p, square_free_decomposition(p))


@pytest.mark.parametrize(
    "text,parts,gcds",
    [
        # the last part comes after a nontrivial one, at d = 2 c' and d = c'
        ("(1 + z)^2 (1 - z^3)^5", [("z + 1", 2), ("z^3 - 1", 5)], 3),
        ("(z - 1)(z - 2)^3", [("z - 1", 1), ("z - 2", 3)], 2),
        ("(z - 1)(z - 2)^2", [("z - 1", 1), ("z - 2", 2)], 2),  # ends with d = 0
        ("(1 + z^3)^6", [("z^3 + 1", 6)], 1),  # d = 5 c' at once
    ],
)
def test_yun_returns_its_last_part_without_a_gcd(text, parts, gcds, monkeypatch):
    calls = []

    def counting_gcd(a, b):
        calls.append((a, b))
        return gcd_exact(a, b)

    monkeypatch.setattr(lacuna.poly_core, "gcd_exact", counting_gcd)
    p = parse_poly(text)
    got = square_free_decomposition(p)
    assert got == [(parse_poly(f), j) for f, j in parts]
    _assert_yun_parts(p, got)
    assert len(calls) <= gcds


# -- real roots ---------------------------------------------------------------


def _real_roots_inputs(count: int):
    """Seeded integer polynomials: products of rational linear factors
    (denominators up to 6) and of quadratics with and without real roots,
    each to a power of 1 to 3."""
    rng = random.Random(43)
    for _ in range(count):
        expr = sympy.Integer(rng.choice([-3, -1, 1, 2]))
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                factor = rng.randint(1, 6) * _z - rng.randint(-12, 12)
            else:
                factor = rng.randint(1, 3) * _z**2 + rng.randint(-5, 5) * _z + rng.randint(-5, 5)
            expr *= factor ** rng.randint(1, 3)
        yield [int(c) for c in reversed(sympy.Poly(expr, _z).all_coeffs())]


def test_real_roots_match_sympy():
    seen = {"rational": 0, "irrational": 0}
    for P in _real_roots_inputs(200):
        rational, intervals, S = real_roots(P)
        want = list(dict.fromkeys(sympy.real_roots(sympy.Poly(list(reversed(P)), _z))))
        assert [sympy.Rational(x.numerator, x.denominator) for x in rational] == [r for r in want if r.is_rational], P
        irrational = [r for r in want if not r.is_rational]
        assert len(intervals) == len(irrational), P
        for (a, b), r in zip(intervals, irrational):
            assert sympy.Rational(a.numerator, a.denominator) < r <= sympy.Rational(b.numerator, b.denominator), P
        assert all(b <= a for (_, b), (a, _) in zip(intervals, intervals[1:])), P
        assert len(rational) + len(intervals) == real_root_count(P)[0]
        # S is P's primitive square-free part, up to sign
        sf = [int(c) for c in reversed(sympy.Poly(list(reversed(P)), _z).sqf_part().all_coeffs())]
        assert S in (_ints(sf), [-c for c in _ints(sf)]), P
        seen["rational"] += len(rational)
        seen["irrational"] += len(intervals)
    assert seen["rational"] > 100 and seen["irrational"] > 100, seen


@pytest.mark.parametrize(
    "P,rational,intervals",
    [
        ([5], [], 0),  # a constant
        ([1, 0, 1], [], 0),  # x^2 + 1: no real root
        ([-1, 3], [Fraction(1, 3)], 0),  # 3x - 1: the denominator is the lead
        ([1, -2, 1], [1], 0),  # (x - 1)^2
        # x (2x - 1)(2x + 1)(x - 1)(x + 1): roots at bisection points
        ([0, 1, 0, -5, 0, 4], [-1, Fraction(-1, 2), 0, Fraction(1, 2), 1], 0),
        ([-2, 0, 1], [], 2),  # x^2 - 2
        ([0, -2, 0, 1], [0], 2),  # x (x^2 - 2): a rational root between two others
    ],
)
def test_real_roots_edge_cases(P, rational, intervals):
    got, isolated, S = real_roots(P)
    assert got == rational and len(isolated) == intervals
    assert all(sign_at(S, x) == 0 for x in got)
    # each interval is shorter than 1 / |lead S| and ends where S is nonzero
    assert all((b - a) * abs(S[-1]) < 1 and sign_at(S, b) for a, b in isolated)


def test_sign_at_reads_the_exact_value():
    P = [-1, 3]  # 3x - 1
    assert [sign_at(P, Fraction(x)) for x in ("0", "1/3", "1/2", "-7/5")] == [-1, 0, 1, -1]
    assert sign_at([0, 0, 1], Fraction(-1, 2**80)) == 1


# -- conjugate reciprocal ----------------------------------------------------


def test_conjugate_reciprocal_reverses_and_conjugates():
    p = parse_poly("(1+2i) + 3z + (4-i)z^3")
    ps = conjugate_reciprocal(p, 3)
    assert ps.coefficient(0) == GaussianRational(4, 1)
    assert ps.coefficient(2) == GaussianRational(3)
    assert ps.coefficient(3) == GaussianRational(1, -2)


def test_conjugate_reciprocal_padding_shifts():
    # N larger than deg p: p* picks up a factor z^{N-deg}
    p = parse_poly("1 + z")
    ps = conjugate_reciprocal(p, 3)
    assert spectrum(ps) == (2, 3)


@given(polys, st.integers(min_value=0, max_value=3))
def test_conjugate_reciprocal_involution(p, pad):
    if p.deg < 0:
        return
    N = p.deg + pad
    ps = conjugate_reciprocal(p, N)
    back = conjugate_reciprocal(ps, N)
    # involution up to the z^pad shift structure: exact when pad=0
    if pad == 0:
        assert back.coeffs == p.coeffs


def test_conjugate_reciprocal_reflects_zeros():
    p = parse_poly("(z - 1/2)(z - 3)")
    ps = conjugate_reciprocal(p, 2)
    # zeros of p* are 1/conj(zeros of p): 2 and 1/3
    assert abs(complex(eval_many(ps, [2.0])[0])) < 1e-12
    assert abs(complex(eval_many(ps, [1 / 3])[0])) < 1e-12


# -- parser -------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,coeffs",
    [
        ("1 + z", [(1, 0), (1, 0)]),
        ("(1+z)^2", [(1, 0), (2, 0), (1, 0)]),
        ("2z^3", [(0, 0), (0, 0), (0, 0), (2, 0)]),
        ("z/2 - 1/4", [(Fraction(-1, 4), 0), (Fraction(1, 2), 0)]),
        ("i z - i", [(0, -1), (0, 1)]),
        ("(2 - z)(z - 1/2)", [(-1, 0), (Fraction(5, 2), 0), (-1, 0)]),
    ],
)
def test_parser_table(text, coeffs):
    p = parse_poly(text)
    for k, (re, im) in enumerate(coeffs):
        c = p.coefficient(k)
        assert c.real == Fraction(re) and c.imag == Fraction(im)


def test_parser_decimal_is_exact():
    p = parse_poly("0.5 + z")
    assert p.coeffs[0] == GaussianRational(Fraction(1, 2))
    # 0.1 is 1/10, not the double nearest to it
    assert parse_poly("0.1z").coeffs[1] == GaussianRational(Fraction(1, 10))
    assert parse_poly("1.5e3 + 2.5E-2z + .5z^2") == parse_poly("1500 + z/40 + z^2/2")
    # a decimal divisor takes the same division path as an integer one
    assert parse_poly("z/4.0") == parse_poly("z/4")


@pytest.mark.parametrize("literal", ["1e999999999", "0e999999999", "1e-999999999"])
def test_parser_refuses_a_huge_decimal_exponent_before_expanding_it(literal):
    for text in (literal, f"1 + {literal}z", f"z*{literal}"):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="decimal exponent"):
            parse_poly(text)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "text,reason",
    [
        ("1" + "0" * 5000 + " + z", "integer literal of 5001 digits"),
        ("[[1" + "0" * 5000 + ",0],[1,0]]", "invalid JSON"),
    ],
    ids=["expression", "json"],
)
def test_parser_refuses_an_integer_literal_past_the_conversion_limit(text, reason):
    # Python converts at most 4,300 digits of an integer string; a longer
    # literal is a parse error, not the ValueError int() and json.loads raise
    start = time.perf_counter()
    with pytest.raises(ParseError, match=reason):
        parse_poly(text)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "literal",
    ["5e-324", "2.5e-324", "0.0000000005e-314", "1.7976931348623157e308",
     "17976931348623157e292", "2.2250738585072014e-308", "0.1", "123.456e-7"],
)
def test_exact_decimal_keeps_every_finite_nonzero_double(literal):
    value = exact_decimal(literal)
    assert value == Fraction(literal) and float(value) == float(literal) != 0
    assert parse_poly(f"{literal}z").coeffs[1] == GaussianRational(value)


def test_a_double_enters_at_its_binary_value():
    p = ComplexPoly([0.1 + 0.5j, -0.0, 3.0])
    assert p.coeffs == (GaussianRational(Fraction(0.1), Fraction(1, 2)), GaussianRational(), GaussianRational(3))
    assert p.coeffs[0] != GaussianRational(Fraction(1, 10), Fraction(1, 2))
    assert [complex(c) for c in p.coeffs] == [0.1 + 0.5j, 0j, 3 + 0j]
    q = ComplexPoly([0.1, 0.5j])
    assert q.coeffs == (GaussianRational(Fraction(3602879701896397, 2**55)), GaussianRational(0, Fraction(1, 2)))


def test_a_double_times_a_polynomial_is_exact():
    # p * 0.7 is p times the exact double 0.7, not a rounded float product
    p = parse_poly("(z - 1/3)(2 + i z)^2")
    assert p * 0.7 == p * GaussianRational(Fraction(0.7)) == 0.7 * p
    assert p * (0.7 + 0.3j) == p * GaussianRational(Fraction(0.7), Fraction(0.3))
    assert p * 0.7 != ComplexPoly([complex(c) * 0.7 for c in p.coeffs])


def test_parser_implicit_multiplication():
    assert parse_poly("(1+z)(1-z)").coeffs == parse_poly("1 - z^2").coeffs


def test_parser_power_matches_binomials_and_repeated_products():
    p = parse_poly("(1+z)^512")
    assert p.coeffs == tuple(GaussianRational(math.comb(512, k)) for k in range(513))
    base = parse_poly("3+2i - (1-4i)z")
    product = ComplexPoly.one()
    for _ in range(37):
        product = product * base
    assert parse_poly("(3+2i - (1-4i)z)^37") == product


@pytest.mark.parametrize("bad", ["", "z^", "1 +", "(1+z", "z^9999", "1/(1+z)", "^2"])
def test_parser_rejects(bad):
    with pytest.raises(ParseError):
        parse_poly(bad)


def test_parse_json_exact_roundtrip():
    p = parse_poly("(1/3 + 2i)z^2 - 7")
    obj = poly_to_json(p)
    q = poly_from_json(obj)
    assert q.coeffs == p.coeffs


def test_parse_json_float_roundtrip():
    # each double is read at its exact value, which the exact schema keeps
    p = parse_poly('{"coeffs_f": [[0.25, 0], [-1.5, 0.1]]}')
    assert p.coeffs == (GaussianRational(Fraction(1, 4)), GaussianRational(Fraction(-3, 2), Fraction(0.1)))
    q = poly_from_json(poly_to_json(p))
    assert q.coeffs == p.coeffs


def test_parse_poly_accepts_json_text():
    import json

    p = parse_poly("1 + z/2")
    q = parse_poly(json.dumps(poly_to_json(p)))
    assert q.coeffs == p.coeffs


def test_format_poly_roundtrip():
    p = parse_poly("-1/2 + 5/4z - 1/2z^2")
    assert parse_poly(format_poly(p)).coeffs == p.coeffs


# -- patterns and spectra ------------------------------------------------------


def test_pattern_basics():
    pat = LacunaryPattern(6, [3])
    assert pat.M == 1
    assert 3 not in pat and 0 in pat and 6 in pat
    assert pat.allowed == (0, 1, 2, 4, 5, 6)


def test_pattern_rejects_endpoints():
    with pytest.raises(ValueError):
        LacunaryPattern(4, [0])
    with pytest.raises(ValueError):
        LacunaryPattern(4, [4])
    with pytest.raises(ValueError):
        LacunaryPattern(4, [5])


def test_pattern_json_roundtrip():
    pat = LacunaryPattern(9, [2, 5, 7])
    assert LacunaryPattern.from_json(pat.to_json()) == pat


def test_spectrum_exact():
    assert spectrum(parse_poly("1 + z^4")) == (0, 4)
    assert spectrum(parse_poly("z^2")) == (2,)
    # a tiny double is a nonzero coefficient: no cutoff applies
    assert spectrum(ComplexPoly([1.0, 1e-14, 1.0])) == (0, 1, 2)


def test_spectrum_in():
    pat = LacunaryPattern(6, [3])
    assert spectrum_in(parse_poly("1 + z^2 + z^6"), pat)
    assert not spectrum_in(parse_poly("1 + z^3"), pat)
    assert not spectrum_in(parse_poly("z^7"), pat)


@given(polys)
def test_eval_many_matches_horner(p):
    import numpy as np

    pts = np.array([0.3 + 0.1j, -1.0 + 0j, 0.9j])
    vals = eval_many(p, pts)
    for pt, got in zip(pts, vals):
        want = sum(complex(c) * pt**k for k, c in enumerate(p.coeffs))
        assert abs(got - want) <= 1e-9 * (1 + abs(want))
