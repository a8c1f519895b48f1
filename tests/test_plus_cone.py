"""The nonnegativity cone: exact certificates, the plus verdict, dim+."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import long_division
from lacuna import (
    CoefVector,
    SolverStalled,
    certify_nonneg_exact,
    find_plus_in_slice,
    is_plus,
    plus_dimension,
)
from lacuna.plus_cone import _cayley_numerator, _cayley_poly, _circle_zeros, _taylor
from lacuna.poly_core import ComplexPoly, GaussianRational, real_root_count

V1_BASIS = np.array([[0.0, 1.0, 0.0]])
V2_BASIS = np.array(
    [[1.0, 0.0, -1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]]
)


def _vec(*entries):
    return CoefVector.from_array(np.array(entries, dtype=float))


def _exact_vec(*entries):
    return CoefVector.from_array([Fraction(e) for e in entries])


def _tau(v: CoefVector, t) -> np.ndarray:
    """Reference: tau_v at t (scalar or array) by its exponential sum,
    gamma_0 + 2 Re sum_k gamma_k e^{ikt}, in floats."""
    t = np.asarray(t, dtype=float)
    out = np.full_like(t, 2 * float(v.alpha[0]))
    for k, (a, b) in enumerate(zip(v.alpha[1:], v.beta), start=1):
        out += 2 * (complex(float(a), float(b)) * np.exp(1j * k * t)).real
    return out


def _lowered(v: CoefVector, m) -> CoefVector:
    """The vector of tau_v - m: alpha_0 - m / 2."""
    return CoefVector(v.d, (Fraction(v.alpha[0]) - Fraction(m) / 2, *v.alpha[1:]), v.beta)


# -- exact certification ---------------------------------------------------------


@pytest.mark.parametrize(
    "entries,nonneg,touches",
    [
        ((1, -1, 0), True, True),  # 2 - 2cos t
        ((0, 1, 0), False, None),  # 2cos t
        ((1, 0, 0), True, False),  # constant 2
        ((Fraction(5, 8), Fraction(-1, 2), 0), True, False),  # 5/4 - cos t
        ((0, 0, 0), True, True),  # identically zero
        ((1, 0, 0, -1, 0), True, True),  # 2 + 2 sin t, zero at -pi/2
        ((-1, 0, 0), False, None),  # constant -2
        ((1, Fraction(-3, 5), Fraction(-4, 5)), True, True),  # touch off-axis
        ((1, 0, -1, 0, 0), True, True),  # |z^2-1|^2 = 2 - 2cos 2t, zeros at 0, pi
    ],
)
def test_certify_nonneg_exact_table(entries, nonneg, touches):
    got_nonneg, got_touches = certify_nonneg_exact(_exact_vec(*entries))
    assert got_nonneg is nonneg
    if nonneg:
        assert got_touches is touches


def test_certify_off_axis_touch_location():
    # tau = 2 - sqrt2 cos t + sqrt2 sin t has min 2 - 2 = 0 at t = -pi/4;
    # rational surrogate: 2 - 2cos(t + pi/4) is irrational, so instead use
    # alpha=(1,-1/2), beta=(1/2): tau = 2 - cos t + sin t, min = 2 - sqrt2 > 0
    got_nonneg, got_touches = certify_nonneg_exact(
        _exact_vec(1, Fraction(-1, 2), Fraction(-1, 2))
    )
    assert got_nonneg is True and got_touches is False


@given(
    st.lists(
        st.fractions(min_value=-2, max_value=2, max_denominator=8),
        min_size=3,
        max_size=7,
    ).filter(lambda xs: len(xs) % 2 == 1)
)
def test_certify_agrees_with_grid_minimum(entries):
    # the grid minimum is above the true one by at most max|tau''| h^2 / 8
    v = CoefVector.from_array([Fraction(e) for e in entries])
    nonneg, _ = certify_nonneg_exact(v)
    n = 2048
    val = float(np.min(_tau(v, 2 * np.pi * np.arange(n) / n)))
    curvature = 2 * sum(k * k * (abs(a) + abs(b)) for k, (a, b) in enumerate(zip(v.alpha[1:], v.beta), start=1))
    band = 1e-9
    if val - float(curvature) * (2 * np.pi / n) ** 2 / 8 > band:
        assert nonneg
    elif val < -band:
        assert not nonneg


def _square_vector(q: ComplexPoly) -> list[Fraction]:
    """Coefficient vector of |q(e^{it})|^2, gamma_k = sum_l q_{l+k} conj(q_l)."""
    c = q.coeffs
    d = len(c) - 1
    gamma = [sum((c[l + k] * c[l].conjugate() for l in range(d + 1 - k)), GaussianRational())
             for k in range(d + 1)]
    return [gamma[0].real / 2] + [g.real for g in gamma[1:]] + [g.imag for g in gamma[1:]]


def _sympy_oracle(entries) -> tuple[bool, bool]:
    """(nonneg, touches) from sympy: square-free factors and real-root counts
    of P(x) = (1+x^2)^d tau(2 arctan x), built from e^{ikt} = ((1+ix)/(1-ix))^k."""
    v = CoefVector.from_array([Fraction(e) for e in entries])
    d = v.d
    x = sympy.Symbol("x", real=True)
    up, down = 1 + sympy.I * x, 1 - sympy.I * x
    gam = [2 * sympy.Rational(v.alpha[0])] + [
        sympy.Rational(v.alpha[k]) + sympy.I * sympy.Rational(v.beta[k - 1])
        for k in range(1, d + 1)
    ]
    expr = gam[0] * (up * down) ** d
    for k in range(1, d + 1):
        expr += gam[k] * up ** (d + k) * down ** (d - k)
        expr += sympy.conjugate(gam[k]) * down ** (d + k) * up ** (d - k)
    coeffs = sympy.Poly(sympy.expand(expr), x).all_coeffs()
    assert all(sympy.im(c) == 0 for c in coeffs)
    P = sympy.Poly([sympy.re(c) for c in coeffs], x, domain="QQ")
    if P.is_zero:
        return True, True
    lead, factors = P.sqf_list()
    real_odd = any(f.count_roots() > 0 for f, m in factors if m % 2 == 1)
    if lead < 0 or real_odd:
        return False, False
    touches = P.degree() < 2 * d or any(f.count_roots() > 0 for f, _ in factors)
    return True, touches


_small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=6)


@st.composite
def _shifted_squares(draw):
    """|q|^2 + c for a small Gaussian-integer q: touching zeros show up often."""
    n = draw(st.integers(min_value=1, max_value=4))
    parts = draw(st.lists(st.integers(-2, 2), min_size=2 * n, max_size=2 * n))
    q = ComplexPoly([GaussianRational(parts[2 * j], parts[2 * j + 1]) for j in range(n)])
    if q.is_zero():
        q = ComplexPoly([1])
    entries = _square_vector(q)
    entries[0] += draw(st.sampled_from([0, 0, Fraction(-1, 100), Fraction(1, 50)]))
    return entries


@given(
    st.one_of(
        st.lists(_small_fractions, min_size=1, max_size=9).filter(lambda xs: len(xs) % 2 == 1),
        _shifted_squares(),
    )
)
def test_certify_matches_sympy_oracle(entries):
    got = certify_nonneg_exact(CoefVector.from_array([Fraction(e) for e in entries]))
    assert got == _sympy_oracle(entries)


@pytest.mark.parametrize(
    "u",
    [
        GaussianRational(1),
        GaussianRational(-1),
        GaussianRational(0, 1),
        GaussianRational(Fraction(3, 5), Fraction(4, 5)),
    ],
    ids=["1", "-1", "i", "(3+4i)/5"],
)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_certify_fejer_riesz_square_touching_to_order_2k(u, k):
    # q = (z - u)^k r: |q|^2 vanishes to order 2k at u and nowhere else on
    # the circle, since r = 3 + iz + z^2 has zeros of modulus (sqrt13 +- 1)/2
    q = ComplexPoly([GaussianRational(3), GaussianRational(0, 1), GaussianRational(1)])
    for _ in range(k):
        q = q * ComplexPoly([-u, GaussianRational(1)])
    entries = _square_vector(q)
    assert certify_nonneg_exact(CoefVector.from_array(entries)) == (True, True)
    entries[0] -= Fraction(1, 200)  # |q|^2 - 1/100
    assert certify_nonneg_exact(CoefVector.from_array(entries)) == (False, False)


@pytest.mark.parametrize("power", [1, 2, 3, 4, 5, 6])
def test_certify_rotated_sine_power(power):
    # sin(t - t0)^power with cos t0 = 3/5, sin t0 = 4/5: two circle zeros of
    # order `power`, off the axis, so the Sturm levels decide the parity
    g1 = GaussianRational(Fraction(-2, 5), Fraction(-3, 10))  # e^{-i t0} / 2i
    s = ComplexPoly([g1.conjugate(), GaussianRational(), g1])  # e^{it} sin(t - t0)
    laurent = ComplexPoly([1])
    for _ in range(power):
        laurent = laurent * s
    c = laurent.coeffs
    entries = [c[power].real / 2] + [c[power + k].real for k in range(1, power + 1)]
    entries += [c[power + k].imag for k in range(1, power + 1)]
    want = (True, True) if power % 2 == 0 else (False, False)
    assert certify_nonneg_exact(CoefVector.from_array(entries)) == want


# -- the integer real-root kernel against the Fraction chain ---------------------


def _ref_cayley_numerator(v: CoefVector) -> list[Fraction]:
    """P with tau(2 arctan x) = P(x) / (1+x^2)^d, over the rationals."""
    P: list[Fraction] = []
    for k in range(v.d + 1):
        a = 2 * Fraction(v.alpha[k])
        b = 2 * Fraction(v.beta[k - 1]) if k else Fraction(0)
        re_ci = (a, -b, -a, b)
        P = [
            (P[j] if j < len(P) else 0) + (P[j - 2] if j >= 2 else 0) + math.comb(2 * k, j) * re_ci[j % 4]
            for j in range(2 * k + 1)
        ]
    while P and not P[-1]:
        P.pop()
    return P


def _ref_sturm_level(p: list[Fraction]) -> tuple[int, list[Fraction]]:
    """Distinct real roots of p and the monic gcd(p, p'), by a Sturm chain
    of Fraction remainders."""
    chain = [p, [c * k for k, c in enumerate(p) if k]]
    while chain[-1]:
        chain.append([-c for c in long_division(chain[-2], chain[-1])[1]])
    chain.pop()
    at_pos_inf = [1 if q[-1] > 0 else -1 for q in chain]
    at_neg_inf = [s * (-1) ** (len(q) - 1) for s, q in zip(at_pos_inf, chain)]

    def changes(signs):
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    g = chain[-1]
    return changes(at_neg_inf) - changes(at_pos_inf), [c / g[-1] for c in g]


def _ref_certify(v: CoefVector) -> tuple[bool, bool]:
    """``certify_nonneg_exact`` on the Fraction chain."""
    P = _ref_cayley_numerator(v)
    if not P:
        return True, True
    deficit = 2 * v.d - (len(P) - 1)
    if P[-1] < 0 or deficit % 2 == 1:
        return False, False
    touches, odd, sign = deficit > 0, 0, 1
    while len(P) > 1:
        roots, P = _ref_sturm_level(P)
        odd, sign, touches = odd + sign * roots, -sign, touches or roots > 0
    return (False, False) if odd else (True, touches)


def _vector_of_laurent(L: ComplexPoly, d: int) -> CoefVector:
    """The vector of tau(t) = e^{-idt} L(e^{it}), L Hermitian of degree 2d."""
    c = [L.coefficient(j) for j in range(2 * d + 1)]
    return CoefVector.from_array(
        [c[d].real / 2] + [c[d + k].real for k in range(1, d + 1)] + [c[d + k].imag for k in range(1, d + 1)]
    )


_CIRCLE_POINTS = [GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1),
                  GaussianRational(Fraction(3, 5), Fraction(4, 5)),
                  GaussianRational(Fraction(-5, 13), Fraction(12, 13))]


@st.composite
def _structured_symbols(draw):
    """Products of |q|^2 (q random, or (z - u)^k for a rational circle point
    u: a touching zero of order 2k) and sin(t - t0)^j (zeros of odd order j
    at t0 and t0 + pi), shifted by a small constant or not, of degree <= 12."""
    L, d = ComplexPoly([1]), 0
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["square", "touch", "sine"]))
        u = draw(st.sampled_from(_CIRCLE_POINTS))
        if kind == "sine":
            g1 = GaussianRational(0, Fraction(-1, 2)) * u.conjugate()  # e^{-i t0} / 2i
            block, e = ComplexPoly([g1.conjugate(), 0, g1]), 1
            j = draw(st.integers(1, 3))
        else:
            if kind == "square":
                parts = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=8))
                q = ComplexPoly([GaussianRational(a, b) for a, b in zip(parts[::2], parts[1::2])])
                q = ComplexPoly([1]) if q.is_zero() else q
            else:
                q = ComplexPoly([-u, 1])
            # q(z) times its conjugate reciprocal: |q|^2 on the circle
            block, e = q * ComplexPoly([c.conjugate() for c in reversed(q.coeffs)]), q.deg
            j = draw(st.integers(1, 2)) if kind == "touch" else 1
        for _ in range(j):
            if d + e <= 12:
                L, d = L * block, d + e
    v = _vector_of_laurent(L, d)
    shift = draw(st.sampled_from([0, 0, Fraction(-1, 100), Fraction(1, 50)]))
    return CoefVector(v.d, (v.alpha[0] + shift, *v.alpha[1:]), v.beta)


@given(
    st.one_of(
        st.integers(0, 12).flatmap(
            lambda d: st.lists(_small_fractions, min_size=2 * d + 1, max_size=2 * d + 1)
        ).map(lambda xs: CoefVector.from_array([Fraction(x) for x in xs])),
        _structured_symbols(),
    )
)
@settings(deadline=None)
def test_real_root_kernel_matches_the_fraction_chain(v):
    # the integer numerator is a positive multiple of the rational one, and
    # every level gives the same root count and a positive multiple of its gcd
    assert certify_nonneg_exact(v) == _ref_certify(v)
    P, Q = _ref_cayley_numerator(v), _cayley_numerator(v)
    assert len(P) == len(Q) and all(Fraction(c) / Q[-1] == x / P[-1] for c, x in zip(Q, P))
    assert not Q or (Q[-1] > 0) == (P[-1] > 0)
    while len(P) > 1:
        (want, P), (got, Q) = _ref_sturm_level(P), real_root_count(Q)
        assert got == want and Q[-1] > 0 and math.gcd(*Q) == 1
        assert [Fraction(c, Q[-1]) for c in Q] == P


def test_real_root_count_small_cases():
    assert real_root_count([-1, 0, 1]) == (2, [1])  # x^2 - 1
    assert real_root_count([1, 0, 1]) == (0, [1])  # x^2 + 1
    assert real_root_count([1, -2, 1]) == (1, [-1, 1])  # (x - 1)^2
    assert real_root_count([0, 0, 0, -6]) == (1, [0, 0, 1])  # -6 x^3
    assert real_root_count([5]) == (0, [1])


def test_certify_is_fast_on_a_degree_32_square():
    # |h|^2 for a random Gaussian-integer h of degree 32: a degree-64 Cayley
    # numerator with 69-bit coefficients.  The kernel takes 0.06-0.08 s and the
    # Fraction chain ~30 s on a 2-vCPU Xeon; the bound leaves room for load
    rng = random.Random(32)
    h = ComplexPoly([GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(33)])
    v = CoefVector.from_array(_square_vector(h))
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        assert certify_nonneg_exact(v) == (True, False)
        best = min(best, time.perf_counter() - start)
    assert best <= 2.0, best


# -- the minimum, checked exactly: tau - m is plus and touches zero ---------------


@pytest.mark.parametrize(
    "entries,want_val",
    [
        ((5 / 8, -1 / 2, 0), 1 / 4),
        ((1, -1, 0), 0.0),
        ((0, 1, 0), -2.0),
        ((1, 1, -1, 0, 0), -2.0),  # v1 + v2 from the reference subspace
    ],
)
def test_min_on_circle_values(entries, want_val):
    v = _vec(*entries)
    assert certify_nonneg_exact(_lowered(v, want_val)) == (True, True)
    assert not is_plus(_lowered(v, want_val + 2**-20))


def test_min_on_circle_location():
    # 2cos t + 2 = |1 + z|^2 vanishes only at t = pi (x = infinity), to order 2
    v = _lowered(_vec(0, 1, 0), -2)
    assert certify_nonneg_exact(v) == (True, True)
    assert _circle_zeros(v) == ([(None, 2)], [])


def test_min_on_circle_constant():
    v = _vec(3.5)
    assert certify_nonneg_exact(v) == (True, False)
    assert _cayley_numerator(_lowered(v, 7)) == []  # tau = gamma_0 = 2 alpha_0 = 7


# -- the plus verdict ------------------------------------------------------------


def test_is_plus_positive_definite():
    v = _vec(5 / 8, -1 / 2, 0)
    assert is_plus(v) is True
    assert certify_nonneg_exact(v) == (True, False)


def test_is_plus_negative_has_witness_point():
    v = _vec(0, 1, 0)
    assert is_plus(v) is False
    assert _tau(v, np.pi) == -2.0


def test_is_plus_boundary_gram():
    # touches zero at t=0
    assert is_plus(_vec(1, -1, 0)) is True


def test_is_plus_exact_path():
    assert is_plus(_exact_vec(1, -1, 0)) is True
    assert is_plus(_exact_vec(0, 1, 0)) is False


def test_the_exact_modules_bind_no_numpy():
    # the cone and the polynomial kernel run on integers and Fractions alone
    import lacuna.plus_cone
    import lacuna.poly_core

    for module in (lacuna.plus_cone, lacuna.poly_core):
        assert not any(getattr(x, "__name__", None) == "numpy" for x in vars(module).values()), module
    # rational and float vectors alike are certified there
    assert is_plus(_exact_vec(1, 0, 0, -1, 0)) is True  # 2 + 2 sin t
    assert is_plus(_exact_vec(-1, 0, 0)) is False
    assert is_plus(CoefVector(1, (1.0, -1.0), (0.0,))) is True  # 2 - 2cos t


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("power", [3, 4])
def test_is_plus_at_high_order_circle_zeros(power, exact):
    # tau = (2 - 2cos t)^power = |(1 - z)^power|^2 touches zero at t = 0 to
    # order 2 power; for power 3, alpha = (10, -15, 6, -1) and beta = 0
    q = [(-1) ** j * math.comb(power, j) for j in range(power + 1)]
    g = [sum(q[j] * q[j + k] for j in range(power + 1 - k)) for k in range(power + 1)]
    num = Fraction if exact else float
    v = CoefVector(power, (num(g[0]) / 2, *map(num, g[1:])), (num(0),) * power)
    assert is_plus(v) is True
    if exact:
        assert certify_nonneg_exact(v) == (True, True)


# -- slices and dimension -----------------------------------------------------------


def test_find_plus_in_full_space_slice():
    got = find_plus_in_slice(np.eye(3))
    assert got is not None and got.alpha[0] == 1
    assert all(isinstance(x, Fraction) for x in got.entries)
    assert certify_nonneg_exact(got)[0]


def test_find_plus_in_slice_infeasible():
    # cos t has alpha_0 = 0; 2 + 4cos t is 6 at x = 0 and -2 at x = infinity,
    # so one Gordan step forces both zeros and leaves V_o = {0}
    assert find_plus_in_slice(V1_BASIS) is None
    assert find_plus_in_slice([[1, 2, 0]]) is None


def test_find_plus_in_slice_stalls_when_recertification_keeps_failing(monkeypatch):
    import lacuna.plus_cone

    monkeypatch.setattr(lacuna.plus_cone, "certify_nonneg_exact", lambda v: (False, False))
    with pytest.raises(SolverStalled, match="slice search's candidate"):
        find_plus_in_slice(np.eye(3)[[0, 1]])


@pytest.mark.parametrize("target", [1.0, -1.0])
@pytest.mark.parametrize(
    "basis,w",
    [
        (V1_BASIS, [0.0, 1.0, 0.0]),  # corpus cosine_line: w = cos t
        (V2_BASIS, [0.0, 1.0, 0.0, 0.0, 0.0]),  # corpus sine_square_plane: w perp 4 sin^2 t
    ],
    ids=["cosine_line", "sine_square_plane"],
)
def test_infeasible_corpus_probes_end_at_the_farkas_bound(monkeypatch, basis, w, target):
    # the slice <v, w> = target holds no plus vector: the plus vectors that
    # span the trace are exact, certified and orthogonal to w.  Gordan's
    # alternative is the Farkas lemma the proof rests on: cos t needs no step
    # (alpha_0 vanishes on it), and on span(4 sin^2 t, cos t) the first step's
    # weights force the zeros at x = infinity and x = 0
    import lacuna.plus_cone

    calls = []
    gordan = lacuna.plus_cone._gordan
    monkeypatch.setattr(lacuna.plus_cone, "_gordan", lambda F, n: calls.append(gordan(F, n)) or calls[-1])
    dim, found = plus_dimension(target * basis)
    assert dim == len(found) == len(basis) - 1
    assert all(certify_nonneg_exact(v)[0] and np.dot(v.entries, w) == 0 for v in found)
    if dim:
        weights, _ = calls[0]
        assert weights is not None and sum(map(bool, weights)) == 2
    else:
        assert calls == []


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.tuples(
            st.lists(st.integers(-100, 100), min_size=2 * d + 1, max_size=2 * d + 1),
            st.lists(
                st.lists(st.integers(-3, 3), min_size=2 * d + 1, max_size=2 * d + 1),
                max_size=2,
            ),
        )
    )
)
def test_find_plus_in_slice_never_rejects_a_slice_through_a_strictly_plus_vector(drawn):
    # v0 = the constant tau = 1 lifted by 1 plus a perturbation whose tau is
    # at most 1/2 in size: tau_v0 >= 3/2, so V holds a plus vector with
    # alpha_0 = 1, and the search finds one, exact, certified and in V
    perturb, extra_rows = drawn
    d = (len(perturb) - 1) // 2
    constant = [Fraction(1, 2)] + [Fraction(0)] * (2 * d)
    v0 = np.array(
        [float(x + Fraction(p, 400 * (2 * d + 1))) for x, p in zip(constant, perturb)]
    )
    v0[0] += 0.5  # the lift: tau += 1
    basis = np.array([v0, *extra_rows], dtype=float)
    got = find_plus_in_slice(basis)
    assert got is not None and got.alpha[0] == 1
    assert certify_nonneg_exact(got)[0]
    rows = sympy.Matrix([[Fraction(x) for x in row] for row in basis])
    assert rows.col_join(sympy.Matrix([got.entries])).rank() == rows.rank()


def test_plus_dimension_v1_is_zero():
    dim, found = plus_dimension(V1_BASIS)
    assert dim == 0 and found == []


def test_plus_dimension_v2_is_one():
    dim, found = plus_dimension(V2_BASIS)
    assert dim == 1 and len(found) == 1
    # the one plus line is spanned by 4 sin^2 t = 2 - 2cos 2t
    a = found[0].entries[0]
    assert a > 0 and found[0].entries == (a, 0, -a, 0, 0)


@pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
def test_plus_dimension_full_space(d):
    n = 2 * d + 1
    dim, found = plus_dimension(np.eye(n))
    assert dim == n and len(found) == n
    assert sympy.Matrix([v.entries for v in found]).rank() == n
    assert all(certify_nonneg_exact(v)[0] and all(isinstance(x, Fraction) for x in v.entries) for v in found)


def test_plus_dimension_seed_counts():
    # a plus seed inside the whole space: every found vector is exact and
    # certified, and together they span it
    seed = _exact_vec(Fraction(1, 2), Fraction(1, 2), 0)  # 1 + cos t
    dim, found = plus_dimension(np.eye(3), seed=seed)
    assert dim == 3 and len(found) == 3
    assert all(certify_nonneg_exact(v)[0] and all(isinstance(x, Fraction) for x in v.entries) for v in found)
    assert sympy.Matrix([v.entries for v in found]).rank() == 3


@pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0]], [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]]], ids=["d1", "lattice"])
def test_a_zero_seed_counts_as_none(rows):
    # V holds the constant, whose place among the found vectors a zero seed
    # must not take: they would then span a line
    zero = CoefVector.from_array([0] * len(rows[0]))
    assert plus_dimension(rows, seed=zero) == plus_dimension(rows)


def test_plus_dimension_double_zero_kernel(examples):
    # the tilde kernel of the double-circle-zero example: dim 3, and all
    # three independent plus vectors are reachable
    from lacuna import (
        build_matrix,
        canonical_factorization,
        rank_and_kernel,
        tilde_factorization,
    )

    p, pat = examples["double_circle"]
    can = canonical_factorization(p, pat.N)
    til = tilde_factorization(can)
    mat = build_matrix(til.reduced_cofactor, pat.forbidden, til.m_tilde)
    kb = rank_and_kernel(mat)
    dim, found = plus_dimension(kb.vectors)
    assert dim == 3 and len(found) == 3
    assert sympy.Matrix([v.entries for v in found]).rank() == 3
    for v in found:
        assert is_plus(v)


def test_a_float_seed_is_judged_at_its_exact_value():
    # tau = 1 - (1 + 2^-39) cos t is -2^-39 at t = 0, far inside a 1e-9 band
    seed = CoefVector.from_array([0.5, -(0.5 + 2**-40), 0.0])
    with pytest.raises(ValueError, match="seed is not a plus vector"):
        plus_dimension(np.eye(3), seed=seed)


def _unseeded_family(seed: int, count: int) -> list[list[list[Fraction]]]:
    """Bases at d <= 4 whose first row is |h|^2 for a Gaussian-integer h (half
    of them with a circle zero forced at +-1) or 1 plus a small perturbation,
    with 0-2 random integer rows, each also mixed into the first."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.randint(1, 4)
        n = 2 * d + 1
        if rng.random() < 0.6:
            zero = rng.choice([None, None, 1, -1])
            h = ComplexPoly([GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(d + (zero is None))])
            if h.is_zero():
                h = ComplexPoly([1])
            if zero is not None:
                h = h * ComplexPoly([-zero, 1])
            sq = _square_vector(h)
            e = (len(sq) - 1) // 2
            first = sq[: e + 1] + [Fraction(0)] * (d - e) + sq[e + 1 :] + [Fraction(0)] * (d - e)
        else:
            first = [Fraction(1)] + [Fraction(rng.randint(-3, 3), 8 * n) for _ in range(n - 1)]
        extras = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        for e in extras:
            c = rng.randint(-1, 1)
            first = [x + c * y for x, y in zip(first, e)]
        out.append([first] + extras)
    return out


# the dims the float slice probe gave the family, None where it stalled
_SLICE_PROBE_DIMS = [3, 1, 3, 2, 1, 2, 2, 2, 1, None, 3, 1, 3, None, 3, None, 3, 2, 2, None,
                     3, 3, 1, None, 3, 2, 3, None, 3, 2, 3, 1, 3, 1, 1, None, 1, 3, 2, 3]


def test_unseeded_bases_are_decided_with_certified_vectors():
    for rows, want in zip(_unseeded_family(1, 40), _SLICE_PROBE_DIMS, strict=True):
        dim, found = plus_dimension([CoefVector.from_array(r) for r in rows])
        assert all(all(isinstance(x, Fraction) for x in v.entries) and certify_nonneg_exact(v)[0] for v in found)
        V = sympy.Matrix(rows)
        assert len(found) == dim and (not found or sympy.Matrix([v.entries for v in found]).rank() == dim)
        assert not found or V.col_join(sympy.Matrix([v.entries for v in found])).rank() == V.rank()
        if dim:
            assert plus_dimension([CoefVector.from_array(r) for r in rows], seed=found[0])[0] == dim
        assert want is None or dim == want


@pytest.mark.parametrize(
    "F,feasible",
    [([[1], [-2]], True), ([[1], [2]], False)],
    ids=["weights", "interior"],
)
def test_gordan_alternative_on_two_points(F, feasible):
    from lacuna.plus_cone import _gordan

    F = [[Fraction(x) for x in row] for row in F]
    w, c = _gordan(F, 1)
    if feasible:  # 2 F_0 + F_1 = 0: weights (2/3, 1/3)
        assert c is None and w == [Fraction(2, 3), Fraction(1, 3)]
    else:
        assert w is None and all(sum(a * x for a, x in zip(row, c)) > 0 for row in F)


def test_seeded_sine_square_plane_forces_zeros_at_zero_and_pi(monkeypatch):
    # V = span(1 - cos 2t, cos t) with the seed 4 sin^2 t, which vanishes to
    # order 2 at t = pi (x = infinity) and t = 0 (x = 0); tau_v(0) and
    # tau_v(pi) have opposite signs on cos t, so one Gordan step raises both,
    # and the face left is the seed's line
    import lacuna.plus_cone as pc

    calls = []
    gordan = pc._gordan
    monkeypatch.setattr(pc, "_gordan", lambda F, n: calls.append(F) or gordan(F, n))
    seed = _exact_vec(1, 0, -1, 0, 0)
    assert pc._circle_zeros(seed) == ([(None, 2), (0, 2)], [])
    dim, found = plus_dimension(V2_BASIS, seed=seed)
    assert dim == 1 and len(calls) == 1 and found == [seed]
    w, _ = gordan(calls[0], 1)
    assert len(w) == 2 and all(w)
    assert all(certify_nonneg_exact(v)[0] and all(isinstance(x, Fraction) for x in v.entries) for v in found)
    assert sympy.Matrix([v.entries for v in found]).rank() == dim


# sin^2 t (1/2 + cos t)^2 up to a factor: zeros of order 2 at t = 0 and
# t = pi, and at t = +-2 pi / 3, where x = +-sqrt 3 is irrational
SINE_CUBE_ROOT = (2, 2, -1, -2, -1, 0, 0, 0, 0)


@pytest.mark.parametrize(
    "rows,seeded",
    [
        ([(Fraction(3, 4), 1, Fraction(1, 2), 0, 0)], False),  # 2 (1/2 + cos t)^2
        ([(Fraction(3, 4), 1, Fraction(1, 2), 0, 0)], True),
        ([SINE_CUBE_ROOT, (0, 1, 0, 0, 0, 0, 0, 0, 0)], False),
        ([SINE_CUBE_ROOT, (0, 1, 0, 0, 0, 0, 0, 0, 0)], True),
    ],
    ids=["line", "line-seeded", "plane", "plane-seeded"],
)
def test_a_face_spanned_by_the_seed_needs_no_irrational_point(rows, seeded):
    # the exact steps leave V_o = span(s), where s also vanishes at irrational
    # Cayley points; no last alternative is needed, and s spans the face
    from lacuna.plus_cone import _circle_zeros

    s = _exact_vec(*rows[0])
    assert _circle_zeros(s)[1]
    dim, found = plus_dimension([_exact_vec(*r) for r in rows], seed=s if seeded else None)
    assert dim == 1 and len(found) == 1
    (v,) = found
    assert all(isinstance(x, Fraction) for x in v.entries) and certify_nonneg_exact(v)[0]
    assert sympy.Matrix([v.entries, s.entries]).rank() == 1
    if seeded:
        assert v is s


@pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "unseeded"])
def test_a_seed_with_a_tiny_margin_is_reached_by_bisection(seeded):
    # tau_s = 2 + 2(1 - 2^-140) cos t > 0 has a margin of 2^-139: the step
    # toward sin t needs about 70 halvings, more than 64 tried one by one
    s = _exact_vec(1, 1 - Fraction(1, 2**140), 0)
    dim, found = plus_dimension([s, _exact_vec(0, 0, 1)], seed=s if seeded else None)
    assert dim == 2 and found[0].entries == tuple(x * 2**140 for x in s.entries)
    assert all(certify_nonneg_exact(v)[0] for v in found)
    assert sympy.Matrix([v.entries for v in found]).rank() == 2


def _dilate(v: CoefVector, k: int) -> CoefVector:
    """The degree-k*d vector with tau(t) = tau_v(kt), by placing the entries."""
    d = v.d * k
    alpha, beta = [Fraction(0)] * (d + 1), [Fraction(0)] * d
    alpha[::k] = v.alpha
    beta[k - 1 :: k] = v.beta
    return CoefVector(d, tuple(alpha), tuple(beta))


def _padded(v: CoefVector) -> CoefVector:
    """v at degree d + 1, with a zero top harmonic."""
    return CoefVector(v.d + 1, (*v.alpha, 0), (*v.beta, 0))


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize(
    "entries,pad",
    [
        ((1, 0, 0), False),  # constant 2: the harmonic gcd is 0
        ((1, -1, 0), False),  # 2 - 2cos t, alpha only
        ((0, 0, 1), False),  # -2 sin t, beta only, not plus
        ((1, 0, 0, 0, 1), False),  # 2 - 2 sin 2t, beta beside the constant
        ((1, 0, -1, 0, 0), False),  # 4 sin^2 t, plus and touching zero
        ((Fraction(5, 8), Fraction(-1, 2), 0), False),  # 5/4 - cos t, plus and positive
        ((0, 1, 0), False),  # 2cos t, not plus
        ((1, 0, -1, 0, 0), True),  # 4 sin^2 t on a degree off the lattice
        ((Fraction(5, 8), Fraction(-1, 2), 0), True),
        ((0, 1, 0), True),
    ],
)
def test_certify_nonneg_exact_is_blind_to_a_dilation(k, entries, pad):
    # tau_v(kt) is plus, and touches zero, exactly when tau_v does
    v = _exact_vec(*entries)
    dilated = _padded(_dilate(v, k)) if pad else _dilate(v, k)
    assert certify_nonneg_exact(dilated) == certify_nonneg_exact(v)


@pytest.mark.parametrize("k", [2, 3])
def test_plus_dimension_runs_on_the_harmonic_lattice(k):
    # V holds a positive constant, so dim+ = dim V = 3, answered at degree 2
    # with the seed first
    small = [_exact_vec(1, 0, 0, 0, 0), _exact_vec(1, 0, -1, 0, 0), _exact_vec(0, 1, 0, 0, 0)]
    small_seed = _exact_vec(1, 0, -1, 0, 0)  # 4 sin^2 t
    basis = [_dilate(v, k) for v in small]
    seed = _dilate(small_seed, k)
    dim, found = plus_dimension(basis, seed=seed)
    assert dim == plus_dimension(small, seed=small_seed)[0] == 3
    assert len(found) == 3 and found[0] is seed
    rows, stack = [v.entries for v in basis], [v.entries for v in found]
    assert sympy.Matrix(stack).rank() == sympy.Matrix(rows + stack).rank() == 3
    for v in found:
        assert v.d == 2 * k
        assert is_plus(v)
        assert all(a == 0 for i, a in enumerate(v.alpha) if i % k)
        assert all(b == 0 for i, b in enumerate(v.beta, start=1) if i % k)


def test_unseeded_plus_dimension_of_a_dilated_plane_needs_the_lattice_step():
    # the corpus plane span(4 sin^2 t, cos t), whose plus cone is the ray of
    # 4 sin^2 t, dilated by 4; searched at degree 8 instead of 2, the slice
    # search stalls
    basis = [_dilate(_exact_vec(1, 0, -1, 0, 0), 4), _dilate(_exact_vec(0, 1, 0, 0, 0), 4)]
    dim, found = plus_dimension(basis)
    assert dim == 1 and len(found) == 1 and found[0].d == 8 and is_plus(found[0])


# -- CoefVector plumbing ---------------------------------------------------------


def test_coef_vector_roundtrip():
    v = _vec(0.5, -0.25, 0.125, 1.0, -1.0)
    assert v.d == 2
    assert CoefVector.from_array(v.entries) == v
    for bad in ([], [0.5, 1.0]):  # an even number of entries
        with pytest.raises(ValueError):
            CoefVector.from_array(bad)


def test_coef_vector_gamma_convention():
    # gamma_0 = 2 alpha_0 = 1 and gamma_1 = 3 + 4i: tau = 1 + 6cos t - 8sin t,
    # whose Cayley numerator is tau(2 arctan x)(1 + x^2) = 7 - 16x - 5x^2
    v = _vec(0.5, 3.0, 4.0)
    assert [2 * c for c in _cayley_poly(v.entries, 1)] == [7, -16, -5]
    assert np.allclose(_tau(v, [0, np.pi / 2, np.pi]), [7, -7, -5])


@given(
    st.lists(
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        min_size=1,
        max_size=9,
    ).filter(lambda xs: len(xs) % 2 == 1)
)
def test_tau_matches_exponential_sum(entries):
    # the Cayley numerator that every verdict reads is tau(2 arctan x)(1 + x^2)^d
    v = CoefVector.from_array(np.array(entries))
    t = np.linspace(-3, 3, 13)
    x = np.tan(t / 2)
    P = [2 * float(c) for c in _cayley_poly([Fraction(e) for e in v.entries], v.d)]
    assert np.allclose(np.polyval(P[::-1], x) / (1 + x * x) ** v.d, _tau(v, t), atol=1e-10)


def test_tau_derivative_matches_difference_quotient():
    # the Taylor coefficients of P at a = tan(t0 / 2), which the Gordan steps
    # read, carry tau's derivatives at t0: tau(t) = f(x) with f = P g,
    # g = (1 + x^2)^-d and x = tan(t/2), so x' = (1 + x^2) / 2 and x'' = x x'
    v = _vec(0.3, 1.0, -0.5, 0.2, 0.7)
    a, d = Fraction(1, 2), v.d
    p0, p1, p2 = (2 * c for c in _taylor(_cayley_poly([Fraction(e) for e in v.entries], d), a, 3)[0])
    s = 1 + a * a
    g0, g1 = s**-d, -2 * d * a * s ** (-d - 1)
    g2 = -2 * d * s ** (-d - 1) + 4 * d * (d + 1) * a * a * s ** (-d - 2)
    f1, f2 = p1 * g0 + p0 * g1, 2 * p2 * g0 + 2 * p1 * g1 + p0 * g2
    x1 = s / 2
    t, h = 2 * math.atan(0.5), 1e-6
    num = (_tau(v, t + h) - _tau(v, t - h)) / (2 * h)
    assert abs(float(f1 * x1) - num) <= 1e-5
    num2 = (_tau(v, t + h) - 2 * _tau(v, t) + _tau(v, t - h)) / h**2
    assert abs(float(f2 * x1 * x1 + f1 * a * x1) - num2) <= 1e-3
