"""The nonnegativity cone: exact certificates, Gram factorizations, dim+."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from lacuna import (
    CoefVector,
    SolverStalled,
    certify_nonneg_exact,
    fejer_vector,
    find_plus_in_slice,
    is_plus,
    min_on_circle,
    plus_dimension,
)
from lacuna.plus_cone import gram_diag_sums, proportional
from lacuna.poly_core import ComplexPoly, GaussianRational

V1_BASIS = np.array([[0.0, 1.0, 0.0]])
V2_BASIS = np.array(
    [[1.0, 0.0, -1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]]
)


def _vec(*entries):
    return CoefVector.from_array(np.array(entries, dtype=float))


def _exact_vec(*entries):
    return CoefVector.from_array([Fraction(e) for e in entries])


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
    v = CoefVector.from_array([Fraction(e) for e in entries])
    nonneg, _ = certify_nonneg_exact(v)
    _, val = min_on_circle(v)
    band = 1e-7 * max(1.0, v.scale())
    if val > band:
        assert nonneg
    elif val < -band:
        assert not nonneg


def _square_vector(q: ComplexPoly) -> list[Fraction]:
    """Coefficient vector of |q(e^{it})|^2, gamma_k = sum_l q_{l+k} conj(q_l)."""
    c = q.coeffs
    d = len(c) - 1
    gamma = [sum((c[l + k] * c[l].conjugate() for l in range(d + 1 - k)), GaussianRational())
             for k in range(d + 1)]
    return [gamma[0].re / 2] + [g.re for g in gamma[1:]] + [g.im for g in gamma[1:]]


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
    entries = [c[power].re / 2] + [c[power + k].re for k in range(1, power + 1)]
    entries += [c[power + k].im for k in range(1, power + 1)]
    want = (True, True) if power % 2 == 0 else (False, False)
    assert certify_nonneg_exact(CoefVector.from_array(entries)) == want


# -- numeric minimum -------------------------------------------------------------


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
    _, val = min_on_circle(_vec(*entries))
    assert abs(val - want_val) <= 1e-9


def test_min_on_circle_location():
    t, val = min_on_circle(_vec(0, 1, 0))  # 2cos t, min at pi
    assert abs(val + 2.0) <= 1e-12
    assert abs((t % (2 * np.pi)) - np.pi) <= 1e-7


def test_min_on_circle_constant():
    t, val = min_on_circle(_vec(3.5))
    assert val == 7.0  # gamma_0 = 2 alpha_0


# -- float certificates ----------------------------------------------------------


def test_is_plus_positive_definite():
    cert = is_plus(_vec(5 / 8, -1 / 2, 0))
    assert cert.is_plus and not cert.boundary
    assert cert.gram is not None and cert.gram_residual <= 1e-8
    w = np.linalg.eigvalsh(cert.gram)
    assert w.min() >= -1e-8


def test_is_plus_negative_has_witness_point():
    v = _vec(0, 1, 0)
    cert = is_plus(v)
    assert not cert.is_plus
    assert cert.negative_point is not None
    assert v.tau(cert.negative_point) < 0


def test_is_plus_boundary_gram():
    cert = is_plus(_vec(1, -1, 0))  # touches zero at t=0
    assert cert.is_plus and cert.boundary
    assert cert.gram is not None and cert.gram_residual <= 1e-8


def test_is_plus_exact_path():
    cert = is_plus(_exact_vec(1, -1, 0))
    assert cert.exact and cert.is_plus and cert.boundary
    cert2 = is_plus(_exact_vec(0, 1, 0))
    assert cert2.exact and not cert2.is_plus


def test_gram_reproduces_autocorrelation(rng):
    # gamma of |q|^2 for random q: always plus, Gram must reproduce gamma
    for _ in range(25):
        d = int(rng.integers(1, 6))
        q = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        gamma = np.array(
            [np.vdot(q[: d + 1 - k], q[k:]) for k in range(d + 1)]
        )
        v = CoefVector.from_array(
            np.concatenate(
                [[gamma[0].real / 2.0], gamma[1:].real, gamma[1:].imag]
            )
        )
        cert = is_plus(v)
        assert cert.is_plus
        assert cert.gram_residual <= 1e-8
        back = gram_diag_sums(cert.gram)[: d + 1]
        assert np.max(np.abs(back - v.gamma())) <= 1e-8 * max(1.0, v.scale())


def test_gram_diag_sums_inverse_of_construction(rng):
    q = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    Q = np.outer(q, q.conj())  # rank-one Gram of |q|^2
    sums = gram_diag_sums(Q)
    want = np.array([np.vdot(q[: 4 - k], q[k:]) for k in range(4)])
    assert np.max(np.abs(sums - want)) <= 1e-12


@pytest.mark.parametrize(
    "entries",
    [
        (5 / 8, -1 / 2, 0),  # 5/4 - cos t
        (1, -1, 0),  # 2 - 2cos t, touching zero
        (1, 0, -1, 0, 0),  # 2 - 2cos 2t, touching zero twice
    ],
)
def test_is_plus_gram_by_projection(entries):
    # the spectral factor's Gram matrix, projected once onto the coefficients
    cert = is_plus(_vec(*entries))
    assert cert.is_plus
    assert cert.gram is not None and cert.gram_residual <= 1e-8
    assert np.linalg.eigvalsh(cert.gram).min() >= -1e-8


@pytest.mark.xfail(
    strict=True,
    reason="is_plus builds no Gram certificate at circle zeros of order >= 6: "
    "spectral factorization of tau fails there and nothing else is tried",
)
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("power", [3, 4])
def test_is_plus_gives_a_gram_certificate_at_high_order_circle_zeros(power, exact):
    # tau = (2 - 2cos t)^power = |(1 - z)^power|^2 touches zero at t = 0 to
    # order 2 power; for power 3, alpha = (10, -15, 6, -1) and beta = 0
    q = [(-1) ** j * math.comb(power, j) for j in range(power + 1)]
    g = [sum(q[j] * q[j + k] for j in range(power + 1 - k)) for k in range(power + 1)]
    num = Fraction if exact else float
    v = CoefVector(power, (num(g[0]) / 2, *map(num, g[1:])), (num(0),) * power)
    cert = is_plus(v)
    assert cert.is_plus and cert.boundary
    assert cert.gram is not None


def test_gram_repair_spreads_each_deficit_along_its_diagonal(rng):
    from lacuna.plus_cone import _affine_projector

    n = 4
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q = A @ A.conj().T
    target = _vec(*rng.standard_normal(2 * n - 1))
    # reference: add (gamma_k - current sum) / (n - k) to every entry of
    # diagonal k, and its conjugate to the mirrored entry
    want = Q.copy()
    deficit = target.gamma() - gram_diag_sums(Q)
    for k in range(n):
        idx = np.arange(n - k)
        if k == 0:
            want[idx, idx] += deficit[0].real / n
        else:
            want[idx + k, idx] += deficit[k] / (n - k)
            want[idx, idx + k] += np.conj(deficit[k]) / (n - k)
    got = _affine_projector(n, target.as_array())(Q)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(gram_diag_sums(got) - target.gamma())) <= 1e-12


# -- Fejer kernels ----------------------------------------------------------------


def test_fejer_vector_exact_and_nonneg():
    v = fejer_vector(3)
    assert v.is_exact
    assert v.alpha[0] == Fraction(1, 2)
    assert v.alpha[1] == Fraction(3, 4)
    nonneg, touches = certify_nonneg_exact(v)
    assert nonneg
    _, val = min_on_circle(v)
    assert val >= -1e-12


def test_fejer_shift_is_rotation():
    d, theta = 3, 1.1
    base, shifted = fejer_vector(d), fejer_vector(d, shift=theta)
    t = np.linspace(0, 2 * np.pi, 17)
    assert np.allclose(shifted.tau(t), base.tau(t - theta), atol=1e-12)


def test_fejer_shift_coefficient_formula():
    d, theta = 4, 0.7
    g = fejer_vector(d, shift=theta).gamma()
    for k in range(d + 1):
        want = (1 - k / (d + 1)) * np.exp(-1j * k * theta)
        assert abs(complex(g[k]) - want) <= 1e-12


# -- slices and dimension -----------------------------------------------------------


def test_find_plus_in_full_space_slice():
    basis = np.eye(3)
    w = np.array([1.0, 0.0, 0.0])
    got = find_plus_in_slice(basis, (w, 1.0))
    assert got is not None
    assert abs(float(np.dot(got.as_array(), w)) - 1.0) <= 1e-7
    assert is_plus(got, tol=1e-7).is_plus


def test_find_plus_in_slice_infeasible():
    got = find_plus_in_slice(V1_BASIS, (np.array([0.0, 1.0, 0.0]), 1.0))
    assert got is None


def test_find_plus_in_slice_stalls_when_recertification_keeps_failing(monkeypatch):
    import lacuna.plus_cone

    def reject(v, tol=1e-9):
        return False, False, 0.0, -1.0

    monkeypatch.setattr(lacuna.plus_cone, "_plus_verdict", reject)
    e0 = np.eye(3)[0]
    with pytest.raises(SolverStalled, match="keep failing plus re-certification"):
        find_plus_in_slice(np.eye(3)[[0, 1]], (e0, 1.0))


def test_plus_dimension_v1_is_zero():
    dim, found = plus_dimension(V1_BASIS)
    assert dim == 0 and found == []


def test_plus_dimension_v2_is_one():
    dim, found = plus_dimension(V2_BASIS)
    assert dim == 1 and len(found) == 1
    assert proportional(found[0].as_array(), np.array([1.0, 0.0, -1.0, 0.0, 0.0]), tol=1e-6)


@pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
def test_plus_dimension_full_space(d):
    n = 2 * d + 1
    dim, found = plus_dimension(np.eye(n))
    assert dim == n and len(found) == n
    stack = np.array([v.as_array() for v in found], dtype=float)
    assert np.linalg.matrix_rank(stack, tol=1e-8) == n
    for v in found:
        _, val = min_on_circle(v)
        assert val >= -1e-9


def test_plus_dimension_seed_counts():
    # seed inside the cone is honored as the first found vector
    seed = fejer_vector(1)
    dim, found = plus_dimension(np.eye(3), seed=seed)
    assert dim == 3
    assert proportional(found[0].as_array(), seed.as_array(), tol=1e-9)


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
    til = tilde_factorization(pat.N, can)
    mat = build_matrix(til.coef, pat.forbidden, til.m_tilde, kind="tilde")
    kb = rank_and_kernel(mat)
    dim, found = plus_dimension([v.as_array() for v in kb.vectors])
    assert dim == 3 and len(found) == 3
    stack = np.array([v.as_array() for v in found], dtype=float)
    assert np.linalg.matrix_rank(stack, tol=1e-8) == 3
    for v in found:
        assert is_plus(v, tol=1e-7).is_plus


# -- CoefVector plumbing ---------------------------------------------------------


def test_coef_vector_roundtrip():
    v = _vec(0.5, -0.25, 0.125, 1.0, -1.0)
    assert v.d == 2
    back = CoefVector.from_array(v.as_array())
    assert np.allclose(back.as_array(), v.as_array())


def test_coef_vector_gamma_convention():
    v = _vec(0.5, 3.0, 4.0)
    g = v.gamma()
    assert g[0] == 1.0  # gamma_0 = 2 alpha_0
    assert g[1] == 3.0 + 4.0j


@given(
    st.lists(
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        min_size=1,
        max_size=9,
    ).filter(lambda xs: len(xs) % 2 == 1)
)
def test_tau_matches_exponential_sum(entries):
    v = CoefVector.from_array(np.array(entries))
    g = v.gamma()
    t = np.linspace(0, 2 * np.pi, 13)
    direct = np.full_like(t, float(g[0].real))
    for k in range(1, v.d + 1):
        direct += 2 * np.real(complex(g[k]) * np.exp(1j * k * t))
    assert np.allclose(v.tau(t), direct, atol=1e-10)


def test_tau_derivative_matches_difference_quotient():
    v = _vec(0.3, 1.0, -0.5, 0.2, 0.7)
    t, h = 0.9, 1e-6
    num = (v.tau(t + h) - v.tau(t - h)) / (2 * h)
    assert abs(v.tau(t, 1) - num) <= 1e-5
    num2 = (v.tau(t + h) - 2 * v.tau(t) + v.tau(t - h)) / h**2
    assert abs(v.tau(t, order=2) - num2) <= 1e-3
