"""Norm quadrature against closed forms and a trapezoid cross-check; zeros."""

import cmath
import heapq
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import eval_many
from lacuna import (
    IllConditionedZeros,
    LacunaryPattern,
    QuadratureBudgetExceeded,
    ZeroCluster,
    classify,
    classify_full_space,
    find_zeros,
    l1_norm,
    parse_poly,
)
from lacuna.circle_analysis import (
    _GL_HI,
    _GL_LO,
    _float_roots,
    _polish_roots,
    common_disk_zeros,
)
from lacuna.factorization import canonical_factorization
from lacuna.poly_core import (
    ComplexPoly,
    GaussianRational,
    conjugate_reciprocal,
    square_free_decomposition,
)

# closed forms:
#   ||1+z|| = 4/pi  (mean of 2|cos(t/2)|)
#   ||(1-z^2)^2/2|| = 1  (mean of 2 sin^2 t)
FOUR_OVER_PI = 1.2732395447351628
# high-precision references for the examples, frozen from an mpmath run
NORM_CLEAN_GAP = 8.548791149407617  # (z-1/2)(8-z^3)
NORM_PAIR_AND_GAP = 10 / math.pi  # (z-1/2)(2-z)(1+z^4)
NORM_SINGLE_DOUBLE = 3.2864901286332104  # (1-z)^2 (2+z)


def _trapezoid_norm(p, n=1 << 17):
    t = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    vals = np.abs(eval_many(p, np.exp(1j * t)))
    return float(np.mean(vals))


@pytest.mark.parametrize(
    "expr,value",
    [
        ("1 + z", FOUR_OVER_PI),
        ("(1 - z^2)^2 / 2", 1.0),
        ("(z - 1/2)(8 - z^3)", NORM_CLEAN_GAP),
        ("(z - 1/2)(2 - z)(1 + z^4)", NORM_PAIR_AND_GAP),
        ("(1 - z)^2 (2 + z)", NORM_SINGLE_DOUBLE),
    ],
)
def test_l1_norm_closed_forms(expr, value):
    res = l1_norm(parse_poly(expr))
    assert abs(res.value - value) <= 1e-10 * value
    assert abs(res.value - value) <= res.abs_error_bound + 1e-12 * value


@pytest.mark.parametrize(
    "expr", ["1 + z", "3 - z^2 + z^5", "(z - 1/2)(2 - z)(1 + z^4)", "1 + i z^3"]
)
def test_l1_norm_against_trapezoid(expr):
    p = parse_poly(expr)
    res = l1_norm(p)
    # trapezoid on a kinked periodic integrand is ~1e-9 at this density
    assert abs(res.value - _trapezoid_norm(p)) <= 1e-7 * max(1.0, res.value)


def _accuracy_inputs():
    """Seeded Gaussian-integer polynomials of degree <= 16, two thirds of
    them with a zero on the circle (5z - (3+4i)) or just off it
    (7z - (5+5i)), and powers (1 +- z^k)^j with multiple circle zeros."""
    rng = random.Random(20261019)
    near = ["", "5z - (3+4i)", "7z - (5+5i)"]
    out = {}
    for i, d in enumerate((3, 6, 9, 12, 15, 16)):
        extra = near[i % len(near)]
        k = d - bool(extra)
        p = ComplexPoly([GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(k)]
                        + [GaussianRational(rng.randint(1, 9), rng.randint(-9, 9))])
        out[f"degree {d} {extra}".strip()] = p * parse_poly(extra) if extra else p
    return out | {e: parse_poly(e) for e in ("(1 + z)^3", "(1 - z^2)^4", "(1 + z^3)^2", "(1 - z^4)^3")}


def _mp_norm(p):
    """(1/2pi) int |p(e^it)| dt by mpmath at 30 digits, split at the
    arguments of the zeros of p."""
    with mpmath.workdps(30):
        coeffs = [mpmath.mpc(mpmath.mpf(c.real.numerator) / c.real.denominator,
                             mpmath.mpf(c.imag.numerator) / c.imag.denominator) for c in p.coeffs]
        args = sorted({cmath.phase(complex(r)) % (2 * math.pi) for r in np.roots(p.float_coeffs()[::-1])})
        points = [mpmath.mpf(0)] + [mpmath.mpf(t) for t in args if t > 0] + [2 * mpmath.pi]
        integral = mpmath.quad(lambda t: abs(mpmath.polyval(coeffs[::-1], mpmath.expj(t))), points)
        return float(integral / (2 * mpmath.pi))


@pytest.mark.parametrize("name", _accuracy_inputs())
def test_l1_norm_is_within_its_bound_of_a_30_digit_reference(name):
    # with the circle zeros as breaks, as the classifier passes them, and
    # without any, as for a polynomial with no circle zero
    p = _accuracy_inputs()[name]
    reference = _mp_norm(p)
    for circle in (_near_circle(find_zeros(p)), ()):
        res = l1_norm(p, circle)
        assert abs(res.value - reference) <= res.abs_error_bound


def test_l1_norm_scales_homogeneously():
    p = parse_poly("2 - 3z + z^3")
    a, b = l1_norm(p).value, l1_norm(p * 5).value
    assert abs(b - 5 * a) <= 1e-9 * b


def test_l1_norm_is_scale_equivariant_below_unit_norm():
    # below unit norm the stop target is relative, so c p is integrated on
    # the same panels at every small c and keeps the relative accuracy of p
    p = parse_poly("(3+2i) - (1-4i)z + (2+i)z^5 - 7z^8")
    unit = l1_norm(p).value
    runs = {k: l1_norm(p * 10.0**-k) for k in range(2, 15)}
    for k, res in runs.items():
        assert abs(res.value * 10.0**k - unit) <= 1e-12 * unit, k
    assert len({res.panels for res in runs.values()}) == 1


def test_l1_norm_budget(monkeypatch):
    import lacuna.circle_analysis as ca

    # no circle zero is given for the root at 0.85, so panels must actually split
    with monkeypatch.context() as m:
        m.setattr(ca, "_TOL", 1e-30)
        m.setattr(ca, "_PANEL_BUDGET", 8)
        with pytest.raises(QuadratureBudgetExceeded):
            l1_norm(parse_poly("z - 17/20"))
    # two rounds split 2 of the 48 first panels, then 2 of their children:
    # every cap below the 52 panels they make raises, rather than return
    # more than the cap, and a cap below 48 also caps the first panels
    p = parse_poly("2 + z^3 - z^7")
    monkeypatch.setattr(ca, "_PANEL_BUDGET", 52)
    assert l1_norm(p).panels == 52
    for cap in range(8, 52):
        monkeypatch.setattr(ca, "_PANEL_BUDGET", cap)
        with pytest.raises(QuadratureBudgetExceeded, match=f"budget {cap}"):
            l1_norm(p)


# -- zero clustering -----------------------------------------------------------


def _near_circle(zs):
    """The clusters whose modulus is within 1e-8 of 1."""
    return [c for c in zs if abs(abs(c.location) - 1) <= 1e-8]


def test_find_zeros_exact_structure():
    p = parse_poly("(z - 1/2)^2 (z + 2)")
    zs = find_zeros(p)
    (inner,) = [c for c in zs if abs(c.location) < 1]
    (outer,) = [c for c in zs if abs(c.location) > 1]
    assert inner.multiplicity == 2 and abs(inner.location - 0.5) < 1e-12
    assert outer.multiplicity == 1 and abs(outer.location + 2.0) < 1e-12


def test_find_zeros_circle_multiplicity():
    zs = find_zeros(parse_poly("(z - 1)^3 (1 + z^4)"))
    circle = _near_circle(zs)
    assert sum(c.multiplicity for c in circle) == 7
    triple = [c for c in circle if c.multiplicity == 3]
    assert len(triple) == 1 and abs(triple[0].location - 1.0) < 1e-10


def test_find_zeros_origin():
    zs = find_zeros(parse_poly("z^2 (1 - z)"))
    origin = [c for c in zs if abs(c.location) < 1e-14]
    assert len(origin) == 1 and origin[0].multiplicity == 2


def test_find_zeros_reads_float_input_at_its_exact_value():
    # (z - 1/2)^2 (z + 3/2) has dyadic coefficients, so its float image keeps
    # the double zero; rounding the coefficients of (z - 7/10)^2 (z + 3/2)
    # makes a polynomial whose zeros near 7/10 are simple
    for text, mults in (("(z - 1/2)^2 (z + 3/2)", [1, 2]), ("(z - 7/10)^2 (z + 3/2)", [1, 1, 1])):
        doubles = [complex(c) for c in parse_poly(text).coeffs]
        zs = find_zeros(ComplexPoly(doubles))
        assert sorted(c.multiplicity for c in zs) == mults


def test_find_zeros_prefers_genuinely_split_roots():
    # visible coefficient noise makes a different polynomial with two simple
    # roots, which must stay separate, not be merged
    base = parse_poly("(z - 7/10)^2 (z + 3/2)")
    noisy = ComplexPoly([complex(c) + 1e-12 * (1 + 1j) for c in base.coeffs])
    zs = find_zeros(noisy)
    assert sorted(c.multiplicity for c in zs) == [1, 1, 1]


def test_find_zeros_residual_bound():
    p = parse_poly("(z - 1/3)(z + 5)(z - 2i)")
    coeffs = np.array([complex(c) for c in p.coeffs])
    for c in find_zeros(p):
        vals = np.polyval(coeffs[::-1], c.location)
        scale = np.max(np.abs(coeffs))
        assert abs(vals) <= 1e-10 * scale * max(1.0, abs(c.location)) ** p.deg


def test_common_disk_zeros_detects_pair():
    p = parse_poly("(z - 1/2)(2 - z)(1 + z^4)")
    ps = conjugate_reciprocal(p, 6)
    (shared,) = common_disk_zeros(p, ps, 1, 0)
    assert shared.multiplicity == 1 and abs(shared.location - 0.5) < 1e-10


def test_common_disk_zeros_reflected_zero_of_p():
    # 1/2 and 2 are both zeros of p itself, so p* vanishes at 1/2 as well
    p = parse_poly("(z - 1/2)(8 - z^3)")
    ps = conjugate_reciprocal(p, 4)
    (shared,) = common_disk_zeros(p, ps, 1, 0)
    assert shared.multiplicity == 1 and abs(shared.location - 0.5) < 1e-10


def test_common_disk_zeros_none():
    p = parse_poly("1 + z/2")
    ps = conjugate_reciprocal(p, 1)
    assert common_disk_zeros(p, ps, 0, 0) == ()


def test_common_disk_zeros_multiplicity_is_min():
    # p has (z-1/3)^2, p* only one copy reflected in: shared multiplicity 1
    p = parse_poly("(z - 1/3)^2 (z - 3)")
    ps = conjugate_reciprocal(p, 3)
    (shared,) = common_disk_zeros(p, ps, 1, 0)
    assert shared.multiplicity == 1 and abs(shared.location - 1 / 3) < 1e-10


def test_common_disk_zeros_takes_the_origin_from_the_count():
    # p's zero at 0 is shared with the zero of p* that N - deg p = 1 puts
    # there; the float zero -10^-20 of p* beside it pairs only p's own
    p = parse_poly("z (z + 10^20)(1 + 10^20 z)")
    for N, origin in ((3, 0), (4, 1)):
        shared = common_disk_zeros(p, conjugate_reciprocal(p, N), 1 + origin, origin)
        assert [c.multiplicity for c in shared] == [1] * (1 + origin)
        assert [c.location for c in shared[:origin]] == [0j] * origin and abs(shared[-1].location + 1e-20) <= 1e-35


def test_common_disk_zeros_solves_no_root_when_every_shared_zero_is_at_the_origin(monkeypatch):
    # gcd(p, p*) = z^2 on 5:4: both shared disk zeros are at 0, so nothing
    # is left to locate
    calls = []
    for module in ("circle_analysis", "factorization"):
        monkeypatch.setattr(f"lacuna.{module}.find_zeros", lambda p: calls.append(p) or find_zeros(p))
    rep = classify("z^2 (1 + 2z)", LacunaryPattern(5, [4]))
    assert calls == []
    assert rep.canonical.disk_zeros == (ZeroCluster(0j, 2),)
    assert (rep.canonical.m, rep.canonical.disk_factor) == (2, parse_poly("z^2"))
    assert (rep.extreme, rep.exposed) == (False, False)
    assert [(w.kind, w.step) for w in rep.witnesses] == [("non_extreme", Fraction(1, 4)), ("non_exposed", None)]


@pytest.mark.parametrize(
    "text,N,m,paired",
    [
        ("1 + z/2", 1, 1, 0),  # p's zero -2 is not one of p*'s
        ("(z - 1/3)^2 (1 - z/3)^2", 4, 1, 2),  # the double pair overshoots one
    ],
)
def test_common_disk_zeros_refuses_a_count_the_zeros_do_not_pair(text, N, m, paired):
    p = parse_poly(text)
    with pytest.raises(IllConditionedZeros, match=f"has {m} shared disk zeros off the origin, but the float zeros of p and p\\* pair {paired} of them") as err:
        common_disk_zeros(p, conjugate_reciprocal(p, N), m, 0)
    assert err.value.diagnostics == {"shared": m, "paired": paired}


def _planted_product(rng: random.Random) -> ComplexPoly:
    """Random Gaussian-integer factor times reflected pairs (z - a)(1 - conj(a) z)
    and a power of z."""
    def gauss(lo, hi):
        return GaussianRational(rng.randint(lo, hi), rng.randint(lo, hi))

    p = ComplexPoly([gauss(-3, 3) for _ in range(rng.randint(1, 3))] + [gauss(1, 3)])
    for _ in range(rng.randint(0, 2)):
        a = gauss(-2, 2) / GaussianRational(rng.randint(3, 5))
        p = p * ComplexPoly([-a, 1]) * ComplexPoly([1, -a.conjugate()])
    return p * ComplexPoly.monomial(rng.randint(0, 2))


def test_full_space_route_counts_the_located_shared_zeros():
    # the exact count is the full-space route's, and each zero located for
    # it off the origin is a disk zero of both p and p*
    rng = random.Random(11)
    seen_pair = seen_origin = False
    for _ in range(40):
        p = _planted_product(rng)
        N = p.deg + rng.randint(0, 3)
        ps, can = conjugate_reciprocal(p, N), canonical_factorization(p, N)
        shared = common_disk_zeros(p, ps, can.m, can.disk_factor.order_at_zero())
        assert classify_full_space(p, N).shared_disk_multiplicity == can.m == sum(c.multiplicity for c in shared)
        for c in shared:
            assert abs(c.location) < 1
            assert all(abs(eval_many(q, [c.location])[0]) <= 1e-9 * sum(map(abs, q.float_coeffs())) for q in (p, ps))
        seen_pair |= any(c.location != 0 for c in shared)
        seen_origin |= any(c.location == 0 for c in shared)
    assert seen_pair and seen_origin


def test_find_zeros_constant_poly():
    assert find_zeros(parse_poly("3")) == []


@pytest.mark.parametrize(
    "expr",
    [
        # np.roots puts the three small zeros at 0; one Newton step jumps to
        # -10^100, where sum |c_k| |r|^k overflows
        "(z + 10^100)(z^3 - 2)",
        "(z + 10^100)(z - 1/2)(2 - z)(z + 3)",
    ],
)
def test_find_zeros_rejects_an_overflowed_residual(expr):
    with pytest.raises(IllConditionedZeros, match="backward error nan"):
        find_zeros(parse_poly(expr))


# -- the whole-array kernels against the scalar loops they replaced -------------


def _ref_newton_refine(coeffs, dcoeffs, r, steps=3):
    for _ in range(steps):
        fv = np.polyval(coeffs[::-1], r)
        dv = np.polyval(dcoeffs[::-1], r)
        if dv == 0:
            break
        step = fv / dv
        if not np.isfinite(step):
            break
        r = r - step
    return complex(r)


def _ref_backward_error(coeffs, r):
    num = abs(np.polyval(coeffs[::-1], r))
    den = float(np.polyval(np.abs(coeffs[::-1]), abs(r)))
    return num / den if den > 0 else 0.0


def _ref_panel_integrals(coeffs, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    out = []
    for nodes, weights in (_GL_LO, _GL_HI):
        z = np.exp(1j * (mid + half * nodes))
        v = np.zeros_like(z)
        for c in coeffs[::-1]:
            v = v * z + c
        out.append(half * float(np.dot(weights, np.abs(v))))
    return out


def _ref_l1_norm(p, circle_zeros, tol=1e-10):
    """l1_norm with one scalar quadrature call per panel."""
    coeffs = p.float_coeffs()
    breaks = sorted({cmath.phase(c.location) % (2 * math.pi) for c in circle_zeros})
    if not breaks:
        n = max(48, p.deg)
        edges = [2 * math.pi * k / n for k in range(n + 1)]
    else:
        wide = breaks + [breaks[0] + 2 * math.pi]
        edges = []
        for a, b in zip(wide[:-1], wide[1:]):
            n = max(1, int(math.ceil((b - a) / (math.pi / 2))))
            edges.extend(a + (b - a) * k / n for k in range(n))
        edges.append(wide[-1])
    heap, serial, total = [], 0, 0.0

    def push(a, b):
        nonlocal serial, total
        lo, hi = _ref_panel_integrals(coeffs, a, b)
        total += hi
        heapq.heappush(heap, (-abs(hi - lo), serial, a, b, hi))
        serial += 1

    for a, b in zip(edges[:-1], edges[1:]):
        push(a, b)
    while -sum(item[0] for item in heap) > 0.5 * tol:
        _, _, a, b, hi = heapq.heappop(heap)
        total -= hi
        midpt = 0.5 * (a + b)
        push(a, midpt)
        push(midpt, b)
    err = -sum(item[0] for item in heap)
    value = total / (2 * math.pi)
    return value, err / (2 * math.pi) + 32 * np.finfo(float).eps * abs(value), len(heap)


def _kernel_parts():
    """Seeded polynomials of degree 1..48, as factor lists: Gaussian-integer
    ones times multiple and circle zeros, and one-factor lists of doubles
    with normal coefficients."""
    rng = random.Random(20261018)
    extras = ["1", "(z - 1)^2", "(1 + z^2)^3", "(z - 1/2)^2 (2 - z)", "(1 - z^3)(z + 1)^2"]
    out = []
    for d in (1, 2, 3, 5, 8, 13, 21, 34, 48):
        extra = parse_poly(extras[d % len(extras)])
        k = max(0, d - extra.deg)
        base = ComplexPoly([GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(k)]
                           + [GaussianRational(rng.randint(1, 9), rng.randint(-9, 9))])
        out.append([base, extra])
        out.append([ComplexPoly([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d + 1)])])
    return out


def _kernel_inputs():
    return [math.prod(parts[1:], start=parts[0]) for parts in _kernel_parts()]


def _square_free_factors():
    """The square-free factors of the kernel inputs, read off each input's
    own factors.  An input of doubles (normal coefficients) is square-free as
    it stands."""
    for parts in _kernel_parts():
        if len(parts) == 1:
            yield parts[0]
            continue
        for part in parts:
            yield from (f for f, _ in square_free_decomposition(part) if f.deg >= 1)


def test_polish_roots_matches_the_scalar_loops():
    for p in _kernel_inputs():
        coeffs, roots = _float_roots(p, "p")
        dcoeffs = p.derivative().float_coeffs()
        got, res = _polish_roots(coeffs, dcoeffs, roots)
        # the residual is read at the returned roots by the scalar formula
        assert res.tolist() == [_ref_backward_error(coeffs, r) for r in got.tolist()]
    for f in _square_free_factors():
        coeffs, roots = _float_roots(f, "f")
        _, res = _polish_roots(coeffs, f.derivative().float_coeffs(), roots)
        assert float(np.max(res)) <= 4 * np.finfo(float).eps, f


def test_polish_roots_keeps_a_root_where_the_derivative_vanishes():
    coeffs = parse_poly("z^2 - 1").float_coeffs()
    dcoeffs = np.array([0j, 2 + 0j])
    got, res = _polish_roots(coeffs, dcoeffs, [0j, 0.9 + 0j, -1.2 + 0j])
    assert got[0] == 0 and res[0] == 1.0
    assert got.tolist() == [_ref_newton_refine(coeffs, dcoeffs, r) for r in (0j, 0.9 + 0j, -1.2 + 0j)]
    assert abs(got[1] - 1) < 1e-6 and abs(got[2] + 1) < 1e-6


def test_l1_norm_matches_the_per_panel_quadrature():
    # the rounds split the panels the heap rule splits one at a time
    for p in _kernel_inputs():
        circle = _near_circle(find_zeros(p))
        res = l1_norm(p, circle)
        value, bound, panels = _ref_l1_norm(p, circle)
        assert abs(res.value - value) <= min(res.abs_error_bound, bound), p
        assert res.panels == panels, p

