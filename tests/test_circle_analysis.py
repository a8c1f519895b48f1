"""Norm quadrature against closed forms and a trapezoid cross-check; zeros."""

import math
import random

import numpy as np
import pytest

from lacuna import (
    IllConditionedZeros,
    QuadratureBudgetExceeded,
    find_zeros,
    l1_norm,
    normalize,
    parse_poly,
)
from lacuna.circle_analysis import common_disk_zeros, match_disk_zeros, reflected_zeros
from lacuna.poly_core import ComplexPoly, GaussianRational, conjugate_reciprocal

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
    vals = np.abs(p.eval_many(np.exp(1j * t)))
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


def test_l1_norm_scales_homogeneously():
    p = parse_poly("2 - 3z + z^3")
    a, b = l1_norm(p).value, l1_norm(p * 5).value
    assert abs(b - 5 * a) <= 1e-9 * b


def test_l1_norm_budget():
    # root at 0.85 evades the break seeding, so panels must actually split
    with pytest.raises(QuadratureBudgetExceeded):
        l1_norm(parse_poly("z - 17/20"), tol=1e-30, panel_budget=8)


def test_normalize_float_mode():
    p = parse_poly("1 + z").to_float()
    q, scale = normalize(p)
    assert abs(l1_norm(q).value - 1.0) <= 1e-9
    assert abs(scale - math.pi / 4) <= 1e-9


def test_normalize_exact_keeps_coefficients():
    p = parse_poly("1 + z")
    q, scale = normalize(p)
    assert q.coeffs == p.coeffs
    assert abs(scale - math.pi / 4) <= 1e-9


# -- zero clustering -----------------------------------------------------------


def test_find_zeros_exact_structure():
    p = parse_poly("(z - 1/2)^2 (z + 2)")
    zs = find_zeros(p)
    by_region = {}
    for c in zs:
        by_region.setdefault(c.region, []).append(c)
    (inner,) = by_region["disk"]
    (outer,) = by_region["exterior"]
    assert inner.multiplicity == 2 and abs(inner.location - 0.5) < 1e-12
    assert outer.multiplicity == 1 and abs(outer.location + 2.0) < 1e-12


def test_find_zeros_circle_multiplicity():
    zs = find_zeros(parse_poly("(z - 1)^3 (1 + z^4)"))
    circle = [c for c in zs if c.region == "circle"]
    assert sum(c.multiplicity for c in circle) == 7
    triple = [c for c in circle if c.multiplicity == 3]
    assert len(triple) == 1 and abs(triple[0].location - 1.0) < 1e-10


def test_find_zeros_origin():
    zs = find_zeros(parse_poly("z^2 (1 - z)"))
    origin = [c for c in zs if abs(c.location) < 1e-14]
    assert len(origin) == 1 and origin[0].multiplicity == 2


def test_find_zeros_float_cluster_recovery():
    # np.roots splits a true double zero by ~1e-10; clustering must undo that
    p = parse_poly("(z - 7/10)^2 (z + 3/2)").to_float()
    zs = find_zeros(p)
    doubles = [c for c in zs if c.multiplicity == 2]
    assert len(doubles) == 1
    assert abs(doubles[0].location - 0.7) < 1e-9


def test_find_zeros_prefers_genuinely_split_roots():
    # visible coefficient noise makes a different polynomial with two simple
    # roots; the rebuild score must keep them separate, not merge them
    base = parse_poly("(z - 7/10)^2 (z + 3/2)").to_float()
    noisy = ComplexPoly(
        [complex(c) + 1e-12 * (1 + 1j) for c in base.coeffs], mode="float"
    )
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
    shared, m = common_disk_zeros(p, ps)
    assert m == 1
    assert len(shared) == 1 and abs(shared[0].location - 0.5) < 1e-10


def test_common_disk_zeros_reflected_zero_of_p():
    # 1/2 and 2 are both zeros of p itself, so p* vanishes at 1/2 as well
    p = parse_poly("(z - 1/2)(8 - z^3)")
    ps = conjugate_reciprocal(p, 4)
    shared, m = common_disk_zeros(p, ps)
    assert m == 1 and abs(shared[0].location - 0.5) < 1e-10


def test_common_disk_zeros_none():
    p = parse_poly("1 + z/2")
    ps = conjugate_reciprocal(p, 1)
    shared, m = common_disk_zeros(p, ps)
    assert m == 0 and shared == ()


def test_common_disk_zeros_multiplicity_is_min():
    # p has (z-1/3)^2, p* only one copy reflected in: shared multiplicity 1
    p = parse_poly("(z - 1/3)^2 (z - 3)")
    ps = conjugate_reciprocal(p, 3)
    shared, m = common_disk_zeros(p, ps)
    assert m == 1
    assert abs(shared[0].location - 1 / 3) < 1e-10


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


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_reflected_zeros_match_like_the_zeros_of_pstar(mode):
    rng = random.Random(11)
    seen_pair = seen_origin = False
    for _ in range(40):
        p = _planted_product(rng)
        p = p if mode == "exact" else p.to_float()
        N = p.deg + rng.randint(0, 3)
        shared, m = common_disk_zeros(p, conjugate_reciprocal(p, N))
        clusters = find_zeros(p)
        disk = [c for c in clusters if c.region == "disk"]
        shared_r, m_r = match_disk_zeros(disk, reflected_zeros(clusters, N - p.deg))
        assert m_r == m
        assert [(c.location, c.multiplicity) for c in shared_r] == [
            (c.location, c.multiplicity) for c in shared
        ]
        seen_pair |= any(c.location != 0 for c in shared)
        seen_origin |= any(c.location == 0 for c in shared)
    assert seen_pair and seen_origin


def test_find_zeros_constant_poly():
    assert find_zeros(parse_poly("3")) == []
