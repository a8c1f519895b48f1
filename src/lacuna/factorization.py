"""Splitting off common disk zeros and doubled circle zeros.

Writes p = G R where G collects each zero a shared by p and its
conjugate-reciprocal p* inside the open disk, paired with its reflection:
G = prod (z - a)^m (1 - conj(a) z)^m.  The tilde factorization is the
canonical one times the circle part: the circle factor C takes
floor(multiplicity/2) copies of every circle zero of p, reflected the same
way, and is divided out of R, so p = (G C) R~.  The rank criteria read
their constraint matrices off the cofactors R and R~.  Both levels
run through one split, ``_factor_out``, whose one consistency check is that
the quotient fits the degree budget N - 2m (N - 2m~ for the tilde level);
with no zeros to split off, an exact input is its own quotient by the
factor 1, and a float input is divided by the constant 1.0.

When the input has Gaussian-rational coefficients the factors are
reconstructed exactly: the float factor built from the clustered zeros is
rationalized coefficient-by-coefficient (growing denominator bounds) and
accepted only if exact division succeeds.  Configurations whose factor
is irrational (possible: the scalar normalization of G need not be rational
even for rational p), or whose rational factor has denominators beyond the
bounds, fall back to the float factor, accepted when the division leaves a
remainder within ``_FLOAT_DIVISION_TOL``.  That fallback can lose
correctness, not only exactness: zeros of p and p* closer than
``circle_analysis._MATCH_RADIUS`` count as shared though gcd(p, p*) = 1,
and the tolerant division then accepts a factor that does not divide p, so
m, mu and the verdicts read from them can be wrong; for example
(z - 1/2)(1 - (1/2 + 10^-8) z) on pattern 2 is reported with m = 1.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .circle_analysis import ZeroCluster, common_disk_zeros, find_zeros
from .errors import IllConditionedZeros, NotDivisible, NotHermitianSymmetric
from .plus_cone import CoefVector
from .poly_core import ComplexPoly, GaussianRational, conjugate_reciprocal, divide_exact, linear_product

_RATIONALIZE_BOUNDS = (10**4, 10**7, 10**10)
_FLOAT_DIVISION_TOL = 1e-6


@dataclasses.dataclass(frozen=True)
class CanonicalData:
    """p = disk_factor * cofactor, with the shared-disk-zero bookkeeping."""

    disk_zeros: tuple[ZeroCluster, ...]
    m: int
    s: int
    disk_factor: ComplexPoly
    cofactor: ComplexPoly
    zero_clusters: tuple[ZeroCluster, ...]
    mode: str  # "exact" if the factorization itself is exact, else "float"


@dataclasses.dataclass(frozen=True)
class TildeData:
    """p = total_factor * reduced_cofactor, circle zeros half-absorbed."""

    circle_zeros: tuple[tuple[complex, int, int], ...]  # (location, lam, mu)
    mu: int
    m_tilde: int
    s_tilde: int
    circle_factor: ComplexPoly
    total_factor: ComplexPoly
    reduced_cofactor: ComplexPoly
    mode: str


def _build_factor_float(items) -> ComplexPoly:
    """prod (z - a)^m (1 - conj(a) z)^m as a float polynomial."""
    factors = []
    for loc, mult in items:
        a = complex(loc)
        factors += [(-a, 1.0), (1.0, -a.conjugate())] * mult
    return ComplexPoly([complex(x) for x in linear_product(factors)])


def _rationalize_coefficients(pf: ComplexPoly, bound: int):
    out = []
    for c in pf.coeffs:
        c = complex(c)
        re = Fraction(c.real).limit_denominator(bound)
        im = Fraction(c.imag).limit_denominator(bound)
        if abs(float(re) - c.real) > 1e-9 * max(1.0, abs(c.real)):
            return None
        if abs(float(im) - c.imag) > 1e-9 * max(1.0, abs(c.imag)):
            return None
        out.append(GaussianRational(re, im))
    return ComplexPoly(out)


def _factor_out(p: ComplexPoly, items, s: int) -> tuple[ComplexPoly, ComplexPoly, str]:
    """Divide the factor described by (location, multiplicity) items out of p.

    The quotient must fit the degree budget s, which also rejects s < 0; a
    factor of higher degree than p already fails the division.  With no
    items an exact p is its own quotient, with no division.
    """
    factor, quotient, mode = _build_factor_float(items), None, "float"
    if p.mode == "exact" and not items:
        factor, quotient, mode = ComplexPoly.one(), p, "exact"
    elif p.mode == "exact":
        for bound in _RATIONALIZE_BOUNDS:
            cand = _rationalize_coefficients(factor, bound)
            if cand is None or cand.deg != factor.deg:
                continue
            try:
                quotient = divide_exact(p, cand)
            except NotDivisible:
                continue
            factor, mode = cand, "exact"
            break
    if quotient is None:
        quotient = divide_exact(p, factor, tol=_FLOAT_DIVISION_TOL)
    if quotient.deg > s:
        raise IllConditionedZeros(
            "cofactor degree exceeds the degree budget; zero identification is inconsistent",
            diagnostics={"cofactor_degree": quotient.deg, "budget": s},
        )
    return factor, quotient, mode


def canonical_factorization(p: ComplexPoly, N: int) -> CanonicalData:
    """Factor out the zeros shared with the conjugate-reciprocal inside the disk."""
    if p.deg < 0:
        raise ValueError("cannot factor the zero polynomial")
    if p.deg > N:
        raise ValueError(f"degree {p.deg} exceeds the ambient degree {N}")
    pstar = conjugate_reciprocal(p, N)
    clusters = find_zeros(p)
    shared, m = common_disk_zeros(p, pstar)
    s = N - 2 * m
    G, R, mode = _factor_out(p, [(c.location, c.multiplicity) for c in shared], s)
    return CanonicalData(
        disk_zeros=shared,
        m=m,
        s=s,
        disk_factor=G,
        cofactor=R,
        zero_clusters=clusters,
        mode=mode,
    )


def tilde_factorization(N: int, canonical: CanonicalData) -> TildeData:
    """Extend the canonical factor by half of every multiple circle zero.

    The circle factor is divided out of the canonical cofactor, so the total
    factor is the canonical factor times the circle factor.
    """
    circle = [c for c in canonical.zero_clusters if c.region == "circle"]
    triples = tuple(
        (complex(c.location), c.multiplicity, c.multiplicity // 2) for c in circle
    )
    mu = sum(t[2] for t in triples)
    m_tilde = canonical.m + mu
    s_tilde = N - 2 * m_tilde
    doubled = [(loc, mu_j) for loc, _lam, mu_j in triples if mu_j >= 1]
    circle_factor, R_tilde, mode = _factor_out(canonical.cofactor, doubled, s_tilde)
    return TildeData(
        circle_zeros=triples,
        mu=mu,
        m_tilde=m_tilde,
        s_tilde=s_tilde,
        circle_factor=circle_factor,
        total_factor=canonical.disk_factor * circle_factor,
        reduced_cofactor=R_tilde,
        mode=mode,
    )


def real_symbol_on_circle(F: ComplexPoly, half_degree: int) -> CoefVector:
    """Coefficient vector of t -> e^{-i h t} F(e^{it}), h = half_degree.

    Requires the Hermitian symmetry F_{h+l} = conj(F_{h-l}) that makes the
    symbol real; raises :class:`NotHermitianSymmetric` otherwise.
    """
    h = half_degree
    if h < 0 or F.deg > 2 * h:
        raise ValueError("half_degree incompatible with the polynomial degree")
    scale = F.max_abs_coeff() or 1.0
    for l in range(h + 1):
        hi = F.coefficient(h + l)
        lo = F.coefficient(h - l)
        if F.mode == "exact":
            if hi != lo.conjugate():
                raise NotHermitianSymmetric(
                    f"coefficient {h + l} is not the conjugate of coefficient {h - l}"
                )
        else:
            if abs(complex(hi) - complex(lo).conjugate()) > 1e-9 * scale:
                raise NotHermitianSymmetric(
                    f"coefficients {h + l}/{h - l} break Hermitian symmetry "
                    f"beyond 1e-9 relative"
                )
    alpha = [F.coefficient(h).real / 2]
    alpha += [F.coefficient(h + l).real for l in range(1, h + 1)]
    beta = [F.coefficient(h + l).imag for l in range(1, h + 1)]
    return CoefVector(h, tuple(alpha), tuple(beta))
