"""Splitting off common disk zeros and doubled circle zeros.

Writes p = G R where G collects each zero a shared by p and its
conjugate-reciprocal p* inside the open disk, paired with its reflection:
G = prod (z - a)^m (1 - conj(a) z)^m.  The tilde factorization is the
canonical one times the circle part: the circle factor C takes
floor(multiplicity/2) copies of every circle zero of p, reflected the same
way, and is divided out of R, so p = (G C) R~.  The rank criteria read
their constraint matrices off the cofactors R and R~.

Every factor is exact, read off p's Gaussian-rational coefficients.  G
divides g = gcd(p, p*): when the modular certificate inside ``gcd_exact``
proves g = 1, p shares no zero with p* and has no circle zero, so m = 0,
G = 1 and R = p with no zero analysis at all.
Otherwise g is p's circle zeros (with multiplicity) times G: a circle zero
of p is one of p* of the same multiplicity, so the circle zeros are read off
the zeros of g, not of p.  The monic G is g divided by the monic product of
the circle zeros, and m = (deg G + order of G at 0) / 2.  The displayed
disk zeros are the pairs that the match band of ``common_disk_zeros``
finds, and their count must be m.  G is scaled to make its symbol on the
circle real and positive: by the natural scale prod(-conj a) when the disk
zeros a have a Gaussian-rational monic product, else by the Gaussian
rational that Hilbert 90 reads off G's coefficients.

A circle factor is found by rationalizing the float product of the circle
zeros coefficient by coefficient (growing denominator bounds) and is
accepted only if it divides exactly.  Where none does (an irrational split,
such as the circle factor of a Salem polynomial, a zero that the band
counts on the circle but that lies off it, or denominators beyond the
bounds) the factorization raises :class:`IllConditionedZeros` naming the
factor; it never falls back to floats.  Which zeros count as circle zeros
is still read off the band ``circle_analysis._EPS_CIRCLE``.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .circle_analysis import ZeroCluster, common_disk_zeros, find_zeros
from .errors import IllConditionedZeros, NotDivisible, NotHermitianSymmetric
from .plus_cone import CoefVector
from .poly_core import (
    _RATIONALIZE_BOUNDS,
    ComplexPoly,
    GaussianRational,
    conjugate_reciprocal,
    divide_exact,
    gcd_exact,
    linear_product,
)


@dataclasses.dataclass(frozen=True)
class CanonicalData:
    """p = disk_factor * cofactor, with the shared-disk-zero bookkeeping."""

    disk_zeros: tuple[ZeroCluster, ...]
    m: int
    s: int
    disk_factor: ComplexPoly
    cofactor: ComplexPoly
    zero_clusters: tuple[ZeroCluster, ...]  # p's circle zeros, read off gcd(p, p*)


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


def _rationalize_coefficients(approx, bound: int):
    """The Gaussian rationals with denominators up to bound nearest the float
    coefficients ``approx``, or None when one is off by more than 1e-9."""
    out = []
    for c in approx.tolist():
        re = Fraction(c.real).limit_denominator(bound)
        im = Fraction(c.imag).limit_denominator(bound)
        if abs(float(re) - c.real) > 1e-9 * max(1.0, abs(c.real)):
            return None
        if abs(float(im) - c.imag) > 1e-9 * max(1.0, abs(c.imag)):
            return None
        out.append(GaussianRational(re, im))
    return ComplexPoly(out)


def _factor_out(p: ComplexPoly, factors, s: int, what: str = "factor") -> tuple[ComplexPoly, ComplexPoly]:
    """Divide the product of the linear factors (c0, c1) = c0 + c1 z out of p.

    The factor is the first rationalization of the float product that
    divides p exactly; when none does, :class:`IllConditionedZeros` names
    the factor as ``what``.  The quotient must fit the degree budget s,
    which also rejects s < 0.  With no factors p is its own quotient.
    """
    factor, quotient = ComplexPoly.one(), p
    if factors:
        approx = linear_product(factors)
        for bound in _RATIONALIZE_BOUNDS:
            cand = _rationalize_coefficients(approx, bound)
            if cand is None or cand.deg != len(approx) - 1:
                continue
            try:
                factor, quotient = cand, divide_exact(p, cand)
                break
            except NotDivisible:
                continue
        else:
            raise IllConditionedZeros(
                f"no Gaussian-rational {what} with denominators up to "
                f"{_RATIONALIZE_BOUNDS[-1]:.0e} divides exactly: the split is irrational "
                "(a Salem factor, say), or a zero within the circle band lies off the circle",
                diagnostics={"factor": what, "degree": len(factors)},
            )
    if quotient.deg > s:
        raise IllConditionedZeros(
            "cofactor degree exceeds the degree budget; zero identification is inconsistent",
            diagnostics={"cofactor_degree": quotient.deg, "budget": s},
        )
    return factor, quotient


def _positive_hermitian_multiple(G: ComplexPoly, disk) -> ComplexPoly:
    """kappa G for a Gaussian rational kappa whose symbol on the circle is real
    and positive, G monic with its zeros paired by a -> 1/conj(a).

    The natural scale is kappa = prod(-conj a) = conj(D(0)) over the nonzero
    disk zeros a, D their monic product (the linear factors ``disk``), and it
    is kept when D is a Gaussian-rational divisor of G.  Otherwise: the outer
    coefficients of kappa G are kappa and kappa G_k (k the order of G at 0),
    a real symbol needs kappa = conj(kappa G_k), that is conj(kappa) eps =
    kappa with the unimodular eps = conj(G_k), and kappa = 1 + eps solves it
    (Hilbert 90; i when eps = -1), with the sign that makes the symbol at
    t = 0, kappa G(1), positive.
    """
    try:
        return G * _factor_out(G, disk, G.deg)[0].coeffs[0].conjugate()
    except IllConditionedZeros:
        pass
    eps = G.coefficient(G.order_at_zero()).conjugate()
    F = G * (1 + eps if eps != -1 else GaussianRational(0, 1))
    return -F if sum(F.coeffs).real < 0 else F


def canonical_factorization(p: ComplexPoly, N: int) -> CanonicalData:
    """Factor out the zeros shared with the conjugate-reciprocal inside the disk."""
    if p.deg < 0:
        raise ValueError("cannot factor the zero polynomial")
    if p.deg > N:
        raise ValueError(f"degree {p.deg} exceeds the ambient degree {N}")
    pstar = conjugate_reciprocal(p, N)
    g = gcd_exact(p, pstar)
    if g.deg == 0:  # no shared zero, and so no circle zero either
        return CanonicalData((), 0, N, ComplexPoly.one(), p, ())
    # a circle zero of p is one of p* of the same multiplicity, and so of g
    clusters = [c for c in find_zeros(g) if c.region == "circle"]
    circle = [(-c.location, 1.0) for c in clusters for _ in range(c.multiplicity)]
    G = _factor_out(g, circle, g.deg, "monic product of the circle zeros of p")[1]
    m, odd = divmod(G.deg + G.order_at_zero(), 2)
    # the matched zeros are displayed, and give G its natural scale
    shared, m_band = common_disk_zeros(p, pstar) if m else ((), 0)
    if odd or m_band != m:
        raise IllConditionedZeros(
            f"the exact gcd(p, p*) leaves a shared factor of degree {G.deg}, but the "
            f"match band pairs {m_band} disk zeros of p and p*",
            diagnostics={"factor_degree": G.deg, "matched": m_band},
        )
    if m:
        G = _positive_hermitian_multiple(
            G, [(-c.location, 1.0) for c in shared if c.location for _ in range(c.multiplicity)]
        )
    return CanonicalData(
        disk_zeros=shared,
        m=m,
        s=N - 2 * m,
        disk_factor=G,
        cofactor=divide_exact(p, G),
        zero_clusters=tuple(clusters),
    )


def tilde_factorization(N: int, canonical: CanonicalData) -> TildeData:
    """Extend the canonical factor by half of every multiple circle zero.

    The circle factor is divided out of the canonical cofactor, so the total
    factor is the canonical factor times the circle factor.
    """
    triples = tuple(
        (complex(c.location), c.multiplicity, c.multiplicity // 2)
        for c in canonical.zero_clusters
    )
    mu = sum(t[2] for t in triples)
    m_tilde = canonical.m + mu
    s_tilde = N - 2 * m_tilde
    doubled = [f for loc, _lam, mu_j in triples for f in [(-loc, 1.0), (1.0, -loc.conjugate())] * mu_j]
    circle_factor, R_tilde = _factor_out(
        canonical.cofactor, doubled, s_tilde, "circle factor (half of each multiple circle zero)"
    )
    return TildeData(
        circle_zeros=triples,
        mu=mu,
        m_tilde=m_tilde,
        s_tilde=s_tilde,
        circle_factor=circle_factor,
        total_factor=canonical.disk_factor * circle_factor,
        reduced_cofactor=R_tilde,
    )


def real_symbol_on_circle(F: ComplexPoly, half_degree: int) -> CoefVector:
    """Coefficient vector of t -> e^{-i h t} F(e^{it}), h = half_degree.

    Requires the Hermitian symmetry F_{h+l} = conj(F_{h-l}) that makes the
    symbol real; raises :class:`NotHermitianSymmetric` otherwise.
    """
    h = half_degree
    if h < 0 or F.deg > 2 * h:
        raise ValueError("half_degree incompatible with the polynomial degree")
    for l in range(h + 1):
        if F.coefficient(h + l) != F.coefficient(h - l).conjugate():
            raise NotHermitianSymmetric(
                f"coefficient {h + l} is not the conjugate of coefficient {h - l}"
            )
    alpha = [F.coefficient(h).real / 2]
    alpha += [F.coefficient(h + l).real for l in range(1, h + 1)]
    beta = [F.coefficient(h + l).imag for l in range(1, h + 1)]
    return CoefVector(h, tuple(alpha), tuple(beta))
