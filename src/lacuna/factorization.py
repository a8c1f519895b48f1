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
G = 1 and R = p with no zero analysis at all.  Otherwise p's circle zeros
are read off g, since a circle zero of p is one of p* of the same
multiplicity.  Without its zeros at the origin g is self-inversive, and so
is each part f_j of multiplicity j of its square-free (Yun) decomposition
(A. Cohn, Math. Z. 14, 1922), whose number c_j of circle zeros Sturm's
theorem counts exactly on a Cayley numerator.  Its circle factor C_j is 1
when c_j = 0 (no root is solved), f_j when c_j = deg f_j, and otherwise the
rationalized float product of the c_j zeros of f_j nearest the circle,
accepted only when it divides f_j and has c_j circle zeros; an irrational
split (a Salem polynomial, say) raises :class:`IllConditionedZeros` with
the counts.  The monic G is g / prod C_j^j and m = (deg G + order of G at
0) / 2: only the exact g decides a count.  The float zeros of p and p*
locate the m displayed disk zeros (``common_disk_zeros``, told m and the
order at 0), or the input is refused.  G is scaled to make its symbol on
the circle real and positive: by the natural scale prod(-conj a) when the
disk zeros a have a Gaussian-rational monic product, else by the Gaussian
rational that Hilbert 90 reads off G's coefficients.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .circle_analysis import ZeroCluster, _sort_key, common_disk_zeros, find_zeros
from .errors import IllConditionedZeros, NotHermitianSymmetric
from .plus_cone import CoefVector, _cayley_numerator
from .poly_core import (
    _RATIONALIZE_BOUNDS,
    ComplexPoly,
    GaussianRational,
    _divides,
    conjugate_reciprocal,
    divide_exact,
    gcd_exact,
    linear_product,
    real_root_count,
    square_free_decomposition,
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
    circle_factors: tuple[tuple[ComplexPoly, int], ...]  # (C_j, j): prod C_j^j divides gcd(p, p*)


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


def _factor_out(p: ComplexPoly, factors) -> ComplexPoly | None:
    """The first Gaussian-rational reading, with denominators up to a bound of
    ``_RATIONALIZE_BOUNDS`` and within 1e-9 relative, of the float product
    of the linear factors (c0, c1) = c0 + c1 z that divides p exactly, or
    None when none does."""
    approx = [(c.real, c.imag) for c in linear_product(factors).tolist()]
    for bound in _RATIONALIZE_BOUNDS:
        cand = [[Fraction(x).limit_denominator(bound) for x in c] for c in approx]
        if all(abs(float(r) - x) <= 1e-9 * max(1.0, abs(x)) for c, rc in zip(approx, cand) for x, r in zip(c, rc)):
            D = ComplexPoly([GaussianRational(*c) for c in cand])
            if D.deg == len(factors) and _divides(D.coeffs, p.coeffs):
                return D
    return None


def _hermitian(F: ComplexPoly) -> ComplexPoly:
    """kappa F with a real symbol on the circle, F monic with its zeros paired
    by a -> 1/conj(a): the outer coefficients kappa and kappa F_k (k the order
    of F at 0) must be conjugate, that is conj(kappa) eps = kappa with the
    unimodular eps = conj(F_k), and kappa = 1 + eps solves it (Hilbert 90; i
    when eps = -1)."""
    eps = F.coefficient(F.order_at_zero()).conjugate()
    return F * (1 + eps if eps != -1 else GaussianRational(0, 1))


def _positive_hermitian_multiple(G: ComplexPoly, disk) -> ComplexPoly:
    """kappa G with a real and positive symbol on the circle: kappa is the
    natural scale prod(-conj a) = conj(D(0)) when the monic product D of the
    nonzero disk zeros a (the linear factors ``disk``) is a Gaussian-rational
    divisor of G with D(0) != 0, and otherwise the Hilbert 90 scale of
    ``_hermitian``, with the sign that makes the symbol at t = 0, kappa G(1),
    positive."""
    D = _factor_out(G, disk)
    if D is not None and D.coeffs[0]:  # a disk zero read as 0 gives no scale
        return G * D.coeffs[0].conjugate()
    F = _hermitian(G)
    return -F if sum(F.coeffs).real < 0 else F


def _circle_count(f: ComplexPoly) -> int | None:
    """The exact number of circle zeros of a monic square-free f with
    f(0) != 0, or None when f is not self-inversive.

    F = f, times 1 + z when deg f is odd, has the real symbol
    tau(t) = e^{-iht} kappa F(e^{it}), h = deg F / 2, and tau(2 arctan x) =
    P(x) / (1+x^2)^h with the Cayley numerator P.  Each circle zero e^{it}
    of F but -1 is a simple real root x = tan(t/2) of P, and a zero of
    order k at -1 lowers deg P by k.
    """
    F = f * ComplexPoly([1, 1]) if f.deg % 2 else f
    try:
        v = real_symbol_on_circle(_hermitian(F), F.deg // 2)
    except NotHermitianSymmetric:
        return None
    P = _cayley_numerator(v)
    return real_root_count(P)[0] + F.deg - (len(P) - 1) - f.deg % 2


def circle_parts(g: ComplexPoly) -> list[tuple[ComplexPoly, int, int, list[ZeroCluster]]]:
    """(f, j, c, zeros) for each part f of multiplicity j of the square-free
    decomposition of g = gcd(p, p*), origin dropped, with c > 0 circle zeros
    (``_circle_count``); ``zeros`` are the c float zeros of f nearest the
    circle, as circle zeros of multiplicity j."""
    parts = []
    for f, j in square_free_decomposition(ComplexPoly(g.coeffs[g.order_at_zero():])):
        if c := _circle_count(f):
            near = sorted(find_zeros(f), key=lambda z: abs(1 - abs(z.location)))[:c]
            parts.append((f, j, c, [dataclasses.replace(z, multiplicity=j) for z in near]))
    return parts


def canonical_factorization(p: ComplexPoly, N: int) -> CanonicalData:
    """Factor out the zeros shared with the conjugate-reciprocal inside the disk."""
    if p.deg < 0:
        raise ValueError("cannot factor the zero polynomial")
    if p.deg > N:
        raise ValueError(f"degree {p.deg} exceeds the ambient degree {N}")
    pstar = conjugate_reciprocal(p, N)
    g = gcd_exact(p, pstar)
    if g.deg == 0:  # no shared zero, and so no circle zero either
        return CanonicalData((), 0, N, ComplexPoly.one(), p, (), ())
    G, clusters, circle = g, [], []
    for f, j, c, zeros in circle_parts(g):
        C = f if c == f.deg else _factor_out(f, [(-z.location, 1.0) for z in zeros])
        if c < f.deg and (C is None or _circle_count(C) != c):
            raise IllConditionedZeros(
                "no Gaussian-rational monic product of the circle zeros of p with denominators "
                f"up to {_RATIONALIZE_BOUNDS[-1]:.0e} divides the part of multiplicity {j} of "
                f"gcd(p, p*): {c} of its {f.deg} zeros lie on the circle, and the split is "
                "irrational (a Salem factor, say)",
                diagnostics={"multiplicity": j, "circle_zeros": c, "degree": f.deg},
            )
        clusters += zeros
        circle.append((C, j))
        for _ in range(j):
            G = divide_exact(G, C)
    origin = G.order_at_zero()
    m, shared = (G.deg + origin) // 2, ()
    if m:  # the located zeros are displayed, and give G its natural scale
        shared = common_disk_zeros(p, pstar, m, origin)
        G = _positive_hermitian_multiple(
            G, [(-c.location, 1.0) for c in shared if c.location for _ in range(c.multiplicity)]
        )
    return CanonicalData(
        disk_zeros=shared,
        m=m,
        s=N - 2 * m,
        disk_factor=G,
        cofactor=divide_exact(p, G),
        zero_clusters=tuple(sorted(clusters, key=lambda c: _sort_key(c.location))),
        circle_factors=tuple(circle),
    )


def tilde_factorization(N: int, canonical: CanonicalData) -> TildeData:
    """Extend the canonical factor by half of every multiple circle zero.

    As (z - a)(1 - conj(a) z) = -conj(a) (z - a)^2 for |a| = 1, the circle
    factor is prod_j (conj(C_j(0)) C_j^2)^floor(j/2) over the canonical
    circle factors C_j.  It is divided out of the canonical cofactor, so
    the total factor is the canonical factor times the circle factor; with
    no circle zero halved (mu = 0) both are the canonical ones.
    """
    triples = tuple(
        (complex(c.location), c.multiplicity, c.multiplicity // 2)
        for c in canonical.zero_clusters
    )
    mu = sum(t[2] for t in triples)
    circle_factor = ComplexPoly.one()
    if not mu:
        return TildeData(triples, 0, canonical.m, canonical.s, circle_factor, canonical.disk_factor, canonical.cofactor)
    for C, j in canonical.circle_factors:
        for _ in range(j // 2):
            circle_factor = circle_factor * C * C * C.coeffs[0].conjugate()
    return TildeData(
        circle_zeros=triples,
        mu=mu,
        m_tilde=canonical.m + mu,
        s_tilde=N - 2 * (canonical.m + mu),
        circle_factor=circle_factor,
        total_factor=canonical.disk_factor * circle_factor,
        reduced_cofactor=divide_exact(canonical.cofactor, circle_factor),
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
