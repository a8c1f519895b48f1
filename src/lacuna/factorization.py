"""Splitting off common disk zeros and doubled circle zeros.

Writes p = G R where G collects each zero a shared by p and its
conjugate-reciprocal p* inside the open disk, paired with its reflection:
G = prod (z - a)^m (1 - conj(a) z)^m.  The tilde factorization is the
canonical one times the circle part: the circle factor C takes
floor(multiplicity/2) copies of every circle zero of p, reflected the same
way, and is divided out of R, so p = (G C) R~.  The rank criteria read
their constraint matrices off the cofactors R and R~; the tilde factor
G C is not kept, and the classifier forms it for its tilde seed.

Every factor is exact, read off p's Gaussian-rational coefficients.  G
divides g = gcd(p, p*): when the modular certificate inside ``gcd_exact``
proves g = 1, p shares no zero with p* and has no circle zero, so m = 0,
G = 1 and R = p with no zero analysis at all.  Otherwise p's circle zeros
are read off g, since a circle zero of p is one of p* of the same
multiplicity.  Without its zeros at the origin g is self-inversive, and so
is each part f_j of multiplicity j of its square-free (Yun) decomposition
(A. Cohn, Math. Z. 14, 1922).  A part over Z[i] with a unit constant term
and |f_k| <= C(deg f_j, k) is first tried as a divisor of z^n - 1: when
z^n = 1 modulo f_j for some n <= 4 deg f_j + 8, each zero of f_j is an
n-th root of unity (by Kronecker, 1857, these are all the parts over Z[i]
with every zero on the circle, up to the bound), so c_j = deg f_j,
C_j = f_j, and its zeros are read off the n-th roots of unity with no
root solve.  Every other part has its number c_j of circle zeros counted
exactly by Sturm's theorem on a Cayley numerator.  Its circle factor C_j
is 1 when c_j = 0 (no root is solved), f_j when c_j = deg f_j, and
otherwise the rationalized float product prod (z - a) of the c_j zeros a
of f_j nearest the circle, multiplied in their order, accepted only when
it divides f_j and has c_j circle zeros; an irrational split (a Salem
polynomial, say) raises :class:`IllConditionedZeros` with the counts.
The monic G is z^origin prod (f_j / C_j)^j, origin the order of g at 0,
with one exact division per part partly on the circle, and m = (deg G +
origin) / 2: only the exact g decides a count.  The float zeros of p and
p* locate the m displayed disk zeros (``common_disk_zeros``, told m and
the origin), or the input is refused.  G is scaled to make its symbol
on the circle real and positive: by the natural scale prod(-conj a) when
the disk zeros a have a Gaussian-rational monic product, else by the
Gaussian rational that Hilbert 90 reads off G's coefficients.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .circle_analysis import (
    _BACKWARD_ERROR,
    ZeroCluster,
    _sort_key,
    common_disk_zeros,
    find_zeros,
)
from .errors import IllConditionedZeros, NotHermitianSymmetric
from .plus_cone import CoefVector, _cayley_numerator
from .poly_core import (
    _RATIONALIZE_BOUNDS,
    ComplexPoly,
    GaussianRational,
    _divides,
    _integer_parts,
    conjugate_reciprocal,
    divide_exact,
    gcd_exact,
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
    """p = disk_factor * circle_factor * reduced_cofactor."""

    mu: int  # sum of floor(lam / 2) over the canonical zero clusters
    m_tilde: int
    s_tilde: int
    circle_factor: ComplexPoly
    reduced_cofactor: ComplexPoly


def _factor_out(p: ComplexPoly, zeros) -> ComplexPoly | None:
    """The first Gaussian-rational reading, with denominators up to a bound of
    ``_RATIONALIZE_BOUNDS`` and within 1e-9 relative, of the float product
    prod (z - a) over the float ``zeros`` a, multiplied in the order given,
    that divides p exactly, or None when none does."""
    prod = [1 + 0j]
    for a in zeros:  # times z - a
        prod = [x - a * y for x, y in zip([0j, *prod], [*prod, 0j])]
    approx = [(c.real, c.imag) for c in prod]
    for bound in _RATIONALIZE_BOUNDS:
        cand = [[Fraction(x).limit_denominator(bound) for x in c] for c in approx]
        if all(abs(float(r) - x) <= 1e-9 * max(1.0, abs(x)) for c, rc in zip(approx, cand) for x, r in zip(c, rc)):
            D = ComplexPoly([GaussianRational(*c) for c in cand])
            if D.deg == len(zeros) and _divides(D.coeffs, p.coeffs):
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
    nonzero disk zeros a (``disk``, each as often as its multiplicity) is
    a Gaussian-rational divisor of G with D(0) != 0, and otherwise the
    Hilbert 90 scale of ``_hermitian``, with the sign that makes the symbol
    at t = 0, kappa G(1), positive."""
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


def _unity_order(f: ComplexPoly) -> int | None:
    """The least n <= 4 d + 8, d = deg f, with z^n = 1 modulo the monic f, so
    that f divides the square-free z^n - 1; None when there is none.

    Only an f over Z[i] with a unit f(0) and |f_k| <= C(d, k), the bounds a
    monic f with every zero on the circle meets, is tried; any other f gives
    None at once.  Each step r <- z r mod f is a shift and a subtraction of
    the shifted-out entry times f's nonzero lower terms, on Gaussian
    integers.  The bound covers the orders k, 2k and 4k of the parts of
    (1 +- z^k)^j and (1 +- iz^k)^j, and keeps a part the test leaves at
    O(d) steps, each O(d): fewer than its Sturm chain and root solve cost.
    """
    d = f.deg
    D, re, im = _integer_parts(f.coeffs)
    im = im or [0] * (d + 1)
    if D != 1 or re[0] ** 2 + im[0] ** 2 != 1:
        return None
    if any(a * a + b * b > math.comb(d, k) ** 2 for k, (a, b) in enumerate(zip(re, im))):
        return None
    terms = [(k, a, b) for k, (a, b) in enumerate(zip(re[:d], im[:d])) if a or b]
    one, zero = [1] + [0] * (d - 1), [0] * d
    rr, ri = list(one), list(zero)
    for n in range(1, 4 * d + 9):
        tr, ti = rr.pop(), ri.pop()
        rr.insert(0, 0)
        ri.insert(0, 0)
        if tr or ti:
            for k, a, b in terms:
                rr[k] -= tr * a - ti * b
                ri[k] -= tr * b + ti * a
        if rr == one and ri == zero:
            return n
    return None


def _unity_point(k: int, n: int) -> complex:
    """e^{2 pi i k / n} as i^q e^{i pi r / (2n)}, 4k = q n + r with 0 <= r < n:
    a quarter turn swaps the parts, so 1, i, -1 and -i are exact."""
    q, r = divmod(4 * k, n)
    t = math.pi * r / (2 * n)
    w = complex(math.cos(t), math.sin(t))
    for _ in range(q):
        w = complex(0.0 - w.imag, w.real)  # times i, with +0.0 for -0.0
    return w


def _unity_zeros(f: ComplexPoly, n: int) -> list[complex] | None:
    """The zeros of f, a divisor of z^n - 1: the n-th roots of unity w_k at
    which f's float value has a backward error of at most ``_BACKWARD_ERROR``
    (``find_zeros``' bound), or None when they are not deg f many.  A power
    of w_k is w_{jk mod n}, so f(w_k) sums f's nonzero terms off the table."""
    points = [_unity_point(k, n) for k in range(n)]
    terms = [(j, complex(c)) for j, c in enumerate(f.coeffs) if c]
    bound = _BACKWARD_ERROR * sum(abs(c) for _, c in terms)
    zeros = [w for k, w in enumerate(points) if abs(sum(c * points[j * k % n] for j, c in terms)) <= bound]
    return zeros if len(zeros) == f.deg else None


def circle_parts(g: ComplexPoly) -> list[tuple[ComplexPoly, int, list[ZeroCluster]]]:
    """(f, j, zeros) for every part f of multiplicity j of the square-free
    decomposition of g = gcd(p, p*), origin dropped, with f's circle zeros,
    each one of ``zeros`` at multiplicity j (none for a part off the
    circle).  A part that divides z^n - 1 (``_unity_order``) has deg f of
    them, the n-th roots of unity it vanishes at (``_unity_zeros``).  Any
    other part, or one whose roots of unity are not read unambiguously, has
    their number c counted exactly (``_circle_count``), and they are the c
    float zeros of f nearest the circle."""
    parts = []
    for f, j in square_free_decomposition(ComplexPoly(g.coeffs[g.order_at_zero():])):
        n = _unity_order(f)
        zeros = _unity_zeros(f, n) if n else None
        if zeros is None:
            c = _circle_count(f)
            near = sorted(find_zeros(f), key=lambda z: abs(1 - abs(z.location))) if c else []
            zeros = [z.location for z in near[:c]]
        parts.append((f, j, [ZeroCluster(z, j) for z in zeros]))
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
    origin = g.order_at_zero()
    G, clusters, circle = ComplexPoly.monomial(origin), [], []
    for f, j, zeros in circle_parts(g):  # G = z^origin prod (f / C)^j
        c = len(zeros)
        if c:
            C = f if c == f.deg else _factor_out(f, [z.location for z in zeros])
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
        if c < f.deg:
            F = divide_exact(f, C) if c else f
            for _ in range(j):
                G = G * F
    m, shared = (G.deg + origin) // 2, ()
    if m:  # the located zeros are displayed, and give G its natural scale
        shared = common_disk_zeros(p, pstar, m, origin)
        G = _positive_hermitian_multiple(
            G, [c.location for c in shared if c.location for _ in range(c.multiplicity)]
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


def tilde_factorization(canonical: CanonicalData) -> TildeData:
    """Extend the canonical factor by half of every multiple circle zero.

    As (z - a)(1 - conj(a) z) = -conj(a) (z - a)^2 for |a| = 1, the circle
    factor is prod_j (conj(C_j(0)) C_j^2)^floor(j/2) over the canonical
    circle factors C_j.  It is divided out of the canonical cofactor, so
    the tilde factor G C is the canonical factor G times the circle factor
    C, and s~ = s - 2 mu; with no circle zero halved (mu = 0), C = 1.
    """
    mu = sum(c.multiplicity // 2 for c in canonical.zero_clusters)
    circle_factor = ComplexPoly.one()
    for C, j in canonical.circle_factors:
        for _ in range(j // 2):
            circle_factor = circle_factor * C * C * C.coeffs[0].conjugate()
    return TildeData(
        mu=mu,
        m_tilde=canonical.m + mu,
        s_tilde=canonical.s - 2 * mu,
        circle_factor=circle_factor,
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
