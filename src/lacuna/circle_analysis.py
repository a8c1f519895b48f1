"""Circle-side analysis: L1 norm on the unit circle and zero structure.

The integral mean ``(1/2pi) int |p(e^it)| dt`` is computed by adaptive
composite Gauss-Legendre quadrature.  |p| is analytic between its circle
zeros, so panel boundaries are seeded at the arguments of the circle zeros.
The classifier passes those it already holds (its exact zero structure,
empty when gcd(p, p*) = 1), so its norm solves no roots; called without
them, the norm finds them the same way.  Every panel then
sees a one-sided algebraic kink at worst and the composite rule converges
fast.  With no circle zero the panels start as max(48, deg p) equal ones,
so a generic input needs few rounds.  Refinement runs in rounds: each round
splits the fewest largest-gap panels whose gaps |I32 - I16| cover the
excess over half the target, and evaluates all their children in one
in-place Horner loop.
Values and gaps are summed by ``math.fsum``, and the target is never finer
than the rounding floor of the summed value.

Zero finding reports clusters ``(location, multiplicity)``.  Numeric
multiplicity is ill-posed, so it is decided exactly, on the
Gaussian-rational input: a degree-0 gcd(p, p') modulo a prime certifies
that p is square-free (every zero simple), and only otherwise does a
square-free (Yun) decomposition split p and give the multiplicities.  One
Newton pass polishes the companion-matrix roots of each square-free part as
a whole array, each step reading p and p' off one table of powers, and
checks their backward errors: one above 1e-6, or overflowed (NaN), raises
:class:`IllConditionedZeros`, as does a zero beyond the float range.  No
float zero decides a count: ``common_disk_zeros`` is given the exact number
of shared disk zeros and only locates them, and ``factorization`` reads
its exact factors off the located zeros.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from collections.abc import Iterable

import numpy as np

from .errors import IllConditionedZeros, QuadratureBudgetExceeded
from .poly_core import ComplexPoly, conjugate_reciprocal, gcd_exact, square_free_decomposition

_GL_LO = np.polynomial.legendre.leggauss(16)
_GL_HI = np.polynomial.legendre.leggauss(32)
# a panel's nodes for both rules, evaluated together
_GL_NODES = np.concatenate([_GL_LO[0], _GL_HI[0]])
# distance under which a zero of p and a zero of p* count as one shared zero
_MATCH_RADIUS = 1e-6
# the largest backward error |p(r)| / sum |c_k| |r|^k at which r is a zero of p
_BACKWARD_ERROR = 1e-6
# relative rounding error of the summed quadrature value
_ROUNDING_FLOOR = 32 * np.finfo(float).eps
# l1_norm's target absolute error (times the norm below unit norm) and panel cap
_TOL = 1e-10
_PANEL_BUDGET = 20000


@dataclasses.dataclass(frozen=True)
class NormResult:
    value: float
    abs_error_bound: float
    panels: int


@dataclasses.dataclass(frozen=True)
class ZeroCluster:
    location: complex
    multiplicity: int


def _sort_key(z: complex):
    ang = cmath.phase(z) % (2 * math.pi)
    # snap wrap-around noise so +pi and -pi variants of the same root agree
    if ang > 2 * math.pi - 1e-12:
        ang = 0.0
    return (round(ang, 9), abs(z))


def _panel_integrals(coeffs: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """32-point integrals of |p| over the panels (a[i], b[i]) and their gaps
    |I32 - I16| to the 16-point ones.  All nodes go through one in-place
    Horner loop, which does ``np.polyval``'s operations in its order, and
    each rule is one matrix-vector product."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    z = np.exp(1j * (mid[:, None] + half[:, None] * _GL_NODES))
    vals = np.full(z.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        vals *= z
        vals += c
    vals = np.abs(vals)
    n = len(_GL_LO[0])
    lo, hi = half * (vals[:, :n] @ _GL_LO[1]), half * (vals[:, n:] @ _GL_HI[1])
    return hi, np.abs(hi - lo)


def l1_norm(p: ComplexPoly, circle_zeros: Iterable[ZeroCluster] | None = None) -> NormResult:
    """Integral mean of |p| over the unit circle.

    Parameters
    ----------
    p : ComplexPoly
        Nonzero polynomial.
    circle_zeros : iterable of ZeroCluster, optional
        The zeros of p on the circle, the only points where |p| is not
        analytic; their arguments are the first panel breaks, and an empty
        one starts from max(48, deg p) equal panels (at most
        ``_PANEL_BUDGET``).  Given, no root is solved here.
        When None, they are split off g = gcd(p, p*) as the classifier
        splits them: none when g = 1 (a modular certificate, no root
        solve), otherwise the exactly counted circle zeros of each part of
        g's square-free decomposition (``factorization.circle_parts``).

    The target absolute error is ``_TOL`` times the norm below unit norm;
    where the rounding floor 32 eps |value| is larger, that floor is the
    target, so the result does not depend on the scale of p.  A round of
    splits that would take the panels past ``_PANEL_BUDGET`` raises
    :class:`QuadratureBudgetExceeded`.

    Returns
    -------
    NormResult
        ``value`` with ``abs_error_bound`` (the summed gaps |I32 - I16| of
        the panels plus the rounding floor) and the panel count used.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no unit-norm representative")
    coeffs = _float_coeffs(p, "p")
    if circle_zeros is None:  # split off g = gcd(p, p*) as the classifier splits it
        from .factorization import circle_parts  # factorization imports this module

        g = gcd_exact(p, conjugate_reciprocal(p, p.deg))
        circle_zeros = [z for *_, zeros in circle_parts(g) for z in zeros]
    breaks = sorted({cmath.phase(c.location) % (2 * math.pi) for c in circle_zeros})
    if not breaks:
        n = min(max(48, p.deg), _PANEL_BUDGET)
        edges = [2 * math.pi * k / n for k in range(n + 1)]
    else:
        edges = breaks + [breaks[0] + 2 * math.pi]
        # keep panels from starting absurdly wide
        refined = []
        for a, b in zip(edges[:-1], edges[1:]):
            n = max(1, int(math.ceil((b - a) / (math.pi / 2))))
            refined.extend(a + (b - a) * k / n for k in range(n))
        refined.append(edges[-1])
        edges = refined

    a, b = np.array(edges[:-1]), np.array(edges[1:])
    hi, gap = _panel_integrals(coeffs, a, b)
    while True:
        total, err = math.fsum(hi), math.fsum(gap)
        # relative below unit norm, and never finer than the rounding floor
        norm = abs(total) / (2 * math.pi)
        target = max(_TOL * min(1.0, norm), _ROUNDING_FLOOR * norm)
        if err <= 0.5 * target:
            break
        # split the fewest largest-gap panels whose gaps cover the excess
        order = np.argsort(-gap, kind="stable")
        k = min(int(np.searchsorted(np.cumsum(gap[order]), err - 0.5 * target)) + 1, len(gap))
        if len(gap) + k > _PANEL_BUDGET:
            raise QuadratureBudgetExceeded(
                f"{len(gap) + k} panels needed (budget {_PANEL_BUDGET}) with error estimate "
                f"{err:.3e} > {target:.1e}"
            )
        split, keep = order[:k], order[k:]
        mid = 0.5 * (a[split] + b[split])
        a, b = np.concatenate([a[keep], a[split], mid]), np.concatenate([b[keep], mid, b[split]])
        new_hi, new_gap = _panel_integrals(coeffs, a[-2 * k:], b[-2 * k:])
        hi, gap = np.concatenate([hi[keep], new_hi]), np.concatenate([gap[keep], new_gap])

    value = total / (2 * math.pi)
    bound = err / (2 * math.pi) + _ROUNDING_FLOOR * abs(value)
    return NormResult(value=value, abs_error_bound=bound, panels=len(gap))


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------


def _float_coeffs(p: ComplexPoly, name: str) -> np.ndarray:
    """p's coefficients as complex floats; a coefficient with no float value
    raises :class:`IllConditionedZeros` naming p as ``name``."""
    coeffs = []
    for k, c in enumerate(p.coeffs):
        try:
            coeffs.append(complex(c))
        except OverflowError:
            raise _beyond_float_range(name, k, "has no float value") from None
    return np.array(coeffs, dtype=complex)


def _float_roots(p: ComplexPoly, name: str) -> tuple[np.ndarray, np.ndarray]:
    """p's coefficients as floats and their companion-matrix roots.

    A zero beyond the float range raises :class:`IllConditionedZeros` naming
    p as ``name`` and the coefficient that shows the zero: one with no float
    value, or one whose ratio to the leading coefficient (a companion-matrix
    entry) overflows.  An eigenvalue solve that does not converge raises
    :class:`IllConditionedZeros` naming p too.
    """
    coeffs = _float_coeffs(p, name)
    top = np.trim_zeros(coeffs, "b")
    if top.size >= 2:
        with np.errstate(all="ignore"):
            bad = np.flatnonzero(~np.isfinite(top[:-1] / top[-1]))
        if bad.size:
            raise _beyond_float_range(name, int(bad[0]), "over the leading one overflows")
    try:
        return coeffs, np.roots(coeffs[::-1])
    except np.linalg.LinAlgError as exc:
        raise IllConditionedZeros(f"the zeros of {name} are not found: {exc}") from None


def _beyond_float_range(name: str, k: int, what: str) -> IllConditionedZeros:
    return IllConditionedZeros(
        f"a zero of {name} lies beyond the float range: its coefficient {k} "
        f"(of z^{k}) {what}",
        diagnostics={"coefficient": k},
    )


def _polish_roots(coeffs: np.ndarray, dcoeffs: np.ndarray, roots) -> tuple[np.ndarray, np.ndarray]:
    """Three Newton steps on the whole root array, then each root's backward
    error |p(r)| / sum |c_k| |r|^k.

    Each step reads p and p' off one table of powers r^k (``np.vander``).
    A root whose step is not finite (p'(r) = 0, or an overflow) keeps its
    value.  The backward error is evaluated by ``np.polyval``; a residual
    whose denominator is not finite is NaN, since an overflowed evaluation
    must not read as a small residual.
    """
    r = np.asarray(roots, dtype=complex)
    with np.errstate(all="ignore"):
        for _ in range(3):
            powers = np.vander(r, len(coeffs), increasing=True)
            step = (powers @ coeffs) / (powers[:, : len(dcoeffs)] @ dcoeffs)
            r = np.where(np.isfinite(step), r - step, r)
        # moduli by hypot, which rounds like the scalar abs(); np.abs may not
        p = coeffs[::-1]
        fr = np.polyval(p, r)
        num = np.hypot(fr.real, fr.imag)
        den = np.polyval(np.abs(p), np.hypot(r.real, r.imag))
        res = np.where(np.isfinite(den), num / den, np.nan)
    return r, res


def find_zeros(p: ComplexPoly) -> list[ZeroCluster]:
    """All zeros of p as certified clusters, sorted by argument then modulus.

    Parameters
    ----------
    p : ComplexPoly
        Nonzero polynomial.

    Returns
    -------
    list of ZeroCluster
        The zeros are those of p's exact value: a degree-0 gcd(p, p')
        modulo a prime certifies square-free input (all multiplicities 1),
        and the square-free (Yun) decomposition runs only otherwise.  One
        Newton pass polishes each part's root array.  Raises
        :class:`IllConditionedZeros` when a backward error is not <= 1e-6
        (NaN when it overflowed), or when a zero lies beyond the float range.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    clusters: list[ZeroCluster] = []
    k0 = p.order_at_zero()
    if k0 > 0:
        clusters.append(ZeroCluster(0j, k0))
    for factor, mult in square_free_decomposition(ComplexPoly(p.coeffs[k0:])):
        fc, roots = _float_roots(factor, f"p's monic factor of multiplicity {mult}")
        roots, residuals = _polish_roots(fc, factor.derivative().float_coeffs(), roots)
        for r, res in zip(roots.tolist(), residuals.tolist()):
            if not res <= _BACKWARD_ERROR:
                raise IllConditionedZeros(
                    f"root {r} of a square-free factor has backward error {res:.2e}",
                    diagnostics={"factor_degree": factor.deg, "residual": res},
                )
            clusters.append(ZeroCluster(r, mult))
    clusters.sort(key=lambda c: _sort_key(c.location))
    return clusters


def common_disk_zeros(p: ComplexPoly, pstar: ComplexPoly, m: int, origin: int) -> tuple[ZeroCluster, ...]:
    """The m zeros, counted with multiplicity, that p shares with its
    conjugate reciprocal ``pstar`` inside the open disk, as clusters at p's
    locations sorted by argument then modulus.

    m and ``origin``, the number of them at 0, are exact (read off
    gcd(p, p*)); the float zeros only locate the other m - origin, if any.
    A shared disk zero a lies nearer 0 than every other shared zero, the
    circle zeros and 1/conj(a), so p's nonzero zeros are taken in order of
    increasing modulus, each paired with the first nonzero zero of ``pstar``
    within ``_MATCH_RADIUS`` at the shared multiplicity (the ``min`` of the
    two sides), until the pairs add up to m - origin.  When they do not add
    up to it exactly, raises :class:`IllConditionedZeros` naming both counts.
    """
    shared = [ZeroCluster(0j, origin)] if origin else []
    if m == origin:  # nothing to locate: no root is solved
        return tuple(shared)
    zp, zs = ([c for c in find_zeros(q) if c.location] for q in (p, pstar))
    paired = 0
    for a in sorted(zp, key=lambda c: abs(c.location)):
        if paired >= m - origin:
            break
        b = next((b for b in zs if abs(a.location - b.location) <= _MATCH_RADIUS), None)
        if b is not None:
            mult = min(a.multiplicity, b.multiplicity)
            shared.append(ZeroCluster(a.location, mult))
            paired += mult
    if paired != m - origin:
        raise IllConditionedZeros(
            f"the exact gcd(p, p*) has {m - origin} shared disk zeros off the origin, but the "
            f"float zeros of p and p* pair {paired} of them",
            diagnostics={"shared": m - origin, "paired": paired},
        )
    return tuple(sorted(shared, key=lambda c: _sort_key(c.location)))
