"""The cone of nonnegative trigonometric polynomials and its trace dimensions.

A coefficient vector ``(alpha_0..alpha_d, beta_1..beta_d)`` encodes the real
trigonometric polynomial

    tau(t) = 2 * (alpha_0 + sum_k alpha_k cos kt - beta_k sin kt)
           = sum_{|k|<=d} gamma_k e^{ikt},   gamma_k = alpha_k + i beta_k,

and the vector is called *plus* when tau >= 0 on the whole circle.  The
dimension of a subspace's trace on the plus cone (the span of its plus
vectors) is what ``plus_dimension`` computes.

Membership is decided by a global minimum scan (grid plus Newton polish on
the derivative, both on ``CoefVector.tau(t, order)``, the one evaluator of
tau and its derivatives); for vectors with rational entries the verdict is
instead certified exactly through the Cayley-transform numerator P:
tau >= 0 iff P has positive leading coefficient, an even degree deficit,
and no odd-multiplicity real root.  Those roots are counted from Sturm
chains alone, level by level: the chain of P_j ends in gcd(P_j, P_j') =
P_{j+1}, and with r_j the number of distinct real roots of P_j, the
alternating sum r_1 - r_2 + r_3 - ... is the number of odd-multiplicity
ones.  The divisions run on ``poly_core.long_division``.  A positive
verdict carries a Gram-matrix witness (a PSD matrix Q with
gamma_k = sum_j Q[j+k, j]) when spectral factorization of tau succeeds;
nothing else builds one, so ``gram`` is None where it fails, typically at
circle zeros of order >= 4.

``find_plus_in_slice`` looks for a plus vector inside an affine slice of a
subspace by alternating projections between the PSD cone and the affine
constraint set; ``plus_dimension`` grows a basis of plus vectors greedily
with such probes and then certifies completeness facially: the span of all
plus vectors in V equals the set of vectors whose tau vanishes at each
circle zero of the accumulated interior point to at least its order.
Every subspace basis comes from one SVD rank cut, ``_row_space``.

Both constructions work on the Hermitian matrix Q: ``_project_psd`` clips
the eigenvalues, and ``_affine_projector`` projects by least squares onto
{Q : C L Q = f}, where L maps Q to the coefficient vector of tau_Q.  The
Gram witness is the spectral factor's rank-one Gram matrix projected once
with C = I and f the coefficients of tau; the slice search alternates both
steps with C = [complement of the subspace; w] and f = (0, ..., 0, target).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np

from .errors import FacialMismatch, SolverStalled
from .poly_core import is_exact_scalar, long_division

# the slice search's alternating projections: convergence test, plateau
# detection, stall cap and re-certification band
_TOL_FEASIBLE = 1e-9
_ITERATION_CAP = 20000
_PLATEAU_WINDOW = 500
_PLATEAU_LEVEL = 1e-7
_RECERT_TOL = 1e-7


@dataclasses.dataclass(frozen=True)
class CoefVector:
    """Real coefficient vector of a trigonometric polynomial of degree <= d."""

    d: int
    alpha: tuple  # length d+1
    beta: tuple  # length d

    def __post_init__(self):
        if len(self.alpha) != self.d + 1 or len(self.beta) != self.d:
            raise ValueError("alpha needs d+1 entries and beta needs d entries")

    @property
    def is_exact(self) -> bool:
        return all(is_exact_scalar(x) for x in (*self.alpha, *self.beta))

    @staticmethod
    def from_array(x, d: int | None = None) -> "CoefVector":
        xs = list(x)
        if d is None:
            if len(xs) % 2 == 0:
                raise ValueError("coefficient array must have odd length 2d+1")
            d = (len(xs) - 1) // 2
        if len(xs) != 2 * d + 1:
            raise ValueError(f"expected {2 * d + 1} entries, got {len(xs)}")
        alpha = tuple(xs[: d + 1])
        beta = tuple(xs[d + 1 :])
        return CoefVector(d, alpha, beta)

    def as_array(self) -> np.ndarray:
        return np.array(
            [float(a) for a in self.alpha] + [float(b) for b in self.beta], dtype=float
        )

    def gamma(self) -> np.ndarray:
        """Analytic-side Fourier coefficients gamma_0..gamma_d (gamma_0 = 2 alpha_0)."""
        g = np.zeros(self.d + 1, dtype=complex)
        g[0] = 2.0 * float(self.alpha[0])
        for k in range(1, self.d + 1):
            g[k] = float(self.alpha[k]) + 1j * float(self.beta[k - 1])
        return g

    def tau(self, t, order: int = 0) -> np.ndarray:
        """tau, or its derivative of the given order, at t (scalar or array).

        One sum over the harmonics: the m-th derivative is
        2 Re sum_k (ik)^m gamma_k e^{ikt}, plus gamma_0 when m = 0.
        """
        g = self.gamma()
        k = np.arange(1, self.d + 1)
        waves = np.exp(1j * np.multiply.outer(np.asarray(t, dtype=float), k))
        out = 2.0 * (waves @ ((1j * k) ** order * g[1:])).real
        return out + g[0].real if order == 0 else out

    def scale(self) -> float:
        return float(np.max(np.abs(self.gamma()))) if self.d >= 0 else 0.0

    def __str__(self):
        return f"CoefVector(d={self.d}, alpha={self.alpha}, beta={self.beta})"


def proportional(u, v, tol: float = 1e-9) -> bool:
    """True when u and v span the same line (or one of them is ~zero).

    Accepts CoefVectors or plain coefficient arrays.
    """
    a = u.as_array() if isinstance(u, CoefVector) else np.asarray(u, dtype=float)
    b = v.as_array() if isinstance(v, CoefVector) else np.asarray(v, dtype=float)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na <= tol or nb <= tol:
        return True
    bhat = b / nb
    resid = a - np.dot(a, bhat) * bhat
    return bool(np.linalg.norm(resid) <= tol * na)


def fejer_vector(d: int, shift: float = 0.0) -> CoefVector:
    """Coefficients of the (shifted) Fejer kernel: nonnegative by construction."""
    alpha = [Fraction(1, 2)] if shift == 0.0 else [0.5]
    beta = []
    for k in range(1, d + 1):
        if shift == 0.0:
            alpha.append(Fraction(d + 1 - k, d + 1))
            beta.append(Fraction(0))
        else:
            gk = (1.0 - k / (d + 1.0)) * np.exp(-1j * k * shift)
            alpha.append(float(gk.real))
            beta.append(float(gk.imag))
    return CoefVector(d, tuple(alpha), tuple(beta))


# ---------------------------------------------------------------------------
# global minimum on the circle
# ---------------------------------------------------------------------------


def min_on_circle(v: CoefVector) -> tuple[float, float]:
    """Location and value of the global minimum of tau over the circle.

    Dense grid of 8d+64 points, then Newton polish on tau' around every local
    grid minimum (guarded by bisection when curvature misbehaves).
    """
    g = v.gamma()
    if v.d == 0 or np.max(np.abs(g[1:])) == 0:
        return 0.0, float(g[0].real)
    ts = np.array(_grid_minima(v, 8 * v.d + 64))
    vals = v.tau(ts)
    i = int(np.argmin(vals))
    return float(ts[i] % (2 * math.pi)), float(vals[i])


def _grid_minima(v: CoefVector, n: int, ceiling: float = math.inf) -> list[float]:
    """Polished local minima of tau seeded from an n-point grid, in grid order.

    A grid point seeds a polish when its value is at most both neighbours'
    and at most ``ceiling``.
    """
    t = 2 * math.pi * np.arange(n) / n
    vals = v.tau(t)
    local = (vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1)) & (vals <= ceiling)
    return [_polish_minimum(v, t[i], 2 * math.pi / n) for i in np.flatnonzero(local)]


def _polish_minimum(v: CoefVector, t0: float, h: float) -> float:
    t = t0
    for _ in range(40):
        d1, d2 = float(v.tau(t, 1)), float(v.tau(t, 2))
        if d2 <= 0:
            break
        step = d1 / d2
        if not math.isfinite(step) or abs(step) > h:
            break
        t -= step
        if abs(step) < 1e-15:
            return t
    # fall back to sign bisection of tau' on the bracket
    a, b = t0 - h, t0 + h
    if v.tau(a, 1) < 0 < v.tau(b, 1):
        for _ in range(60):
            m = 0.5 * (a + b)
            if v.tau(m, 1) < 0:
                a = m
            else:
                b = m
        return 0.5 * (a + b)
    return t


# ---------------------------------------------------------------------------
# exact nonnegativity certificate for rational vectors
# ---------------------------------------------------------------------------


def _cayley_numerator(v: CoefVector) -> list[Fraction]:
    """P with tau(2 arctan x) = P(x) / (1+x^2)^d, exact in the rationals.

    With e^{ikt} = (1+ix)^(2k) / (1+x^2)^k, P = sum_k T_k (1+x^2)^(d-k) where
    T_k = 2 Re(gamma_k (1+ix)^(2k)) (T_0 = gamma_0); the sum is taken by
    Horner in (1+x^2).  The x^j coefficient of T_k is C(2k, j) Re(c_k i^j)
    with c_k = 2 alpha_k + 2i beta_k.
    """
    P: list[Fraction] = []
    for k in range(v.d + 1):
        a = 2 * Fraction(v.alpha[k])
        b = 2 * Fraction(v.beta[k - 1]) if k else Fraction(0)
        re_ci = (a, -b, -a, b)  # Re(c_k i^j) for j mod 4
        P = [
            (P[j] if j < len(P) else 0)
            + (P[j - 2] if j >= 2 else 0)
            + math.comb(2 * k, j) * re_ci[j % 4]
            for j in range(2 * k + 1)
        ]
    while P and not P[-1]:
        P.pop()
    return P


def _sturm_level(p: list[Fraction]) -> tuple[int, list[Fraction]]:
    """Distinct real roots of p (Sturm's theorem) and gcd(p, p'), the chain's end.

    The chain p, p', -rem(p, p'), ... counts distinct real roots whether or
    not p is square-free: dividing every member by the gcd changes no sign
    pattern away from the roots of p.
    """
    chain = [p, [c * k for k, c in enumerate(p) if k]]
    while chain[-1]:
        chain.append([-c for c in long_division(chain[-2], chain[-1])[1]])
    chain.pop()
    at_pos_inf = [1 if q[-1] > 0 else -1 for q in chain]
    at_neg_inf = [s * (-1) ** (len(q) - 1) for s, q in zip(at_pos_inf, chain)]

    def changes(signs: list[int]) -> int:
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    g = chain[-1]
    return changes(at_neg_inf) - changes(at_pos_inf), [c / g[-1] for c in g]


def certify_nonneg_exact(v: CoefVector) -> tuple[bool, bool]:
    """Exact (nonnegative?, touches zero?) for a rational coefficient vector.

    tau >= 0 on the circle iff its Cayley numerator P has a positive leading
    coefficient, an even degree deficit 2d - deg P, and no real root of odd
    multiplicity; tau touches zero iff P has any real root or a positive
    degree deficit.  With P_1 = P and P_{j+1} = gcd(P_j, P_j'), a real root
    of multiplicity m is a root of P_1..P_m, so if r_j counts the distinct
    real roots of P_j, r_1 - r_2 + r_3 - ... counts the odd-multiplicity ones.
    """
    if not v.is_exact:
        raise ValueError("exact certification needs rational entries")
    P = _cayley_numerator(v)
    if not P:
        return True, True  # tau is identically zero
    if P[-1] < 0:
        return False, False
    deficit = 2 * v.d - (len(P) - 1)
    if deficit % 2 == 1:
        return False, False
    touches = deficit > 0
    odd, sign = 0, 1
    while len(P) > 1:
        roots, P = _sturm_level(P)
        odd += sign * roots
        sign = -sign
        touches = touches or roots > 0
    if odd:
        return False, False
    return True, touches


# ---------------------------------------------------------------------------
# Hermitian Gram matrices: the PSD step and the affine step
# ---------------------------------------------------------------------------


def _project_psd(Q: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in the Frobenius norm: clip the eigenvalues at zero."""
    w, V = np.linalg.eigh(Q)
    return (V * np.clip(w, 0.0, None)) @ V.conj().T


@functools.cache
def _trace_map(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The map L from an n x n complex Q to the coefficient vector of tau_Q,
    and its pseudo-inverse.

    L acts on the 2n^2 floats ``Q.view(float).ravel()`` and reads the upper
    and lower triangles with weight 1/2 each, so it vanishes on skew-Hermitian
    matrices and its adjoint writes Hermitian matrices.  On Hermitian Q the
    Euclidean norm of those floats is the Frobenius norm.
    """
    i, j = np.indices((n, n))
    k = np.abs(i - j)
    off = k > 0
    L = np.zeros((2 * n - 1, n, n, 2))
    L[k, i, j, 0] = 0.5  # alpha_k: real parts of diagonal k
    L[(n - 1 + k)[off], i[off], j[off], 1] = 0.5 * np.sign(i - j)[off]  # beta_k
    L = L.reshape(2 * n - 1, 2 * n * n)
    L_pinv = np.linalg.pinv(L)
    L.flags.writeable = L_pinv.flags.writeable = False
    return L, L_pinv


def _affine_projector(n: int, f: np.ndarray, C: np.ndarray | None = None):
    """Orthogonal projection of n x n Hermitian Q onto {Q : C L Q = f}.

    C defaults to the identity, whose pseudo-inverse is cached with L: the
    projection then spreads each coefficient's deficit evenly along its
    diagonal.  Any other C costs one pseudo-inverse, so build the projector
    once per solve.
    """
    M, M_pinv = _trace_map(n)
    if C is not None:
        M = C @ M
        M_pinv = np.linalg.pinv(M, rcond=1e-12)

    def project(Q: np.ndarray) -> np.ndarray:
        q = Q.view(float).ravel()
        return (q - M_pinv @ (M @ q - f)).view(complex).reshape(n, n)

    return project


# ---------------------------------------------------------------------------
# Gram certificates
# ---------------------------------------------------------------------------


def gram_diag_sums(Q: np.ndarray) -> np.ndarray:
    n = Q.shape[0]
    return np.array([np.trace(Q, offset=-k) for k in range(n)], dtype=complex)


def _fejer_riesz_gram(v: CoefVector) -> np.ndarray | None:
    """Rank-one Gram matrix via spectral factorization of tau, or None."""
    gamma = v.gamma()
    n = v.d + 1
    scale = float(np.max(np.abs(gamma)))
    deff = v.d
    while deff > 0 and abs(gamma[deff]) <= 1e-13 * scale:
        deff -= 1
    # z^deff * tau(z) has the conjugate-reflected coefficient list
    laurent = np.concatenate([np.conj(gamma[1 : deff + 1][::-1]), gamma[: deff + 1]])
    roots = np.roots(laurent[::-1])
    repair = _affine_projector(n, v.as_array())
    for band in (1e-7, 1e-5, 1e-3):
        sel = _select_half_roots(roots, band)
        if sel is None:
            continue
        q = np.array([1.0 + 0j])
        for r in sel:
            q = np.convolve(q, np.array([-r, 1.0]))
        # scale so the autocorrelation matches gamma
        auto = np.array(
            [np.dot(q[k:], np.conj(q[: len(q) - k])) for k in range(len(q))]
        )
        k_star = int(np.argmax(np.abs(auto)))
        if abs(auto[k_star]) == 0:
            continue
        sigma = (gamma[k_star] / auto[k_star]).real
        if sigma <= 0:
            continue
        q = math.sqrt(sigma) * np.pad(q, (0, n - len(q)))
        Q = repair(np.outer(q, q.conj()))
        if _gram_ok(Q, gamma):
            return Q
    return None


def _select_half_roots(roots: np.ndarray, band: float) -> list[complex] | None:
    inside = [complex(r) for r in roots if abs(r) < 1.0 - band]
    on_circle = [complex(r) for r in roots if abs(abs(r) - 1.0) <= band]
    outside = [complex(r) for r in roots if abs(r) > 1.0 + band]
    if len(inside) != len(outside):
        return None
    chosen = list(inside)
    used = [False] * len(on_circle)
    for i, r in enumerate(on_circle):
        if used[i]:
            continue
        group = [i]
        used[i] = True
        for j in range(i + 1, len(on_circle)):
            if not used[j] and abs(on_circle[j] - r) <= max(10 * band, 1e-6):
                group.append(j)
                used[j] = True
        if len(group) % 2 == 1:
            return None
        centroid = np.mean([on_circle[j] for j in group])
        centroid = centroid / abs(centroid)
        chosen.extend([complex(centroid)] * (len(group) // 2))
    return chosen


def _gram_ok(Q: np.ndarray, gamma: np.ndarray, tol: float = 1e-8) -> bool:
    resid = float(np.max(np.abs(gram_diag_sums(Q)[: len(gamma)] - gamma)))
    if resid > tol:
        return False
    eigs = np.linalg.eigvalsh(Q)
    return bool(eigs[0] >= -tol)


@dataclasses.dataclass(frozen=True)
class PlusCertificate:
    is_plus: bool
    boundary: bool
    min_location: float
    min_value: float
    gram: np.ndarray | None
    gram_residual: float | None
    negative_point: float | None
    exact: bool


def _plus_verdict(v: CoefVector, tol: float = 1e-9) -> tuple[bool, bool, float, float]:
    """(plus?, boundary?, argmin, min) of tau, without a Gram certificate.

    Rational vectors are decided exactly.  Float vectors are decided by the
    global minimum: min tau >= tol is plus, min tau <= -tol is not, and the
    band in between is reported as plus with the boundary flag set.
    """
    t_min, val = min_on_circle(v)
    if v.is_exact:
        verdict, boundary = certify_nonneg_exact(v)
    else:
        verdict = val > -tol
        boundary = abs(val) < tol or (verdict and val <= tol)
    return verdict, boundary, t_min, val


def is_plus(v: CoefVector, tol: float = 1e-9) -> PlusCertificate:
    """Decide membership in the plus cone, with a constructive witness.

    The verdict is ``_plus_verdict``'s; a plus vector also gets a Gram matrix.
    """
    verdict, boundary, t_min, val = _plus_verdict(v, tol)
    if not verdict:
        return PlusCertificate(
            False, False, t_min, val, None, None, t_min, v.is_exact
        )
    lifted = v
    if val <= tol:
        # touching (or dipping within the band): lift tau off the floor a hair
        # so spectral factorization sees a genuinely nonnegative function
        shift = max(0.0, -val) + 1e-13 * max(v.scale(), 1.0)
        x = v.as_array()
        x[0] += shift / 2
        lifted = CoefVector.from_array(x)
    Q = _fejer_riesz_gram(lifted)
    resid = None if Q is None else float(np.max(np.abs(gram_diag_sums(Q) - v.gamma())))
    return PlusCertificate(True, boundary, t_min, val, Q, resid, None, v.is_exact)


# ---------------------------------------------------------------------------
# affine slices of the PSD-representable cone
# ---------------------------------------------------------------------------


def _row_space(
    rows: np.ndarray, tol: float = 1e-10, floor: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the row space of ``rows`` and of its complement.

    One full SVD; singular values at most ``tol * max(s_max, floor)`` are
    cut.  ``floor`` sets an absolute singular-value scale: pass 1.0 when the
    rows are residuals of unit vectors, so that pure cancellation noise is
    not mistaken for a direction.
    """
    _, s, vh = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.count_nonzero(s > tol * max(s[0] if s.size else 0.0, floor)))
    return vh[:rank], vh[rank:]


def find_plus_in_slice(
    basis: np.ndarray,
    slice_constraint: tuple[np.ndarray, float],
) -> CoefVector | None:
    """Plus vector v in span(basis) with <v, w> = target, or None.

    Alternating projections between the PSD cone and the affine set of Gram
    matrices whose coefficient vector lies in the slice.  ``None`` means the
    residual plateaued above ``_PLATEAU_LEVEL`` for ``_PLATEAU_WINDOW``
    iterations (certified-infeasible in the sense of this solver); a run that
    neither converges nor plateaus within ``_ITERATION_CAP`` iterations raises
    :class:`SolverStalled`.
    """
    w, target = slice_constraint
    w = np.asarray(w, dtype=float)
    nx = len(w)
    d = (nx - 1) // 2
    VB, comp = _row_space(np.asarray(basis, dtype=float).reshape(-1, nx))
    w_in = VB.T @ (VB @ w)
    if np.linalg.norm(w_in) <= 1e-12 * max(1.0, np.linalg.norm(w)):
        return None
    f = np.zeros(comp.shape[0] + 1)
    f[-1] = target
    project_affine = _affine_projector(d + 1, f, np.vstack([comp, w]))
    Q = project_affine(np.eye(d + 1, dtype=complex))
    history: list[float] = []
    recerts = 0
    for _ in range(_ITERATION_CAP):
        Qp = _project_psd(Q)
        Qa = project_affine(Qp)
        dist = float(np.linalg.norm(Qa - Qp))
        history.append(dist)
        if dist <= _TOL_FEASIBLE * (1.0 + float(np.linalg.norm(Qa))):
            cand = CoefVector.from_array(_trace_map(d + 1)[0] @ Qa.view(float).ravel(), d=d)
            if _plus_verdict(cand, _RECERT_TOL)[0]:
                return cand
            recerts += 1
            if recerts > 50:
                raise SolverStalled(
                    "converged iterates keep failing plus re-certification"
                )
        if len(history) > _PLATEAU_WINDOW:
            old = history[-_PLATEAU_WINDOW - 1]
            if dist > _PLATEAU_LEVEL and old - dist <= 0.01 * old:
                return None
        Q = Qa
    raise SolverStalled(
        f"no convergence or plateau within {_ITERATION_CAP} iterations "
        f"(last residual {history[-1]:.3e})"
    )


# ---------------------------------------------------------------------------
# trace dimension on the cone
# ---------------------------------------------------------------------------


def plus_dimension(
    basis,
    seed: CoefVector | None = None,
) -> tuple[int, list[CoefVector]]:
    """Dimension of span(plus vectors in span(basis)), with realizing vectors.

    Phase 1 grows the span greedily: for each direction w of an orthonormal
    complement basis (in index order, + target before -), probe the slice
    {v in V : <v, w> = +-1} for a plus vector; every hit enlarges the span
    and the complement is rebuilt.  When V is the full coefficient space the
    shifted Fejer kernels realize the answer directly and no probing is
    needed.

    Phase 2 certifies completeness: with x the sum of the (normalized) found
    vectors, every plus vector of V must vanish at each circle zero of tau_x
    to at least its (even) order, so the span of the found vectors must equal
    the subspace W of V cut out by those vanishing conditions.  Disagreement
    raises :class:`FacialMismatch`; nothing is silently repaired.
    """
    rows = np.array([b.as_array() if isinstance(b, CoefVector) else b for b in basis], dtype=float)
    nx = rows.shape[1]
    d = (nx - 1) // 2
    VB, _ = _row_space(rows)
    r = VB.shape[0]
    if r == 0:
        return 0, []
    if r == nx:
        vecs = [fejer_vector(d, shift=2 * math.pi * j / (2 * d + 1)) for j in range(nx)]
        return nx, vecs

    found: list[CoefVector] = []
    if seed is not None:
        arr = seed.as_array()
        resid = arr - VB.T @ (VB @ arr)
        if np.linalg.norm(resid) > 1e-8 * max(1.0, np.linalg.norm(arr)):
            raise ValueError("seed does not lie in the given subspace")
        if not _plus_verdict(seed)[0]:
            raise ValueError("seed is not a plus vector")
        found.append(seed)

    while True:
        S, _ = _row_space(np.array([v.as_array() for v in found]).reshape(-1, nx))
        comp, _ = _row_space(VB - (VB @ S.T) @ S, floor=1.0)
        if comp.shape[0] == 0:
            break
        probes = (find_plus_in_slice(VB, (w, target)) for w in comp for target in (1.0, -1.0))
        hit = next((cand for cand in probes if cand is not None), None)
        if hit is None:
            break
        found.append(hit)

    if not found:
        return 0, []

    W = _facial_span(found, VB)
    dim_w = W.shape[0]
    if dim_w != len(found):
        raise FacialMismatch(
            f"greedy search found {len(found)} plus vectors but the facial "
            f"certificate spans dimension {dim_w}",
            diagnostics={"found": len(found), "facial_dim": dim_w},
        )
    for v in found:
        arr = v.as_array()
        resid = arr - W.T @ (W @ arr)
        if np.linalg.norm(resid) > 1e-6 * max(1.0, np.linalg.norm(arr)):
            raise FacialMismatch(
                "a found plus vector falls outside the facial certificate span",
                diagnostics={"residual": float(np.linalg.norm(resid))},
            )
    return dim_w, found


def _facial_span(found: list[CoefVector], VB: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {y in V : tau_y vanishes at the zeros of tau_x}."""
    nx = VB.shape[1]
    d = (nx - 1) // 2
    xs = sum(v.as_array() / np.linalg.norm(v.as_array()) for v in found)
    x_hat = CoefVector.from_array(xs, d=d)
    zeros = _circle_zeros_of_tau(x_hat)
    if not zeros:
        return VB
    basis_vecs = [CoefVector.from_array(row, d=d) for row in VB]
    rows = [
        [float(b.tau(t0, k)) for b in basis_vecs] for t0, order in zeros for k in range(order)
    ]
    _, null_coords = _row_space(np.array(rows, dtype=float), tol=1e-8, floor=1.0)
    return _row_space(null_coords @ VB)[0]


def _circle_zeros_of_tau(v: CoefVector) -> list[tuple[float, int]]:
    """Zeros of a nonnegative tau with their (even) vanishing orders."""
    g = v.gamma()
    scale = float(np.sum(np.abs(g)))
    raw = _grid_minima(v, max(64 * v.d + 256, 512), ceiling=1e-8 * max(scale, 1e-30))
    zeros: list[float] = []
    for t0 in sorted(x % (2 * math.pi) for x in raw):
        # a new zero must be apart from its predecessor and, around the
        # circle, from the first one
        gaps = [abs(t0 - z) for z in zeros[-1:] + zeros[:1]]
        if all(min(g, 2 * math.pi - g) >= 1e-6 for g in gaps):
            zeros.append(t0)
    out = []
    for t0 in zeros:
        order = None
        for k in range(1, 2 * v.d + 1):
            bound = 2.0 * float(np.sum(np.abs(g[1:]) * (np.arange(1, v.d + 1) ** k)))
            if abs(float(v.tau(t0, k))) > 1e-6 * max(bound, 1e-30):
                order = k
                break
        if order is None or order % 2 == 1:
            raise FacialMismatch(
                "could not determine an even vanishing order at a circle zero",
                diagnostics={"t0": t0, "order": order},
            )
        out.append((t0, order))
    return out
