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
instead certified exactly through the Cayley-transform numerator P, taken
with integer coefficients: tau >= 0 iff P has positive leading
coefficient, an even degree deficit, and no odd-multiplicity real root.
Those roots are counted from Sturm chains alone, level by level: the chain
of P_j ends in gcd(P_j, P_j') = P_{j+1}, and with r_j the number of
distinct real roots of P_j, the alternating sum r_1 - r_2 + r_3 - ... is
the number of odd-multiplicity ones.  Each level is one call of
``poly_core.real_root_count``, a primitive integer remainder sequence with
no Fraction arithmetic.  ``is_plus`` is the one verdict: exact for
rational vectors, the global minimum otherwise.

``find_plus_in_slice`` looks for a plus vector inside an affine slice of a
subspace by alternating projections between the PSD cone and the affine
constraint set.  It reports a slice empty when the affine step's
displacement, read as a Farkas certificate, puts the mean of tau of every
plus vector of the slice beyond the solver's tolerance, or else when the
residual plateaus (weakly infeasible slices have no such certificate).
``plus_dimension`` grows a basis of plus vectors greedily with such probes
and then certifies completeness facially: the span of all plus vectors
in V equals the set of vectors whose tau vanishes at each circle zero of
the accumulated interior point to at least its order.
Those zeros are grouped by ``cluster_roots`` (single linkage): the grid
minima of tau near one zero count as one zero.
Before it searches, ``plus_dimension`` compresses V by its harmonic
lattice: when every exactly nonzero entry sits at a harmonic in kZ, V is
a space of functions of kt, and t -> t/k maps it onto degree d // k
without changing which vectors are plus.
Every subspace basis comes from one SVD rank cut, ``_row_space``.

Only the slice search builds Hermitian matrices Q: ``_project_psd`` clips
the eigenvalues, and ``_affine_projector`` projects by least squares onto
{Q : C L Q = f}, where L maps Q to the coefficient vector of tau_Q, with
C = [complement of the subspace; w] and f = (0, ..., 0, target).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np

from .errors import FacialMismatch, SolverStalled
from .poly_core import is_exact_scalar, real_root_count

# the slice search's alternating projections: convergence test (and the
# Farkas bound's threshold), plateau detection, stall cap and
# re-certification band
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
    def entries(self) -> tuple:
        """(alpha_0..alpha_d, beta_1..beta_d), the order of ``as_array``."""
        return (*self.alpha, *self.beta)

    @property
    def is_exact(self) -> bool:
        return all(is_exact_scalar(x) for x in self.entries)

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
        return np.array([float(x) for x in self.entries], dtype=float)

    def __add__(self, other: "CoefVector") -> "CoefVector":
        return CoefVector.from_array([x + y for x, y in zip(self.entries, other.entries, strict=True)])

    def __sub__(self, other: "CoefVector") -> "CoefVector":
        return CoefVector.from_array([x - y for x, y in zip(self.entries, other.entries, strict=True)])

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
# the plus verdict: exact certificate for rational vectors
# ---------------------------------------------------------------------------


def _cayley_numerator(v: CoefVector) -> list[int]:
    """A positive multiple of P with tau(2 arctan x) = P(x) / (1+x^2)^d, as
    primitive integer coefficients ([] when tau is zero).

    With e^{ikt} = (1+ix)^(2k) / (1+x^2)^k, P = sum_k T_k (1+x^2)^(d-k) where
    T_k = 2 Re(gamma_k (1+ix)^(2k)) (T_0 = gamma_0); the sum is taken by
    Horner in (1+x^2).  The x^j coefficient of T_k is C(2k, j) Re(c_k i^j)
    with c_k = 2 alpha_k + 2i beta_k.  The entries are put over one common
    denominator first, so the sum runs on ints; the factor 2 and the
    denominator are positive and are dropped with the content.
    """
    entries = [Fraction(x) for x in v.entries]
    den = math.lcm(*(x.denominator for x in entries))
    ints = [x.numerator * (den // x.denominator) for x in entries]
    P: list[int] = []
    for k in range(v.d + 1):
        a = ints[k]
        b = ints[v.d + k] if k else 0
        re_ci = (a, -b, -a, b)  # Re(c_k i^j) / 2 for j mod 4
        P = [
            (P[j] if j < len(P) else 0)
            + (P[j - 2] if j >= 2 else 0)
            + math.comb(2 * k, j) * re_ci[j % 4]
            for j in range(2 * k + 1)
        ]
    while P and not P[-1]:
        P.pop()
    content = math.gcd(*P)
    return [c // content for c in P]


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
        roots, P = real_root_count(P)
        odd += sign * roots
        sign = -sign
        touches = touches or roots > 0
    if odd:
        return False, False
    return True, touches


def is_plus(v: CoefVector, tol: float = 1e-9) -> bool:
    """True when tau_v >= 0 on the circle.

    Rational vectors are decided exactly by ``certify_nonneg_exact``, with no
    float search.  Float vectors are decided by the global minimum: plus
    when min tau > -tol.
    """
    if v.is_exact:
        return certify_nonneg_exact(v)[0]
    return min_on_circle(v)[1] > -tol


# ---------------------------------------------------------------------------
# Hermitian matrices: the PSD step and the affine step
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


def _affine_projector(n: int, f: np.ndarray, C: np.ndarray):
    """Orthogonal projection of n x n Hermitian Q onto {Q : C L Q = f}.

    Building it costs one pseudo-inverse, so build it once per solve.
    """
    M = C @ _trace_map(n)[0]
    M_pinv = np.linalg.pinv(M, rcond=1e-12)

    def project(Q: np.ndarray) -> np.ndarray:
        q = Q.view(float).ravel()
        return (q - M_pinv @ (M @ q - f)).view(complex).reshape(n, n)

    return project


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


def _slice_mean_bound(Y: np.ndarray, C: np.ndarray, f: np.ndarray) -> float:
    """Lower bound on mean(tau_v) over the plus vectors v of {v : C v = f}.

    Y is an affine step's displacement Q - project_affine(Q), which lies in
    the range of (C L)^T; so Y = L^T z with z = C^T y, and y is read back by
    least squares.  Any y gives a Farkas-type bound.  Let v be a plus vector
    of the slice, so v = L X for some X >= 0 (Fejer-Riesz); then
    mu = tr X = 2 alpha_0 is the mean of tau_v, and every entry of v is at
    most mu in size.  With g = <y, f> = y_last * target,

        g = <y, C L X> = <L^T z, X> >= lambda_min(L^T z) * mu,

    so for g < 0 every plus vector of the slice has mu >= -g / s with
    s = max(-lambda_min, 0), and there is none at all when s = 0.

    Rounding allowance, with u the unit roundoff, m the rows of C and n the
    size of Q: z' = fl(C^T y) differs from z by at most e = 2 m u |C|^T |y|
    entrywise, which moves <z, v> by at most ||e||_1 mu; T = L^T z' is
    exact (every entry is 0 or +-z'_k / 2); a backward-stable eigensolver
    returns lambda_min(T) within p(n) u ||T||_2, taken generously as
    n^2 u ||T||_F; and fl(y_last * target) is within a factor 1 +- u of g.
    So s is taken as max(-lambda, 0) + n^2 u ||T||_F + ||e||_1, and the
    bound as -fl(g) (1 - u) / s (infinite for s = 0).  It is 0 when g >= 0.
    """
    u = np.finfo(float).eps / 2
    n = Y.shape[0]
    L, L_pinv = _trace_map(n)
    y = np.linalg.lstsq(C.T, L_pinv.T @ Y.view(float).ravel(), rcond=None)[0]
    g = float(y[-1] * f[-1])
    if g >= 0.0:
        return 0.0
    T = (L.T @ (C.T @ y)).view(complex).reshape(n, n)
    lam = float(np.linalg.eigvalsh(T)[0])
    e = 2 * C.shape[0] * u * (np.abs(C).T @ np.abs(y))
    s = max(-lam, 0.0) + n * n * u * float(np.linalg.norm(T)) + float(np.sum(e))
    return math.inf if s == 0.0 else -g * (1 - u) / s


def find_plus_in_slice(
    basis: np.ndarray,
    slice_constraint: tuple[np.ndarray, float],
) -> CoefVector | None:
    """Plus vector v in span(basis) with <v, w> = target, or None.

    Alternating projections between the PSD cone and the affine set of
    Hermitian matrices whose coefficient vector lies in the slice.  ``None``
    means one of two things.  Either the Farkas bound of
    ``_slice_mean_bound``, read from the affine step at iterations 0, 1, 2,
    4, 8, ..., shows that every plus vector of the slice has
    mean(tau) > |target| / (|w| _TOL_FEASIBLE), so its w-component is below
    the feasibility tolerance of its size (for a unit w and target +-1 the
    bound exceeds 1 / _TOL_FEASIBLE); or the residual plateaued above ``_PLATEAU_LEVEL`` for ``_PLATEAU_WINDOW``
    iterations, which is the verdict for weakly infeasible slices that have
    no strict certificate.  A run that neither converges nor plateaus within
    ``_ITERATION_CAP`` iterations raises :class:`SolverStalled`.
    """
    w, target = slice_constraint
    w = np.asarray(w, dtype=float)
    nx = len(w)
    d = (nx - 1) // 2
    VB, comp = _row_space(np.asarray(basis, dtype=float).reshape(-1, nx))
    w_in = VB.T @ (VB @ w)
    if np.linalg.norm(w_in) <= 1e-12 * max(1.0, np.linalg.norm(w)):
        return None
    C = np.vstack([comp, w])
    f = np.zeros(C.shape[0])
    f[-1] = target
    mean_cap = abs(target) / (float(np.linalg.norm(w)) * _TOL_FEASIBLE)
    project_affine = _affine_projector(d + 1, f, C)
    Q = project_affine(np.eye(d + 1, dtype=complex))
    history: list[float] = []
    recerts = 0
    for i in range(_ITERATION_CAP):
        Qp = _project_psd(Q)
        Qa = project_affine(Qp)
        dist = float(np.linalg.norm(Qa - Qp))
        history.append(dist)
        if dist <= _TOL_FEASIBLE * (1.0 + float(np.linalg.norm(Qa))):
            cand = CoefVector.from_array(_trace_map(d + 1)[0] @ Qa.view(float).ravel(), d=d)
            if is_plus(cand, _RECERT_TOL):
                return cand
            recerts += 1
            if recerts > 50:
                raise SolverStalled(
                    "converged iterates keep failing plus re-certification"
                )
        elif i & (i - 1) == 0 and _slice_mean_bound(Qp - Qa, C, f) > mean_cap:
            return None
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

    First the input is compressed by its harmonic lattice: k is the gcd of
    the harmonics l >= 1 at which a basis row or the seed has an exactly
    nonzero entry.  For k > 1 every vector of V is a function of kt, so the
    search runs on the columns (alpha_0, alpha_k, ..., beta_k, beta_2k, ...)
    at degree d // k, and each found vector is spread back to degree d with
    tau_spread(t) = tau(kt).  As tau(kt) >= 0 iff tau >= 0 and spreading is a
    linear bijection onto V, the dimension and the facial certificate carry
    over unchanged; the seed comes back as the caller's own object.

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
    entries = [b.entries if isinstance(b, CoefVector) else b for b in basis]
    # a 2-D array keeps its column count, also with no rows
    rows = np.array(basis if isinstance(basis, np.ndarray) else entries, dtype=float)
    d = (rows.shape[1] - 1) // 2
    if seed is not None:
        entries.append(seed.entries)
    k = math.gcd(*{i if i <= d else i - d for row in entries for i, x in enumerate(row) if x != 0})
    if k <= 1:
        return _search_plus_span(rows, seed)
    cols = [*range(0, d + 1, k), *range(d + k, 2 * d + 1, k)]
    small = None if seed is None else CoefVector(d // k, seed.alpha[::k], seed.beta[k - 1 :: k])
    dim, found = _search_plus_span(rows[:, cols], small)
    return dim, [seed if v is small else _spread(v, k, d) for v in found]


def _spread(v: CoefVector, k: int, d: int) -> CoefVector:
    """The degree-d vector whose tau is t -> tau_v(kt)."""
    zero = Fraction(0) if v.is_exact else 0.0
    alpha, beta = [zero] * (d + 1), [zero] * d
    alpha[::k] = v.alpha
    beta[k - 1 :: k] = v.beta
    return CoefVector(d, tuple(alpha), tuple(beta))


def _search_plus_span(
    rows: np.ndarray, seed: CoefVector | None
) -> tuple[int, list[CoefVector]]:
    """``plus_dimension`` on float basis rows, without the lattice step."""
    nx = rows.shape[1]
    d = (nx - 1) // 2
    VB, _ = _row_space(rows)
    found: list[CoefVector] = []
    if seed is not None:
        arr = seed.as_array()
        resid = arr - VB.T @ (VB @ arr)
        if np.linalg.norm(resid) > 1e-8 * max(1.0, np.linalg.norm(arr)):
            raise ValueError("seed does not lie in the given subspace")
        if not is_plus(seed):
            raise ValueError("seed is not a plus vector")
        found.append(seed)

    r = VB.shape[0]
    if r == 0:
        return 0, []
    if r == nx:
        vecs = [fejer_vector(d, shift=2 * math.pi * j / (2 * d + 1)) for j in range(nx)]
        return nx, vecs

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


def cluster_roots(roots, radius: float) -> list[complex]:
    """Centroids of the greedy single-linkage clusters of complex points: a
    point within ``radius`` of a member joins its cluster, so the grid
    minima around one zero of tau count as one zero."""
    remaining = list(roots)
    clusters = []
    while remaining:
        seed = remaining.pop()
        members = [seed]
        changed = True
        while changed:
            changed = False
            keep = []
            for r in remaining:
                if any(abs(r - m) <= radius for m in members):
                    members.append(r)
                    changed = True
                else:
                    keep.append(r)
            remaining = keep
        clusters.append(complex(np.mean(members)))
    return clusters


def _circle_zeros_of_tau(v: CoefVector) -> list[tuple[float, int]]:
    """Zeros of a nonnegative tau with their (even) vanishing orders."""
    g = v.gamma()
    scale = float(np.sum(np.abs(g)))
    raw = _grid_minima(v, max(64 * v.d + 256, 512), ceiling=1e-8 * max(scale, 1e-30))
    points = np.exp(1j * np.array(raw))
    zeros = sorted(np.angle(cluster_roots(points, 1e-6)) % (2 * math.pi))
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
