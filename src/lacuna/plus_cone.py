"""The cone of nonnegative trigonometric polynomials and its trace dimensions.

A coefficient vector ``(alpha_0..alpha_d, beta_1..beta_d)`` encodes the real
trigonometric polynomial

    tau(t) = 2 * (alpha_0 + sum_k alpha_k cos kt - beta_k sin kt)
           = sum_{|k|<=d} gamma_k e^{ikt},   gamma_k = alpha_k + i beta_k,

and the vector is called *plus* when tau >= 0 on the whole circle.
``is_plus`` is the one verdict: exact for rational vectors, through the
Cayley numerator P, tau(2 arctan x) = P(x) / (1+x^2)^d, with integer
coefficients and Sturm chains (``certify_nonneg_exact``), and a global
minimum scan for the float iterates of the slice search.

``plus_dimension`` computes the dimension of a subspace V's trace on the
plus cone (the span of its plus vectors), with exact plus vectors that
realize it, by facial reduction (Borwein-Wolkowicz 1981; Permenter-Parrilo,
Math. Prog. 2018) over the circle zeros t_j, of orders m_j, of one plus
vector s of V.  V_o holds the vectors of V that vanish to even orders o_j
at the t_j; every plus vector lies in V_o for o = 0.  At the active points
(o_j < m_j) Gordan's alternative, an exact simplex, gives either weights
w >= 0, not all zero, with sum_j w_j tau_v^(o_j)(t_j) = 0 on V_o, so that
every plus vector vanishes to order o_j + 2 on the support of w, or a v in
V_o with tau_v^(o_j)(t_j) > 0 at each active point, so that s + eps v is
interior and the dimension is dim V_o (1, with s, once V_o is s's line).
In Cayley coordinates an order at a rational x_j is read off the Taylor
coefficients of P there, at t = pi (x = infinity) off its top ones;
irrational zeros enter only the last alternative, at the binary value of a
float root.  The interior vector is verified exactly, and each realizing
vector is certified.  A V that holds the constant needs none of this.  s is
the caller's seed; without one, a V whose vectors all have alpha_0 = 0
holds only tau = 0, and otherwise one probe of ``find_plus_in_slice``
finds s.

``find_plus_in_slice`` looks for a plus vector inside an affine slice of a
subspace by alternating projections between the PSD cone and the affine
constraint set.  It reports a slice empty when the affine step's
displacement, read as a Farkas certificate, puts the mean of tau of every
plus vector of the slice beyond the solver's tolerance, or else when the
residual plateaus (weakly infeasible slices have no such certificate).
``_affine_projector`` projects by least squares onto {Q : C L Q = f}, where
L maps Hermitian Q to the coefficient vector of tau_Q, with
C = [complement of the subspace; w] and f = (0, ..., 0, target).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np

from .errors import SolverStalled
from .poly_core import _RATIONALIZE_BOUNDS, _primitive, _rref_kernel, is_exact_scalar, long_division, real_root_count

# the slice search's alternating projections: convergence test (and the
# Farkas bound's threshold), plateau detection, stall cap and
# re-certification band
_TOL_FEASIBLE = 1e-9
_ITERATION_CAP = 20000
_PLATEAU_WINDOW = 500
_PLATEAU_LEVEL = 1e-7
_RECERT_TOL = 1e-7
# how often plus_dimension halves a step toward a vector before it gives up
_HALVINGS = 64
_ZERO, _ONE = Fraction(0), Fraction(1)


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
    n = 8 * v.d + 64
    t = 2 * math.pi * np.arange(n) / n
    vals = v.tau(t)
    local = (vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1))
    ts = np.array([_polish_minimum(v, t[i], 2 * math.pi / n) for i in np.flatnonzero(local)])
    vals = v.tau(ts)
    i = int(np.argmin(vals))
    return float(ts[i] % (2 * math.pi)), float(vals[i])


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


def _ints(xs) -> list[int]:
    """The positive multiple of xs with coprime integer entries (zeros stay)."""
    fr = [Fraction(x) for x in xs]
    den = math.lcm(*(x.denominator for x in fr))
    out = [x.numerator * (den // x.denominator) for x in fr]
    return _primitive(out) if any(out) else out


def _cayley_poly(entries, d: int) -> list:
    """Half of P with tau(2 arctan x) = P(x) / (1+x^2)^d, as 2d+1 ascending
    coefficients, linear in the entries and in their scalar type.  With
    e^{ikt} = (1+ix)^(2k) / (1+x^2)^k, P = sum_k T_k (1+x^2)^(d-k), summed by
    Horner in (1+x^2), where the x^j coefficient of T_k / 2 is
    C(2k, j) Re(g_k i^j) with g_k = alpha_k + i beta_k (T_0 = gamma_0)."""
    P: list = []
    for k in range(d + 1):
        a = entries[k]
        b = entries[d + k] if k else 0
        re_gi = (a, -b, -a, b)  # Re(g_k i^j) for j mod 4
        P = [
            (P[j] if j < len(P) else 0)
            + (P[j - 2] if j >= 2 else 0)
            + math.comb(2 * k, j) * re_gi[j % 4]
            for j in range(2 * k + 1)
        ]
    return P


def _cayley_numerator(v: CoefVector) -> list[int]:
    """P as primitive integer coefficients, trailing zeros dropped ([] when tau
    is zero), summed on the entries' primitive integer multiple."""
    P = _cayley_poly(_ints(v.entries), v.d)
    while P and not P[-1]:
        P.pop()
    return _primitive(P) if P else []


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
    """Plus vector v in span(basis) with <v, w> = target, or None, by
    alternating projections between the PSD cone and the affine set of
    Hermitian matrices whose coefficient vector lies in the slice.  ``None``
    means either that the Farkas bound of ``_slice_mean_bound``, read from the
    affine step at iterations 0, 1, 2, 4, 8, ..., puts mean(tau) of every plus
    vector of the slice above |target| / (|w| _TOL_FEASIBLE), or that the
    residual plateaued above ``_PLATEAU_LEVEL`` for ``_PLATEAU_WINDOW``
    iterations (weakly infeasible slices have no strict certificate).  A run
    that does neither within ``_ITERATION_CAP`` raises :class:`SolverStalled`.
    """
    w, target = slice_constraint
    w = np.asarray(w, dtype=float)
    nx = len(w)
    d = (nx - 1) // 2
    _, sv, vh = np.linalg.svd(np.asarray(basis, dtype=float).reshape(-1, nx), full_matrices=True)
    rank = int(np.count_nonzero(sv > 1e-10 * (sv[0] if sv.size else 0.0)))
    VB, comp = vh[:rank], vh[rank:]
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


def plus_dimension(basis, seed: CoefVector | None = None) -> tuple[int, list[CoefVector]]:
    """Dimension of span(plus vectors in span(basis)), with exact plus vectors
    that realize it; the basis rows (``CoefVector``s or arrays) are read at
    their exact value, a float at its binary value.  When every nonzero entry
    of the rows and the seed sits at a harmonic in kZ, k > 1, V is a space of
    functions of kt: the search runs at degree d // k on the columns
    (alpha_0, alpha_k, ..., beta_k, ...), and each found vector is spread
    back by tau(t) -> tau(kt), which keeps plus vectors plus; the seed comes
    back as the caller's own object.  A seed outside V or not plus is a
    ValueError; an unfinished certificate raises :class:`SolverStalled`.
    """
    rows = [b.entries if isinstance(b, CoefVector) else b for b in basis]
    n = len(rows[0]) if rows else 2 * seed.d + 1 if seed else 1
    rows = [_sparse(b) for b in rows]
    d = (n - 1) // 2
    support = {i for row in rows for i in row} | {i for i, x in enumerate(seed.entries if seed else ()) if x}
    k = math.gcd(*{i if i <= d else i - d for i in support})
    if k <= 1:
        return _plus_span(rows, seed, d)
    small = None if seed is None else CoefVector(d // k, seed.alpha[::k], seed.beta[k - 1 :: k])
    at = {i: i // k if i <= d else d // k + (i - d) // k for i in support}
    dim, found = _plus_span([{at[i]: x for i, x in row.items()} for row in rows], small, d // k)
    return dim, [seed if v is small else _spread(v, k, d) for v in found]


def _sparse(xs) -> dict:
    """The nonzero entries of a vector by index, at their exact value."""
    return {i: x if isinstance(x, Fraction) else Fraction(x) for i, x in enumerate(xs) if x}


def _dense(row: dict, n: int) -> list[Fraction]:
    return [row.get(j, _ZERO) for j in range(n)]


def _spread(v: CoefVector, k: int, d: int) -> CoefVector:
    """The degree-d vector whose tau is t -> tau_v(kt)."""
    alpha, beta = [_ZERO] * (d + 1), [_ZERO] * d
    alpha[::k] = v.alpha
    beta[k - 1 :: k] = v.beta
    return CoefVector(d, tuple(alpha), tuple(beta))


def _combine(coords, rows: list[dict]) -> dict:
    """sum_i coords[i] rows[i], by index."""
    out: dict = {}
    for c, row in zip(coords, rows):
        if c:
            for j, x in row.items():
                out[j] = out.get(j, 0) + c * x
    return {j: x for j, x in out.items() if x}


def _echelon(rows: list[dict], n: int) -> list[dict]:
    """A basis of span(rows) in which each vector has a 1 at its own column
    (its last nonzero entry) and every other one a 0, so that a vector's
    coordinates are its entries there; kernels of ``rank_and_kernel`` are,
    and are kept (two eliminations would cost exact_circle 4% of its rate)."""
    cols = {max(row) for row in rows if row}
    if len(cols) == len(rows) and all(row[max(row)] == 1 and len(cols.intersection(row)) == 1 for row in rows):
        return rows
    complement = _rref_kernel([_dense(row, n) for row in rows], n)[1]
    return [_sparse(v) for v in _rref_kernel(complement, n)[1]]


def _plus_span(rows: list[dict], seed: CoefVector | None, d: int) -> tuple[int, list[CoefVector]]:
    """``plus_dimension`` on sparse exact rows, without the lattice step."""
    basis = _echelon(rows, 2 * d + 1)
    cols = [max(b) for b in basis]
    if seed is not None:
        if _combine([seed.entries[c] for c in cols], basis) != _sparse(seed.entries):
            raise ValueError("seed does not lie in the given subspace")
        if not is_plus(seed):
            raise ValueError("seed is not a plus vector")
    if 0 in cols:
        return len(basis), _constant_span(basis, cols, seed, d)
    if seed is None or not any(seed.entries):
        seed = _probe(basis, cols, d) if any(0 in b for b in basis) else None
        if seed is None:
            return 0, []
    return _facial_reduction(basis, cols, seed, d)


def _constant_span(basis, cols, seed, d: int) -> list[CoefVector]:
    """1 and the 1 + u / |u|_1 for the other basis vectors u, whose taus are at
    least 2 - 2 = 0, and which span V.  A seed comes first, in place of one
    of them on which its coefficient is nonzero (facial reduction from 1 would
    cost exact_circle a third of its rate, in halving steps toward each u)."""
    out = []
    for u in basis:  # the one with column 0 is e_0: its last nonzero entry is its first
        norm = sum(map(abs, u.values())) if max(u) else 1
        out.append(CoefVector.from_array(_dense({0: _ONE, **{j: x / norm for j, x in u.items()}}, 2 * d + 1), d=d))
    if seed is not None:
        out.insert(0, out.pop(next((i for i, c in enumerate(cols) if c and seed.entries[c]), cols.index(0))))
        out[0] = seed
    return out


def _probe(basis, cols, d: int) -> CoefVector | None:
    """A plus vector of V with alpha_0 = 1 from one slice probe, read back in
    V's coordinates and certified; None when the probe finds the slice empty."""
    n = 2 * d + 1
    found = find_plus_in_slice(np.array([_dense(b, n) for b in basis], dtype=float), (np.eye(n)[0], 1.0))
    if found is None:
        return None
    for bound in _RATIONALIZE_BOUNDS:
        coords = [Fraction(found.entries[c]).limit_denominator(bound) for c in cols]
        s = CoefVector.from_array(_dense(_combine(coords, basis), n), d=d)
        if any(s.entries) and certify_nonneg_exact(s)[0]:
            return s
    raise SolverStalled("the slice search's plus vector rounds to no certified plus vector of the subspace")


def _facial_reduction(basis, cols, s: CoefVector, d: int) -> tuple[int, list[CoefVector]]:
    """``plus_dimension`` by facial reduction over the circle zeros of the plus
    vector s of V (module docstring).  The LP leaves the direction of s out
    of V_o: tau_s vanishes at every active point, at an irrational one up to
    the rounding of the point, which the LP would otherwise exploit."""
    n, r = 2 * d + 1, len(basis)
    sigma = [s.entries[c] for c in cols]
    exact, approx = _circle_zeros(s)
    polys = [_cayley_poly(_dense(b, n), d) for b in basis]
    # tables[j][k][i]: the k-th Taylor coefficient of P_{basis[i]} at the j-th point
    tables = [list(zip(*(_taylor(p[::-1] if x is None else p, x or 0, m)[0] for p in polys))) for x, m in exact]
    orders = [0] * len(exact)
    while True:
        K = [_sparse(u) for u in _rref_kernel([t[k] for t, o in zip(tables, orders) for k in range(o)], r)[1]]
        drop = next(l for l, u in enumerate(K) if sigma[max(u)])
        free = K[:drop] + K[drop + 1 :]
        if not free:  # V_o = span(s)
            return 1, [s]
        active = [j for j, (o, (_, m)) in enumerate(zip(orders, exact)) if o < m]
        G = [[_dot(tables[j][orders[j]], u) for u in free] for j in active]
        w, c = _gordan(G, len(free))
        if w is None:
            break
        for j, wj in zip(active, w):
            orders[j] += 2 if wj else 0
    if approx:  # rows at float roots give c long denominators: round it, keeping G c above their noise
        G += [[_dot([_taylor(p, x, 1)[0][0] for p in polys], u) for u in free] for x in approx]
        w, c = _gordan(G, len(free))
        top = max(map(abs, c or [1])) or 1
        tries = ([(x / top).limit_denominator(b) for x in c] for b in _RATIONALIZE_BOUNDS) if c else ()
        noise = [1e-9 * sum(map(abs, g)) for g in G]  # c is scaled to largest entry 1
        c = next((c for c in tries if all(_dot(g, c) > e for g, e in zip(G, noise))), None)
        if c is None:
            raise SolverStalled("the face of the plus cone may force a zero at an irrational point")
    v = _dense(_combine(_dense(_combine(c, free), r), basis), n)
    x = _toward(_ints(s.entries), _ints(v), d, lambda y: _interior(y, exact, orders))
    keep = next(l for l, u in enumerate(K) if x.entries[cols[max(u)]])
    us = (_ints(_dense(_combine(_dense(u, r), basis), n)) for l, u in enumerate(K) if l != keep)
    return len(K), [x] + [_toward(_ints(x.entries), u, d, lambda y: certify_nonneg_exact(y)[0]) for u in us]


def _dot(f, u) -> Fraction:
    """<f, u> for a dense f and a dense or sparse u."""
    pairs = u.items() if isinstance(u, dict) else enumerate(u)
    return sum((f[i] * x for i, x in pairs if x), _ZERO)


def _toward(a: list[int], b: list[int], d: int, accept) -> CoefVector:
    """The first of 2^k |b| a + |a| b, k = 0, 1, ..., that ``accept`` takes,
    with |.| the largest entry in size: a positive multiple of a plus
    2^-k b scaled to a's size."""
    ma, mb = max(map(abs, a)), max(map(abs, b)) or 1
    for k in range(_HALVINGS):
        y = CoefVector.from_array([Fraction((x * mb << k) + ma * y) for x, y in zip(a, b)], d=d)
        if accept(y):
            return y
    raise SolverStalled(f"no certified plus vector within {_HALVINGS} halvings")


def _interior(x: CoefVector, exact, orders) -> bool:
    """True when tau_x >= 0 vanishes at the points of ``exact`` to exactly the
    given orders and nowhere else: P_x over the expected zero factors (at
    x = infinity, its degree deficit) has no real root."""
    P = _cayley_numerator(x)
    Q, deficit = [Fraction(c) for c in P], 2 * x.d - (len(P) - 1)
    for (pt, _), o in zip(exact, orders):
        if pt is None:
            deficit -= o
        else:
            taylor, Q = _taylor(Q, pt, o)
            if any(taylor):
                return False
    return bool(P) and P[-1] > 0 and deficit == 0 and real_root_count(_ints(Q))[0] == 0


def _circle_zeros(s: CoefVector) -> tuple[list, list[Fraction]]:
    """The circle zeros of a plus vector in Cayley coordinates x = tan(t/2):
    (x, order) at each rational x, None standing for t = pi, and the binary
    value of a float root at each irrational one.  P's distinct real roots
    are counted exactly, and as many roots of its square-free part with the
    least imaginary parts are taken from ``np.roots``; a rational one has a
    denominator dividing the part's leading coefficient."""
    P = _cayley_numerator(s)
    deficit = 2 * s.d - (len(P) - 1)
    exact: list = [(None, deficit)] if deficit else []
    approx = []
    count, g = real_root_count(P)
    sf = _ints(long_division([Fraction(c) for c in P], g)[0])
    roots = np.roots([c / max(map(abs, sf)) for c in reversed(sf)]) if count else []
    for z in sorted(roots, key=lambda z: abs(z.imag))[:count]:
        a = Fraction(z.real).limit_denominator(abs(sf[-1]))
        taylor = _taylor(P, a, len(P))[0]
        if taylor[0]:
            approx.append(Fraction(z.real))
        else:
            exact.append((a, next(k for k, c in enumerate(taylor) if c)))
    return exact, approx


def _taylor(P, a, count: int) -> tuple[list, list]:
    """The first ``count`` Taylor coefficients of P at a and the quotient of P
    by (x - a)^count (ascending coefficients), by synthetic division."""
    out = []
    for _ in range(count):
        acc, quot = 0, []
        for c in reversed(P):
            acc = acc * a + c
            quot.append(acc)
        out.append(quot.pop())
        P = quot[::-1]
    return out, P


def _gordan(F: list[list], n: int) -> tuple[list | None, list | None]:
    """Gordan's alternative for an m x n matrix F: (w, None) with w >= 0,
    sum w = 1 and w F = 0, or (None, c) with F c > 0, by phase 1 of the
    simplex method (exact, Bland's rule) on {w >= 0 : F^T w = 0, sum w = 1}.
    A positive optimum has duals y, read off the artificial columns' reduced
    costs 1 - y_i, with F y[:n] + y[n] <= 0 < y[n]: c = -y[:n]."""
    m = len(F)
    if not m:
        return None, [Fraction(0)] * n
    A = [[row[i] for row in F] for i in range(n)] + [[Fraction(1)] * m]
    T = [a + [Fraction(int(k == i)) for k in range(n + 1)] + [Fraction(int(i == n))] for i, a in enumerate(A)]
    cost = [int(m <= k < m + n + 1) - sum(col) for k, col in enumerate(zip(*T))]
    basic = list(range(m, m + n + 1))
    while (j := next((k for k in range(m + n + 1) if cost[k] < 0), None)) is not None:
        i = min((i for i in range(n + 1) if T[i][j] > 0), key=lambda i: (T[i][-1] / T[i][j], basic[i]))
        T[i] = [x / T[i][j] for x in T[i]]
        for row in T[:i] + T[i + 1 :] + [cost]:
            if f := row[j]:
                row[:] = [x - f * y for x, y in zip(row, T[i])]
        basic[i] = j
    if cost[-1]:
        return None, [cost[m + i] - 1 for i in range(n)]
    w = {b: row[-1] for b, row in zip(basic, T)}
    return [w.get(i, _ZERO) for i in range(m)], None
