"""The cone of nonnegative trigonometric polynomials and its trace dimensions.

A coefficient vector ``(alpha_0..alpha_d, beta_1..beta_d)`` encodes the real
trigonometric polynomial

    tau(t) = 2 * (alpha_0 + sum_k alpha_k cos kt - beta_k sin kt)
           = sum_{|k|<=d} gamma_k e^{ikt},   gamma_k = alpha_k + i beta_k,

and the vector is called *plus* when tau >= 0 on the whole circle.
``is_plus`` is the one verdict, exact at the entries' value (a float at its
binary value): through the Cayley numerator P, tau(2 arctan x) =
P(x) / (1+x^2)^d, with integer coefficients and Sturm chains
(``certify_nonneg_exact``).  The one degree reduction is the harmonic
lattice: when every harmonic of v lies in kZ, k > 1, tau_v(t) = sigma(kt)
for a sigma of degree d // k (so the cone questions of q(z^k) on k Lambda are
q's on Lambda), and the certificate and ``plus_dimension`` work on sigma.

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
The t_j are the real roots of P, isolated on the Sturm chain that counts
them (``poly_core.real_roots``); an order at a rational one is read off
P's Taylor coefficients, at t = pi (x = infinity) off its top ones, and an
irrational one enters only the last alternative, to a double's precision.
The interior vector is verified exactly, and each realizing vector is
certified.  A V that holds the constant needs none of this.  s is the
caller's seed; without one, ``find_plus_in_slice`` finds s.

``find_plus_in_slice`` runs the same Gordan steps at fixed rational points,
every one active: infinity and tan(pi (k / (4d + 4) - 1/2)), k = 1..4d+3,
rounded to denominators of at most 64 (0 and +-1 among them).  Weights
raise orders as above.  A direction c is scaled to largest entry 1, rounded
to short fractions that keep G c > 0 exactly, and v = sum c_i u_i is
certified.  Each point's row of G is scaled to largest entry 1, so that the
simplex's c, with G c >= 1, keeps a margin from every point's hyperplane,
not only from those whose rows happen to be large; with primitive integer
rows the candidates crowd into a corner of the cone and the search stalls.
When v is not plus, its rational zeros and short rationals where P_v < 0
join the points (between consecutive real roots of P_v, exact evaluation
decides).  Once alpha_0 vanishes on all of V_o, V holds no nonzero plus
vector (the mean of tau, 2 alpha_0, is positive on one): a proved
dimension 0.

``chord_step`` finds how far a plus vector s can move along a direction v
both ways and stay plus, on the halving walk (``_halving``) that moves the
realizing vectors toward s.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .errors import SolverStalled
from .poly_core import _RATIONALIZE_BOUNDS, _primitive, _rref_kernel, real_root_count, real_roots, sign_at

# find_plus_in_slice: the largest denominator of its starting points, and how
# many times it adds points where a candidate is negative or zero before it
# gives up
_POINT_DENOMINATOR = 64
_CUT_ROUNDS = 32
# how often plus_dimension may halve a step toward a vector before it gives up
_HALVINGS = 1024
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
        """(alpha_0..alpha_d, beta_1..beta_d), the order of ``from_array``."""
        return (*self.alpha, *self.beta)

    @staticmethod
    def from_array(x) -> "CoefVector":
        xs = list(x)
        d = len(xs) // 2  # an even length fails the entry count check
        return CoefVector(d, tuple(xs[: d + 1]), tuple(xs[d + 1 :]))


# ---------------------------------------------------------------------------
# the plus verdict: one exact certificate
# ---------------------------------------------------------------------------


def _ints(xs) -> list[int]:
    """The positive multiple of xs with coprime integer entries (zeros stay)."""
    fr = [x if type(x) in (int, Fraction) else Fraction(x) for x in xs]
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
    """Exact (nonnegative?, touches zero?) for a coefficient vector, read at
    its exact value (a float at its binary value).

    tau >= 0 on the circle iff its Cayley numerator P has a positive leading
    coefficient, an even degree deficit 2d - deg P, and no real root of odd
    multiplicity; tau touches zero iff P has any real root or a positive
    degree deficit.  With P_1 = P and P_{j+1} = gcd(P_j, P_j'), a real root
    of multiplicity m is a root of P_1..P_m, so if r_j counts the distinct
    real roots of P_j, r_1 - r_2 + r_3 - ... counts the odd-multiplicity ones.
    On a harmonic lattice P is sigma's, plus and touching zero when tau_v is.
    """
    v = _on_lattice(v, math.gcd(*(i if i <= v.d else i - v.d for i, x in enumerate(v.entries) if x)))
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


def is_plus(v: CoefVector) -> bool:
    """True when tau_v >= 0 on the circle, by ``certify_nonneg_exact``."""
    return certify_nonneg_exact(v)[0]


# ---------------------------------------------------------------------------
# trace dimension on the cone
# ---------------------------------------------------------------------------


def plus_dimension(basis, seed: CoefVector | None = None) -> tuple[int, list[CoefVector]]:
    """Dimension of span(plus vectors in span(basis)), with exact plus vectors
    that realize it; the basis rows (``CoefVector``s or arrays) are read at
    their exact value, a float at its binary value.  On the harmonic lattice
    of the rows and the seed the search runs on sigma (module docstring), and
    each found vector is spread back by tau(t) -> tau(kt), which keeps plus
    vectors plus; a seed that comes back comes first, as the caller's own
    object.  A zero seed counts as none; a seed outside V or not plus is a
    ValueError; an unfinished certificate raises :class:`SolverStalled`.
    """
    rows = [b.entries if isinstance(b, CoefVector) else b for b in basis]
    d = (len(rows[0]) - 1) // 2 if rows else seed.d if seed else 0
    rows = [_sparse(b) for b in rows]
    support = {i for row in rows for i in row} | {i for i, x in enumerate(seed.entries if seed else ()) if x}
    k = math.gcd(*{i if i <= d else i - d for i in support})
    if k <= 1:
        return _plus_span(rows, seed, d)
    small = None if seed is None else _on_lattice(seed, k)
    at = {i: i // k if i <= d else d // k + (i - d) // k for i in support}
    dim, found = _plus_span([{at[i]: x for i, x in row.items()} for row in rows], small, d // k)
    return dim, [seed if v is small else _spread(v, k, d) for v in found]


def _on_lattice(v: CoefVector, k: int) -> CoefVector:
    """sigma of degree d // k with tau_v(t) = sigma(kt), for v on harmonics kZ
    (v itself for k <= 1)."""
    return CoefVector(v.d // k, v.alpha[::k], v.beta[k - 1 :: k]) if k > 1 else v


def _sparse(xs) -> dict:
    """The nonzero entries of a vector by index, at their exact value."""
    return {i: x if isinstance(x, Fraction) else Fraction(x) for i, x in enumerate(xs) if x}


def _dense(row: dict, n: int) -> list[Fraction]:
    return [row.get(j, _ZERO) for j in range(n)]


def _spread(v: CoefVector, k: int, d: int) -> CoefVector:
    """The degree-d vector whose tau is t -> tau_v(kt)."""
    at = dict(zip(range(0, d + 1, k), v.alpha)) | dict(zip(range(d + k, 2 * d + 1, k), v.beta))
    return CoefVector.from_array(_dense(at, 2 * d + 1))


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
    coordinates are its entries there: the kernel of the kernel.  Rows
    already in that form (as ``rank_and_kernel`` gives a kernel) are that
    basis, which is unique, and come back in column order unreduced."""
    cols = [max(row, default=None) for row in rows]
    if None not in cols and all(row[c] == 1 and sum(c in other for other in rows) == 1 for row, c in zip(rows, cols)):
        return sorted(rows, key=max)
    return _rref_kernel(_rref_kernel(rows, n)[1], n)[1]


def _plus_span(rows: list[dict], seed: CoefVector | None, d: int) -> tuple[int, list[CoefVector]]:
    """``plus_dimension`` on sparse exact rows, without the lattice step."""
    basis = _echelon(rows, 2 * d + 1)
    cols = [max(b) for b in basis]
    if seed is not None and not any(seed.entries):
        seed = None
    if seed is not None:
        if _combine([seed.entries[c] for c in cols], basis) != _sparse(seed.entries):
            raise ValueError("seed does not lie in the given subspace")
        if not is_plus(seed):
            raise ValueError("seed is not a plus vector")
    if 0 in cols:
        return len(basis), _constant_span(basis, cols, seed, d)
    if seed is None:
        seed = find_plus_in_slice([_dense(b, 2 * d + 1) for b in basis])
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
        out.append(CoefVector.from_array(_dense({0: _ONE, **{j: x / norm for j, x in u.items()}}, 2 * d + 1)))
    if seed is not None:
        out.insert(0, out.pop(next((i for i, c in enumerate(cols) if c and seed.entries[c]), cols.index(0))))
        out[0] = seed
    return out


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
    tables = [_taylor_table(polys, x, m) for x, m in exact]
    orders = [0] * len(exact)
    while True:
        K = _rref_kernel([_sparse(t[k]) for t, o in zip(tables, orders) for k in range(o)], r)[1]
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
    if approx:  # rows at irrational zeros give c long denominators: round it, keeping G c above their noise
        G += [[_dot([_taylor(p, x, 1)[0][0] for p in polys], u) for u in free] for x in approx]
        w, c = _gordan(G, len(free))
        top = max(map(abs, c or [1])) or 1
        tries = ([(x / top).limit_denominator(b) for x in c] for b in _RATIONALIZE_BOUNDS) if c else ()
        noise = [1e-9 * sum(map(abs, g)) for g in G]  # c is scaled to largest entry 1
        c = next((c for c in tries if all(_dot(g, c) > e for g, e in zip(G, noise))), None)
        if c is None:
            raise SolverStalled("the face of the plus cone may force a zero at an irrational point")
    v = _dense(_combine(_dense(_combine(c, free), r), basis), n)
    x = _toward(_ints(s.entries), _ints(v), lambda y: _interior(y, exact, orders))
    keep = next(l for l, u in enumerate(K) if x.entries[cols[max(u)]])
    us = (_ints(_dense(_combine(_dense(u, r), basis), n)) for l, u in enumerate(K) if l != keep)
    return len(K), [x] + [_toward(_ints(x.entries), u, is_plus) for u in us]


def find_plus_in_slice(basis) -> CoefVector | None:
    """A plus vector of V = span(basis) with alpha_0 = 1, exact and
    certified, or None when V holds no nonzero plus vector, which is then
    proved (module docstring).  The rows (``CoefVector``s or arrays) are read
    at their exact value and need not be independent.  Raises
    :class:`SolverStalled` when a candidate that is not plus gives no new
    point, or after ``_CUT_ROUNDS`` rounds."""
    rows = [b.entries if isinstance(b, CoefVector) else b for b in basis]
    if not rows:
        return None
    n = len(rows[0])
    d, basis = (n - 1) // 2, [_sparse(b) for b in rows]
    r, mean = len(basis), [b.get(0, _ZERO) for b in basis]
    if not any(mean):
        return None
    polys = [_cayley_poly(_dense(b, n), d) for b in basis]
    turns = (k / (4 * d + 4) - 0.5 for k in range(1, 4 * d + 4))
    points = [None, *sorted({Fraction(math.tan(math.pi * a)).limit_denominator(_POINT_DENOMINATOR) for a in turns})]
    orders = dict.fromkeys(points, 0)
    tables: dict = {}  # x -> [the k-th Taylor coefficients of the P_u at x, for k = 0, 1, ...]

    def row(x, k: int) -> tuple:
        if len(tables.get(x, ())) <= k:
            tables[x] = _taylor_table(polys, x, k + 1)
        return tables[x][k]

    for _ in range(_CUT_ROUNDS):
        while True:
            K = _rref_kernel([_sparse(row(x, k)) for x, o in orders.items() for k in range(o)], r)[1]
            if not any(_dot(mean, u) for u in K):
                return None
            G = [_unit([_dot(row(x, o), u) for u in K]) for x, o in orders.items()]
            w, c = _gordan(G, len(K))
            if w is None:
                break
            for x, wj in zip(list(orders), w):
                orders[x] += 2 if wj else 0
        c = _unit(c)
        tries = ([x.limit_denominator(1 << b) for x in c] for b in range(64))
        c = next((y for y in tries if all(_dot(g, y) > 0 for g in G)), c)
        v = CoefVector.from_array(_dense(_combine(_dense(_combine(c, K), r), basis), n))
        if is_plus(v):
            return CoefVector.from_array([x / v.alpha[0] for x in v.entries])
        cuts = [x for x in _cuts(v) if x not in orders]
        if not cuts:
            raise SolverStalled("no new point where the slice search's candidate is negative or zero was found")
        orders.update(dict.fromkeys(cuts, 0))
    raise SolverStalled(f"no certified plus vector of the subspace within {_CUT_ROUNDS} cutting rounds")


def _unit(xs) -> list[Fraction]:
    """xs over its largest entry in size (zeros stay)."""
    top = max(map(abs, xs))
    return [x / top for x in xs] if top else xs


def _cuts(v: CoefVector) -> list[Fraction]:
    """The rational zeros of P_v, and in each gap between consecutive real
    zeros (from ``_circle_zeros``) whose middle P_v is negative at, the first
    of the middle's best approximations with denominators 1, 2, 4, ... where
    P_v is negative."""
    P = _cayley_numerator(v)
    exact, approx = _circle_zeros(v)
    out = [x for x, _ in exact if x is not None]
    zeros = sorted(out + approx)
    for a, b in zip(zeros, zeros[1:]):
        mid = (a + b) / 2
        if sign_at(P, mid) < 0:
            tries = (mid.limit_denominator(1 << k) for k in range(64))
            out.append(next((x for x in tries if sign_at(P, x) < 0), mid))
    return out


def _dot(f, u) -> Fraction:
    """<f, u> for a dense f and a dense or sparse u."""
    pairs = u.items() if isinstance(u, dict) else enumerate(u)
    return sum((f[i] * x for i, x in pairs if x), _ZERO)


def _least_halving(accept) -> int:
    """The least k >= 0 that ``accept`` takes, for an ``accept`` monotone in
    k (it takes every k above one it takes): by doubling and then by
    bisection, up to ``_HALVINGS``."""
    lo, hi = -1, 0  # accept fails at lo (-1: untried) and is tried at hi
    while not accept(hi):
        if hi == _HALVINGS:
            raise SolverStalled(f"no certified plus vector within {_HALVINGS} halvings")
        lo, hi = hi, min(2 * hi or 1, _HALVINGS)
    while hi - lo > 1:  # accept takes hi
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if accept(mid) else (mid, hi)
    return hi


def _halving(a: list[int], b: list[int]):
    """k, sign -> the integer vector 2^k |b| a + sign |a| b (|.| the largest
    entry in size), a positive multiple of a + sign 2^-k b |a| / |b|.  A test
    that keeps every convex combination of a with a vector it takes is
    monotone in k: the vector at k is one of a and the one at any smaller k."""
    ma, mb = max(map(abs, a)), max(map(abs, b)) or 1
    return lambda k, sign=1: CoefVector.from_array([(x * mb << k) + sign * ma * y for x, y in zip(a, b)])


def _toward(a: list[int], b: list[int], accept) -> CoefVector:
    """The first vector of ``_halving(a, b)`` that ``accept`` takes, in
    Fractions; ``is_plus`` and ``_interior`` are monotone tests."""
    at = _halving(a, b)
    return CoefVector.from_array(map(Fraction, at(_least_halving(lambda k: accept(at(k)))).entries))


def chord_step(s: CoefVector, v: CoefVector) -> Fraction:
    """The largest t = 2^-k |s| / |v|, k = 0, 1, ..., with tau_s + t tau_v and
    tau_s - t tau_v both plus, for a plus s and a nonzero v of the same
    degree (|.| the largest entry in size): the first k at which both of
    ``_halving``'s sides are plus.  A t exists when tau_s > 0 on the circle."""
    at = _halving(_ints(s.entries), _ints(v.entries))
    k = _least_halving(lambda k: is_plus(at(k)) and is_plus(at(k, -1)))
    return Fraction(max(map(abs, s.entries)), max(map(abs, v.entries))) / (1 << k)


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
    (x, order) at each rational x, None standing for t = pi, and at each
    irrational one the midpoint of its interval from ``real_roots``, halved
    on the sign of P's square-free part S to a width of
    2^-53 max(|a|, |b|, 1), the precision of a double."""
    P = _cayley_numerator(s)
    deficit = 2 * s.d - (len(P) - 1)
    rational, intervals, S = real_roots(P)
    exact: list = [(None, deficit)] if deficit else []
    exact += [(a, next(k for k, c in enumerate(_taylor(P, a, len(P))[0]) if c)) for a in rational]
    approx = []
    for a, b in intervals:  # on integers: (a, b] = (lo, hi] / den
        den = math.lcm(a.denominator, b.denominator)
        lo, hi = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
        right = sign_at(S, b)  # the sign of S between the root and b
        while (hi - lo) << 53 > max(abs(lo), abs(hi), den):
            lo, hi, den = 2 * lo, 2 * hi, 2 * den
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if sign_at(S, Fraction(mid, den)) == right else (mid, hi)
        approx.append(Fraction(lo + hi, 2 * den))
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


def _taylor_table(polys, x, count: int) -> list[tuple]:
    """[the k-th Taylor coefficients of the P in ``polys`` at x, k < count];
    x = None is the point at infinity: those of the reversed P at 0."""
    return list(zip(*(_taylor(p[::-1] if x is None else p, x or 0, count)[0] for p in polys)))


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
