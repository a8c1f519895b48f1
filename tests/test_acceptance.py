"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Criteria 1-5 reproduce the worked examples and the small subspace cases with
their published matrices and dimensions; 6-10 are property-based sweeps with
planted ground truth.  Every tolerance is stated inline.  Each criterion is
desk-scale (well under ten seconds).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import eval_many
from lacuna import (
    CoefVector,
    ComplexPoly,
    GaussianRational,
    LacunaryPattern,
    WitnessValidationFailed,
    certify_nonneg_exact,
    classify,
    classify_full_space,
    conjugate_reciprocal,
    is_plus,
    l1_norm,
    parse_poly,
    plus_dimension,
    real_symbol_on_circle,
    spectrum_in,
)
from lacuna.classifier import _multiple_of
from lacuna.poly_core import gcd_exact


def _finish(num: int, label: str, problems: list[str]) -> None:
    status = "FAIL" if problems else "PASS"
    print(f"criterion {num:02d} ({label}): {status}")
    assert not problems, f"criterion {num:02d}: " + "; ".join(problems)


def _check(problems: list[str], ok: bool, msg: str) -> None:
    if not ok:
        problems.append(msg)


def _rounded(p: ComplexPoly, c: float | complex = 1.0) -> ComplexPoly:
    """p with each coefficient rounded to a double and times c in float
    arithmetic, so a float product rounds as float input would."""
    return ComplexPoly([complex(x) * c for x in p.coeffs])


def _dyadic_inverse(x: float) -> float:
    """1/x rounded to a multiple of 2^-40.  For x > 1 it has at most 40
    significant bits, so a small integer times it is an exact double: the
    rounded input keeps the exact zero structure of p, whatever the last
    bits of x."""
    return round(2**40 / x) / 2**40


# ---------------------------------------------------------------------------
# 1. pair-and-gap worked example, exact and float
# ---------------------------------------------------------------------------


def test_criterion_01_pair_and_gap_reproduction(examples):
    problems: list[str] = []
    p, pat = examples["pair_and_gap"]
    rep = classify(p, pat)

    _check(problems, rep.canonical.disk_factor == parse_poly("(z - 1/2)(1 - z/2)"),
           f"disk factor {rep.canonical.disk_factor}")
    _check(problems, rep.canonical.cofactor == parse_poly("2 + 2z^4"),
           f"cofactor {rep.canonical.cofactor}")
    _check(problems, rep.canonical.m == 1, f"m={rep.canonical.m}")
    _check(problems, rep.matrix.shape == (2, 3), f"shape {rep.matrix.shape}")
    _check(problems, all(x == 0 for row in rep.matrix.rows for x in row),
           "constraint matrix is not exactly zero")
    _check(problems, rep.kernel.rank == 0, f"rank {rep.kernel.rank}")
    _check(problems, rep.extreme is False, f"extreme={rep.extreme}")
    wits = [w for w in rep.witnesses if w.kind == "non_extreme"]
    _check(problems, len(wits) == 1, "no non-extreme witness emitted")
    if wits:
        seed = real_symbol_on_circle(rep.canonical.disk_factor, rep.canonical.m)
        _check(problems, not _multiple_of(wits[0].vector, seed), "witness multiplier constant")
        _check(problems, spectrum_in(wits[0].perturbation, pat),
               "witness leaves the exponent pattern")

    repf = classify(_rounded(p), pat)
    entry_err = float(np.max(np.abs(repf.matrix.as_array())))
    _check(problems, entry_err <= 1e-9, f"float entries reach {entry_err:.2e}")
    gf = np.array(repf.canonical.disk_factor.float_coeffs())
    _check(problems,
           float(np.max(np.abs(gf - np.array([-0.5, 1.25, -0.5])))) <= 1e-9,
           "float disk factor off")
    _check(problems, repf.extreme is False, "float verdict differs")
    _finish(1, "pair-and-gap reproduction", problems)


# ---------------------------------------------------------------------------
# 2. clean-gap worked example: quadrature-normalized matrix
# ---------------------------------------------------------------------------


def test_criterion_02_clean_gap_matrix(examples):
    problems: list[str] = []
    p, pat = examples["clean_gap"]
    delta = _dyadic_inverse(l1_norm(p).value)
    rep = classify(_rounded(p, delta), pat)

    target = np.array([[4.0, 5.0, 0.0], [0.0, 0.0, 3.0]])
    ratio = rep.matrix.as_array() / (2.0 * delta)
    err = float(np.max(np.abs(ratio - target)))
    _check(problems, err <= 1e-9, f"matrix/(2 delta) off by {err:.2e}")
    _check(problems, rep.kernel.rank == 2, f"rank {rep.kernel.rank}")
    _check(problems, rep.extreme is True, f"extreme={rep.extreme}")
    _finish(2, "clean-gap matrix over 2*delta", problems)


# ---------------------------------------------------------------------------
# 3. normalized double circle zero: tilde matrix, kernel, cone dimension
# ---------------------------------------------------------------------------


def test_criterion_03_double_circle_reproduction(examples):
    problems: list[str] = []
    _, pat = examples["double_circle"]
    p = parse_poly("(1 - z^2)^2") * Fraction(1, 2)  # unit norm already
    rep = classify(p, pat)

    target = [
        [0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 0, -1, 0],
        [0, 0, 0, 1, 0],
    ]
    rows = rep.matrix_tilde.rows
    _check(problems, rep.matrix_tilde.shape == (4, 5),
           f"tilde shape {rep.matrix_tilde.shape}")
    exact_ok = all(
        Fraction(rows[i][j]) == Fraction(-1, 2) * target[i][j]
        for i in range(4)
        for j in range(5)
    )
    _check(problems, exact_ok, "tilde matrix != -1/2 times the reference rows")
    _check(problems, rep.kernel_tilde.rank == 2, f"rank {rep.kernel_tilde.rank}")
    _check(problems, rep.kernel_tilde.dim == 3, f"kernel dim {rep.kernel_tilde.dim}")
    _check(problems, rep.dim_plus == 3, f"dim_plus {rep.dim_plus}")

    seed = real_symbol_on_circle(rep.canonical.disk_factor * rep.tilde.circle_factor, rep.tilde.m_tilde)
    dim, found = plus_dimension(rep.kernel_tilde.vectors, seed=seed)
    _check(problems, dim == 3, f"recomputed dim_plus {dim}")
    stack = np.array([f.entries for f in found], dtype=float)
    _check(problems, np.linalg.matrix_rank(stack, tol=1e-8) == 3,
           "recovered plus-vectors are not independent")
    for f in found:
        _check(problems, all(isinstance(x, Fraction) for x in f.entries) and certify_nonneg_exact(f)[0],
               f"recovered vector {f.entries} is not certified plus")

    _check(problems, rep.extreme is True and rep.exposed is False,
           f"verdicts ({rep.extreme}, {rep.exposed})")
    wits = [w for w in rep.witnesses if w.kind == "non_exposed"]
    _check(problems, len(wits) == 1, "no non-exposed witness")
    if wits:
        _check(problems, is_plus(wits[0].vector), "witness multiplier dips negative")
    _finish(3, "double-circle tilde matrix and cone", problems)


# ---------------------------------------------------------------------------
# 4. normalized single-plus-double zero: tilde matrix and kernel line
# ---------------------------------------------------------------------------


def test_criterion_04_single_double_zero_reproduction(examples):
    problems: list[str] = []
    p, pat = examples["single_double_zero"]
    c = _dyadic_inverse(l1_norm(p).value)
    rep = classify(_rounded(p, c), pat)

    target = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    ratio = rep.matrix_tilde.as_array() / (-2.0 * c)
    err = float(np.max(np.abs(ratio - target)))
    _check(problems, err <= 1e-9, f"tilde matrix/(-2c) off by {err:.2e}")

    _check(problems, rep.kernel_tilde.dim == 1,
           f"kernel dim {rep.kernel_tilde.dim}")
    v = np.array(rep.kernel_tilde.vectors[0].entries, dtype=float)
    ref = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    v = v / np.linalg.norm(v)
    if v[0] < 0:
        v = -v
    _check(problems, float(np.max(np.abs(v - ref))) <= 1e-9,
           f"kernel direction {v}")

    dim, _found = plus_dimension([rep.kernel_tilde.vectors[0]])
    _check(problems, dim == 1, f"dim_plus {dim}")
    _check(problems, rep.exposed is True, f"exposed={rep.exposed}")
    _check(problems, rep.fast_path_exposed == "tilde_full_rank",
           f"shortcut {rep.fast_path_exposed!r}")
    _check(problems, rep.kernel_tilde.rank == 2 * rep.tilde.m_tilde,
           "full-rank shortcut premise violated")
    _finish(4, "single-double-zero tilde matrix", problems)


# ---------------------------------------------------------------------------
# 5. plus-dimension unit cases
# ---------------------------------------------------------------------------


def test_criterion_05_plus_dimension_unit_cases():
    problems: list[str] = []
    v1 = [np.array([0.0, 1.0, 0.0])]
    dim, _ = plus_dimension(v1)
    _check(problems, dim == 0, f"pure-cosine line: dim {dim}")

    v2 = [
        np.array([1.0, 0.0, -1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0, 0.0, 0.0]),
    ]
    dim, found = plus_dimension(v2)
    _check(problems, dim == 1, f"two-dim slice: dim {dim}")
    if found:
        _check(problems, certify_nonneg_exact(found[0])[0],
               "found vector not nonnegative")

    for d in range(5):
        n = 2 * d + 1
        dim, found = plus_dimension(np.eye(n))
        _check(problems, dim == n, f"full space d={d}: dim {dim}")
        # independent oracle: 1, 1 +- cos kt and 1 +- sin kt span the whole space
        unit = np.eye(n, dtype=int)
        oracle = [unit[0]] + [unit[0] + sign * unit[i] for i in range(1, n) for sign in (1, -1)]
        _check(problems, np.linalg.matrix_rank(np.array(oracle, dtype=float), tol=1e-10) == n,
               f"oracle rank deficient at d={d}")
        for row in oracle:
            _check(problems, certify_nonneg_exact(CoefVector.from_array(row.tolist()))[0],
                   "oracle vector dips negative")
    _finish(5, "plus-dimension unit cases", problems)


# ---------------------------------------------------------------------------
# planted zero structures (shared by criteria 6 and 8)
# ---------------------------------------------------------------------------

_DISK_POOL = [
    GaussianRational(Fraction(1, 2)),
    GaussianRational(Fraction(-1, 2)),
    GaussianRational(Fraction(1, 3)),
    GaussianRational(Fraction(-2, 3)),
    GaussianRational(Fraction(3, 4)),
    GaussianRational(Fraction(-1, 4)),
    GaussianRational(Fraction(1, 2), Fraction(1, 2)),
    GaussianRational(Fraction(-1, 4), Fraction(1, 2)),
]
# exterior points whose reflections avoid the disk pool, so no accidental
# shared zeros can arise from the "clean" factors
_EXT_POOL = [
    GaussianRational(Fraction(5, 2)),
    GaussianRational(0, -2),
    GaussianRational(2, 2),
    GaussianRational(-3, 1),
    GaussianRational(4),
    GaussianRational(Fraction(-7, 2)),
]
_CIRCLE_POOL = [
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(0, 1),
    GaussianRational(0, -1),
    GaussianRational(Fraction(3, 5), Fraction(4, 5)),
    GaussianRational(Fraction(3, 5), Fraction(-4, 5)),
    GaussianRational(Fraction(-3, 5), Fraction(4, 5)),
    GaussianRational(Fraction(-3, 5), Fraction(-4, 5)),
]
_SCALARS = [
    GaussianRational(1),
    GaussianRational(Fraction(3, 2)),
    GaussianRational(-2),
    GaussianRational(0, 1),
    GaussianRational(Fraction(1, 2), Fraction(-1, 2)),
    GaussianRational(Fraction(-2, 3), Fraction(1, 3)),
]


def _lin(a: GaussianRational) -> ComplexPoly:
    return ComplexPoly([-a, 1])


def _refl(a: GaussianRational) -> ComplexPoly:
    return ComplexPoly([1, -a.conjugate()])


def _plant(rng, n_pairs=None, circle_mults=None):
    """Random polynomial with a known zero structure.

    Returns (poly, pairs, mults, n_simple): ``pairs`` symmetric disk/exterior
    pairs (each forcing one shared zero with the conjugate-reciprocal),
    ``mults`` the list of planted multiple-circle-zero orders, ``n_simple``
    the count of planted simple circle zeros.  Degree <= 10, all exact.
    """
    if n_pairs is None:
        n_pairs = int(rng.choice([0, 1, 2], p=[0.55, 0.35, 0.10]))
    if circle_mults is None:
        k = int(rng.choice([0, 1, 2], p=[0.55, 0.35, 0.10]))
        circle_mults = [int(rng.integers(2, 4)) for _ in range(k)]
    n_simple = int(rng.random() < 0.3)

    budget = 10
    used = 2 * n_pairs + sum(circle_mults) + n_simple
    while used > budget and circle_mults:
        used -= circle_mults.pop()
    while used > budget and n_pairs:
        n_pairs -= 1
        used -= 2

    disk_idx = list(rng.permutation(len(_DISK_POOL)))
    circ_idx = list(rng.permutation(len(_CIRCLE_POOL)))
    p = ComplexPoly.one()
    for _ in range(n_pairs):
        a = _DISK_POOL[disk_idx.pop()]
        p = p * _lin(a) * _refl(a)
    for lam in circle_mults:
        u = _CIRCLE_POOL[circ_idx.pop()]
        for _ in range(lam):
            p = p * _lin(u)
    if n_simple:
        p = p * _lin(_CIRCLE_POOL[circ_idx.pop()])

    n_clean = int(rng.integers(0, min(3, budget - used) + 1))
    if used + n_clean == 0:
        n_clean = 1
    ext_idx = list(rng.permutation(len(_EXT_POOL)))
    for _ in range(n_clean):
        if rng.random() < 0.5 and disk_idx:
            p = p * _lin(_DISK_POOL[disk_idx.pop()])
        else:
            p = p * _lin(_EXT_POOL[ext_idx.pop()])

    scal = _SCALARS[int(rng.integers(0, len(_SCALARS)))]
    return p * scal, n_pairs, circle_mults, n_simple


def test_criterion_06_zero_structure_consistency():
    problems: list[str] = []
    rng = np.random.default_rng(2026_06)
    disagreements = 0
    for i in range(300):
        p, pairs, mults, simple = _plant(rng)
        fs = classify_full_space(p)
        want_extreme = pairs == 0
        want_exposed = want_extreme and not mults
        ok = (
            fs.extreme == want_extreme
            and fs.exposed == want_exposed
            and fs.shared_disk_multiplicity == pairs
            and sorted(fs.circle_multiplicities) == sorted(mults + [1] * simple)
        )
        if not ok:
            disagreements += 1
            if disagreements <= 3:
                problems.append(
                    f"case {i}: planted pairs={pairs} mults={mults} "
                    f"simple={simple}, got extreme={fs.extreme} "
                    f"exposed={fs.exposed} m={fs.shared_disk_multiplicity} "
                    f"circle={fs.circle_multiplicities}"
                )
    _check(problems, disagreements == 0, f"{disagreements}/300 disagree")
    _finish(6, "zero-structure consistency, 300 planted", problems)


# ---------------------------------------------------------------------------
# 7. gap patterns with no shared zeros are always extreme
# ---------------------------------------------------------------------------


def test_criterion_07_gap_patterns_no_shared_zeros():
    problems: list[str] = []
    rng = np.random.default_rng(2026_07)
    failures = 0
    for i in range(100):
        N = int(rng.integers(3, 13))
        size = int(rng.integers(1, N))
        forbidden = sorted(int(x) for x in rng.choice(range(1, N), size=size,
                                                      replace=False))
        pat = LacunaryPattern(N, forbidden)

        def coef():
            return GaussianRational(
                Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))),
                Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))),
            )

        a = coef()
        while not a:
            a = coef()
        b = coef()
        while not b or b.real ** 2 + b.imag ** 2 == a.real ** 2 + a.imag ** 2:
            b = coef()
        # a + b z^N: all zeros share the modulus |a/b|^(1/N) != 1, and the
        # conjugate-reciprocal's zeros sit at the reciprocal modulus, so the
        # two zero sets are disjoint and m = 0 by construction
        p = ComplexPoly([a] + [0] * (N - 1) + [b])
        rep = classify(p, pat)
        ok = (
            rep.extreme is True
            and rep.exposed is True
            and rep.canonical.m == 0
            and rep.kernel.rank == 0
            and rep.matrix.shape == (2 * pat.M, 1)
        )
        if not ok:
            failures += 1
            if failures <= 3:
                problems.append(
                    f"case {i} (N={N}, forbidden={forbidden}): extreme="
                    f"{rep.extreme} m={rep.canonical.m} rank={rep.kernel.rank}"
                )
    _check(problems, failures == 0, f"{failures}/100 not extreme")
    _finish(7, "gap patterns with planted m=0", problems)


# ---------------------------------------------------------------------------
# 8. witness soundness sweep
# ---------------------------------------------------------------------------


def _witness_grid_check(problems, p, pattern, w, label):
    z = np.exp(2j * math.pi * np.arange(2048) / 2048)
    pv = eval_many(p, z)
    qv = eval_many(w.perturbation, z)
    mask = np.abs(pv) > 1e-6 * np.max(np.abs(pv))
    h = qv[mask] / pv[mask]
    scale = float(np.max(np.abs(h.real)))
    _check(problems, spectrum_in(w.perturbation, pattern),
           f"{label}: witness spectrum escapes the pattern")
    _check(problems, float(np.max(np.abs(h.imag))) <= 1e-8 * (1.0 + scale),
           f"{label}: multiplier not real on the grid")
    spread = float(np.max(h.real) - np.min(h.real))
    _check(problems, spread > 1e-6 * max(1.0, scale),
           f"{label}: multiplier is constant")
    if w.kind == "non_exposed":
        _check(problems, float(np.min(h.real)) >= -1e-8 * (1.0 + scale),
               f"{label}: multiplier not nonnegative")


def test_criterion_08_witness_soundness_sweep(examples):
    problems: list[str] = []
    rng = np.random.default_rng(2026_08)
    jobs = [(p, pat, name) for name, (p, pat) in examples.items()]
    for i in range(12):  # planted shared-zero cases: non-extreme
        p, *_ = _plant(rng, n_pairs=1 + (i % 2), circle_mults=[])
        jobs.append((p, LacunaryPattern(p.deg, []), f"planted-pair-{i}"))
    for i in range(8):  # planted multiple circle zeros: extreme, not exposed
        p, *_ = _plant(rng, n_pairs=0, circle_mults=[2 + (i % 2)])
        jobs.append((p, LacunaryPattern(p.deg, []), f"planted-circle-{i}"))

    validation_failures = 0
    n_witnesses = 0
    for p, pat, label in jobs:
        try:
            rep = classify(p, pat)
        except WitnessValidationFailed as exc:
            validation_failures += 1
            problems.append(f"{label}: witness validation failed: {exc}")
            continue
        if rep.extreme is False:
            _check(problems, any(w.kind == "non_extreme" for w in rep.witnesses),
                   f"{label}: non-extreme verdict without witness")
        if rep.exposed is False:
            _check(problems, any(w.kind == "non_exposed" for w in rep.witnesses),
                   f"{label}: non-exposed verdict without witness")
        for w in rep.witnesses:
            n_witnesses += 1
            _witness_grid_check(problems, p, pat, w, label)
    _check(problems, validation_failures == 0,
           f"{validation_failures} validation failures")
    _check(problems, n_witnesses >= 20, f"only {n_witnesses} witnesses swept")
    _finish(8, "witness soundness sweep", problems)


# ---------------------------------------------------------------------------
# 9. scaling invariance and rank-nullity
# ---------------------------------------------------------------------------


def test_criterion_09_scaling_invariance(examples):
    problems: list[str] = []
    rng = np.random.default_rng(2026_09)
    items = [(p, pat, name) for name, (p, pat) in examples.items()]
    items.append((parse_poly("z + z^2"), LacunaryPattern(4, [3]), "origin"))
    items.append((parse_poly("3 + z^5"), LacunaryPattern(5, [2, 3]), "binomial"))

    def rank_nullity(rep, label):
        for mat, ker, tag in (
            (rep.matrix, rep.kernel, "plain"),
            (rep.matrix_tilde, rep.kernel_tilde, "tilde"),
        ):
            _check(problems, ker.rank + ker.dim == mat.shape[1],
                   f"{label}: rank-nullity fails on the {tag} matrix")

    for p, pat, name in items:
        base = classify(p, pat)
        rank_nullity(base, name)
        for j in range(20):
            if j < 10:
                c = GaussianRational(
                    Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8))),
                    Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8))),
                )
                if not c:
                    c = GaussianRational(Fraction(2, 3))
                q = p * c
            else:
                c = complex(rng.uniform(0.1, 3.0) * np.exp(2j * math.pi * rng.random()))
                q = _rounded(p, c)
            rep = classify(q, pat)
            want = (base.extreme, base.exposed)
            if q != p * c:
                # a float input is judged by its exact value q, which rounding
                # has moved off c p: its shared disk zeros are the zeros of
                # g = gcd(q, q*) off the circle (the origin's counted once more,
                # for its reflection at infinity), and its multiple circle zeros
                # are multiple zeros of g
                g = gcd_exact(q, conjugate_reciprocal(q, pat.N))
                off = sum(abs(abs(r) - 1) > 1e-6 for r in np.roots(g.float_coeffs()[::-1]))
                m = (off + g.order_at_zero()) // 2
                simple = gcd_exact(g, g.derivative()).deg == 0
                if m == 0:  # rank 0 = 2m, and exposed iff no multiple circle zero
                    want = (True, simple)
                _check(problems,
                       rep.canonical.m == m and (rep.tilde.mu == 0) == simple,
                       f"{name} x {c}: m = {rep.canonical.m}, mu = {rep.tilde.mu} "
                       f"against gcd(q, q*) = {g}")
            else:
                _check(problems,
                       (rep.kernel.rank, rep.kernel_tilde.rank)
                       == (base.kernel.rank, base.kernel_tilde.rank),
                       f"{name} x {c}: ranks changed")
            _check(problems,
                   (rep.extreme, rep.exposed) == want,
                   f"{name} x {c}: verdicts ({rep.extreme}, {rep.exposed}), "
                   f"expected {want}")
            rank_nullity(rep, f"{name} x {c}")
    _finish(9, "scaling invariance and rank-nullity", problems)


# ---------------------------------------------------------------------------
# 10. plus-cone verdict audit
# ---------------------------------------------------------------------------


def test_criterion_10_plus_cone_certificate_audit():
    problems: list[str] = []
    rng = np.random.default_rng(2026_10)

    n_grid = 1024
    ts = 2 * math.pi * np.arange(n_grid) / n_grid
    cos_mats = {d: np.cos(np.outer(ts, np.arange(1, d + 1))) for d in range(9)}
    sin_mats = {d: np.sin(np.outer(ts, np.arange(1, d + 1))) for d in range(9)}
    h_step = 2 * math.pi / n_grid

    disagreements = 0
    band_skips = 0
    for i in range(10_000):
        d = int(rng.integers(0, 9))
        if i % 10 < 3:  # built nonnegative: autocorrelation of a random q
            q = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            g = [np.vdot(q[: d + 1 - k], q[k:]) for k in range(d + 1)]
            v = CoefVector(
                d,
                tuple(x.real if k else x.real / 2 for k, x in enumerate(g)),
                tuple(x.imag for x in g[1:]),
            )
            truly_nonneg = True
        else:
            v = CoefVector(
                d,
                tuple(rng.uniform(-1, 1, d + 1)),
                tuple(rng.uniform(-1, 1, d)),
            )
            truly_nonneg = False

        plus = is_plus(v)
        # sum_k |gamma_k|, a bound on |tau|
        scale = max(1.0, 2 * abs(float(v.alpha[0])) + sum(map(math.hypot, v.alpha[1:], v.beta)))

        if truly_nonneg:
            if not plus:
                disagreements += 1
                if disagreements <= 3:
                    problems.append(f"case {i}: nonnegative vector rejected")
        else:
            # independent sampled minimum with a second-derivative margin
            if d == 0:
                grid_min = 2.0 * float(v.alpha[0])
                margin = 0.0
            else:
                a = np.array([float(x) for x in v.alpha[1:]])
                b = np.array([float(x) for x in v.beta])
                vals = 2.0 * float(v.alpha[0]) + 2.0 * (
                    cos_mats[d] @ a - sin_mats[d] @ b
                )
                grid_min = float(np.min(vals))
                ks = np.arange(1, d + 1)
                max_tau2 = 2.0 * float(np.sum(ks * ks * (np.abs(a) + np.abs(b))))
                margin = max_tau2 * h_step * h_step / 8.0
            band = 1e-6 * scale
            if grid_min < -band:
                if plus:
                    disagreements += 1
                    if disagreements <= 3:
                        problems.append(
                            f"case {i}: sampled min {grid_min:.3e} but verdict plus"
                        )
            elif grid_min - margin > band:
                if not plus:
                    disagreements += 1
                    if disagreements <= 3:
                        problems.append(
                            f"case {i}: sampled min {grid_min:.3e} but verdict not plus"
                        )
            else:
                band_skips += 1

    _check(problems, disagreements == 0, f"{disagreements} verdict disagreements")
    _check(problems, band_skips < 500, f"{band_skips} cases fell in the band")
    _finish(10, "plus-cone verdict audit, 10^4 vectors", problems)
