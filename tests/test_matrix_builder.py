"""Block matrices of the worked examples, rank decisions, kernel bases."""

import cmath
from fractions import Fraction

import numpy as np
import pytest

from lacuna import (
    RankIndeterminate,
    build_matrix,
    canonical_factorization,
    rank_and_kernel,
    tilde_factorization,
)
from lacuna.matrix_builder import BlockMatrix
from lacuna.plus_cone import proportional
from lacuna.poly_core import ComplexPoly


def _entry_oracle(coeffs, forbidden, d):
    """Direct transcription of the block formulas, no shared code."""

    def a(k):
        return complex(coeffs[k]).real if 0 <= k < len(coeffs) else 0.0

    def b(k):
        return complex(coeffs[k]).imag if 0 <= k < len(coeffs) else 0.0

    rows = []
    for kj in forbidden:
        rows.append(
            [a(kj + l - d) + a(kj - l - d) for l in range(d + 1)]
            + [b(kj + l - d) - b(kj - l - d) for l in range(1, d + 1)]
        )
    for kj in forbidden:
        rows.append(
            [b(kj + l - d) + b(kj - l - d) for l in range(d + 1)]
            + [-(a(kj + l - d) - a(kj - l - d)) for l in range(1, d + 1)]
        )
    return np.array(rows, dtype=float) if rows else np.zeros((0, 2 * d + 1))


def _example_matrix(examples, name, kind="plain"):
    p, pat = examples[name]
    can = canonical_factorization(p, pat.N)
    if kind == "plain":
        return build_matrix(can.cofactor, pat.forbidden, can.m, kind="plain"), can
    til = tilde_factorization(pat.N, can)
    return build_matrix(til.reduced_cofactor, pat.forbidden, til.m_tilde, kind="tilde"), til


def test_matrix_pair_and_gap_is_zero(examples):
    mat, _ = _example_matrix(examples, "pair_and_gap")
    assert mat.shape == (2, 3) and mat.exact
    assert all(x == 0 for row in mat.rows for x in row)
    kb = rank_and_kernel(mat)
    assert kb.rank == 0 and kb.dim == 3


def test_matrix_clean_gap_paper_entries(examples):
    mat, _ = _example_matrix(examples, "clean_gap")
    assert mat.rows == (
        (Fraction(8), Fraction(10), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(6)),
    )
    kb = rank_and_kernel(mat)
    assert kb.rank == 2 and kb.dim == 1
    assert proportional(
        kb.vectors[0].as_array(), np.array([-5 / 4, 1.0, 0.0]), tol=1e-12
    )


def test_matrix_double_circle_tilde_entries(examples):
    mat, _ = _example_matrix(examples, "double_circle", kind="tilde")
    assert mat.shape == (4, 5)
    got = [[float(x) for x in row] for row in mat.rows]
    assert got == [
        [0, -1, 0, 0, 0],
        [0, -1, 0, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, -1, 0],
    ]
    kb = rank_and_kernel(mat)
    assert kb.rank == 2 and kb.dim == 3


def test_matrix_single_double_zero_tilde_entries(examples):
    mat, _ = _example_matrix(examples, "single_double_zero", kind="tilde")
    assert mat.rows == (
        (Fraction(-2), Fraction(-2), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(-2)),
    )
    kb = rank_and_kernel(mat)
    assert kb.rank == 2 and kb.dim == 1
    assert proportional(kb.vectors[0].as_array(), np.array([1.0, -1.0, 0.0]))


def test_entries_match_direct_formula(examples):
    for name in examples:
        p, pat = examples[name]
        can = canonical_factorization(p, pat.N)
        mat = build_matrix(can.cofactor, pat.forbidden, can.m, kind="plain")
        want = _entry_oracle(can.cofactor.coeffs, pat.forbidden, can.m)
        assert np.allclose(mat.as_array(), want, atol=0)


def test_entries_match_direct_formula_random(rng):
    # random cofactor, no structure at all
    d, s = 3, 5
    coeffs = [
        complex(rng.standard_normal(), rng.standard_normal())
        for _ in range(s + 1)
    ]
    forbidden = (2, 4, 6)
    mat = build_matrix(ComplexPoly(coeffs), forbidden, d, kind="plain")
    assert mat.shape == (6, 7)
    assert np.allclose(mat.as_array(), _entry_oracle(coeffs, forbidden, d), atol=0)


def test_kernel_vectors_annihilate(examples):
    for name in examples:
        for kind in ("plain", "tilde"):
            mat, _ = _example_matrix(examples, name, kind=kind)
            kb = rank_and_kernel(mat)
            arr = mat.as_array()
            for v in kb.vectors:
                assert np.max(np.abs(arr @ v.as_array())) <= 1e-12
            assert kb.rank + kb.dim == mat.shape[1]


def test_rank_agrees_between_modes(examples):
    for name in examples:
        p, pat = examples[name]
        exact_can = canonical_factorization(p, pat.N)
        float_can = canonical_factorization(p.to_float(), pat.N)
        me = build_matrix(exact_can.cofactor, pat.forbidden, exact_can.m, kind="plain")
        mf = build_matrix(float_can.cofactor, pat.forbidden, float_can.m, kind="plain")
        scale = max(abs(complex(c)) for c in float_can.cofactor.coeffs)
        assert (
            rank_and_kernel(me).rank == rank_and_kernel(mf, scale=scale).rank
        )


def test_rank_invariant_under_phase(examples):
    # p -> e^{i theta} p rotates the cofactor; rank must not move
    p, pat = examples["clean_gap"]
    can = canonical_factorization(p, pat.N)
    base = rank_and_kernel(
        build_matrix(can.cofactor, pat.forbidden, can.m, kind="plain")
    ).rank
    for theta in (0.3, 1.1, 2.0, 4.4):
        rot = cmath.exp(1j * theta)
        rotated = ComplexPoly([complex(c) * rot for c in can.cofactor.coeffs])
        mat = build_matrix(rotated, pat.forbidden, can.m, kind="plain")
        scale = max(abs(v) for v in rotated.coeffs)
        assert rank_and_kernel(mat, scale=scale).rank == base


def test_noise_matrix_is_rank_zero():
    # entries of pure rounding noise against an O(1) coefficient scale
    rows = (tuple([1e-13, -2e-13, 5e-14]), tuple([3e-14, 1e-13, -8e-14]))
    mat = BlockMatrix(rows, 1, (2,), "plain", False)
    kb = rank_and_kernel(mat, scale=1.0)
    assert kb.rank == 0 and kb.dim == 3


def test_rank_indeterminate_near_threshold():
    x = 2.0**-26  # sits exactly on the float rank threshold
    mat = BlockMatrix(((x, 0.0, 0.0), (0.0, 0.0, 0.0)), 1, (2,), "plain", False)
    with pytest.raises(RankIndeterminate) as exc:
        rank_and_kernel(mat, scale=1.0)
    assert exc.value.singular_values is not None


def test_float_rank_gap_is_at_least_100(rng):
    # singular values spread over 20 decades around the threshold: a value
    # within a factor 10 of it raises, so every decided cut has a gap >= 100
    gaps = 0
    for _ in range(400):
        nrows, d = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        k = min(nrows, 2 * d + 1)
        u = np.linalg.qr(rng.standard_normal((nrows, nrows)))[0][:, :k]
        v = np.linalg.qr(rng.standard_normal((2 * d + 1, 2 * d + 1)))[0][:, :k]
        sing = 10.0 ** rng.uniform(-20.0, 0.0, k)
        rows = tuple(tuple(r) for r in (u * sing) @ v.T)
        mat = BlockMatrix(rows, d, tuple(range(nrows)), "plain", False)
        try:
            kb = rank_and_kernel(mat, scale=float(rng.choice([0.0, 1.0, 1e3])))
        except RankIndeterminate:
            continue
        assert kb.gap is None or kb.gap >= 100
        gaps += kb.gap is not None
    assert gaps >= 50


def test_empty_matrix_identity_kernel():
    mat = build_matrix(ComplexPoly.one(), (), 2, kind="plain")
    kb = rank_and_kernel(mat)
    assert kb.rank == 0 and kb.dim == 5
    arrs = np.array([v.as_array() for v in kb.vectors], dtype=float)
    assert np.allclose(arrs, np.eye(5))


def test_exact_kernel_spans_float_kernel(examples):
    p, pat = examples["double_circle"]
    can = canonical_factorization(p, pat.N)
    til = tilde_factorization(pat.N, can)
    me = build_matrix(til.reduced_cofactor, pat.forbidden, til.m_tilde, kind="tilde")
    exact_kb = rank_and_kernel(me)

    flo = tilde_factorization(pat.N, canonical_factorization(p.to_float(), pat.N))
    mf = build_matrix(flo.reduced_cofactor, pat.forbidden, flo.m_tilde, kind="tilde")
    scale = max(abs(complex(c)) for c in flo.reduced_cofactor.coeffs)
    float_kb = rank_and_kernel(mf, scale=scale)

    assert exact_kb.dim == float_kb.dim
    basis = np.array([v.as_array() for v in float_kb.vectors], dtype=float)
    for v in exact_kb.vectors:
        x = np.array([float(c) for c in v.as_array()])
        resid = x - basis.T @ np.linalg.lstsq(basis.T, x, rcond=None)[0]
        assert np.max(np.abs(resid)) <= 1e-9
