"""Block matrices of the worked examples, rank decisions, kernel bases."""

from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from lacuna import (
    build_matrix,
    canonical_factorization,
    rank_and_kernel,
    tilde_factorization,
)
from lacuna.poly_core import ComplexPoly, GaussianRational, _rref_kernel


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
        return build_matrix(can.cofactor, pat.forbidden, can.m), can
    til = tilde_factorization(can)
    return build_matrix(til.reduced_cofactor, pat.forbidden, til.m_tilde), til


def test_matrix_pair_and_gap_is_zero(examples):
    mat, _ = _example_matrix(examples, "pair_and_gap")
    assert mat.shape == (2, 3)
    assert all(x == 0 and isinstance(x, Fraction) for row in mat.rows for x in row)
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
    assert kb.vectors[0].entries == (Fraction(-5, 4), 1, 0)


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
    assert kb.vectors[0].entries == (-1, 1, 0)


def test_entries_match_direct_formula(examples):
    for name in examples:
        p, pat = examples[name]
        can = canonical_factorization(p, pat.N)
        mat = build_matrix(can.cofactor, pat.forbidden, can.m)
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
    mat = build_matrix(ComplexPoly(coeffs), forbidden, d)
    assert mat.shape == (6, 7)
    assert np.allclose(mat.as_array(), _entry_oracle(coeffs, forbidden, d), atol=0)


def test_kernel_vectors_annihilate(examples):
    for name in examples:
        for kind in ("plain", "tilde"):
            mat, _ = _example_matrix(examples, name, kind=kind)
            kb = rank_and_kernel(mat)
            for v in kb.vectors:
                assert all(sum(a * x for a, x in zip(row, v.entries)) == 0 for row in mat.rows)
            assert kb.rank + kb.dim == mat.shape[1]


def test_rank_agrees_between_modes(examples):
    # a float input is factored at its exact value, so its matrix is the same
    for name in examples:
        p, pat = examples[name]
        exact_can = canonical_factorization(p, pat.N)
        float_can = canonical_factorization(ComplexPoly([complex(c) for c in p.coeffs]), pat.N)
        me = build_matrix(exact_can.cofactor, pat.forbidden, exact_can.m)
        mf = build_matrix(float_can.cofactor, pat.forbidden, float_can.m)
        assert mf == me and rank_and_kernel(mf).rank == rank_and_kernel(me).rank


def test_rank_invariant_under_phase(examples):
    # p -> u p for the exact unit u = (3 + 4i)/5 rotates the cofactor; the
    # rank must not move
    p, pat = examples["clean_gap"]
    can = canonical_factorization(p, pat.N)
    base = rank_and_kernel(
        build_matrix(can.cofactor, pat.forbidden, can.m)
    ).rank
    rot = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    rotated = can.cofactor
    for _ in range(4):
        rotated = rotated * rot
        mat = build_matrix(rotated, pat.forbidden, can.m)
        assert rank_and_kernel(mat).rank == base


def test_empty_matrix_identity_kernel():
    mat = build_matrix(ComplexPoly.one(), (), 2)
    kb = rank_and_kernel(mat)
    assert kb.rank == 0 and kb.dim == 5
    assert [v.entries for v in kb.vectors] == [tuple(int(i == j) for j in range(5)) for i in range(5)]


def test_exact_kernel_spans_float_kernel(examples):
    # the tilde kernel of a float input is the exact kernel of its value
    p, pat = examples["double_circle"]
    can = canonical_factorization(p, pat.N)
    til = tilde_factorization(can)
    me = build_matrix(til.reduced_cofactor, pat.forbidden, til.m_tilde)
    exact_kb = rank_and_kernel(me)

    doubles = ComplexPoly([complex(c) for c in p.coeffs])
    flo = tilde_factorization(canonical_factorization(doubles, pat.N))
    mf = build_matrix(flo.reduced_cofactor, pat.forbidden, flo.m_tilde)
    assert rank_and_kernel(mf) == exact_kb


def _dense_rref_kernel(rows, ncols):
    """Reference: Gauss-Jordan on dense Fraction lists, pivoting on the first
    row that holds the column; kernel vectors as dense lists."""
    work = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if i is None:
            continue
        work[r], work[i] = work[i], work[r]
        inv = work[r][c]
        work[r] = [x / inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
    kernel = []
    for c in range(ncols):
        if c not in pivots:
            v = [Fraction(0)] * ncols
            v[c] = Fraction(1)
            for row, pc in zip(work, pivots):
                v[pc] = -row[c]
            kernel.append(v)
    return len(pivots), kernel


_ENTRY = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_MOSTLY_ZERO = st.integers(0, 4).flatmap(lambda k: _ENTRY if k == 0 else st.just(Fraction(0)))


@st.composite
def _matrices(draw):
    """Rational matrices up to 8 x 9: dense, mostly zero, with zero rows,
    with repeated rows, or with no rows."""
    ncols = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["dense", "mostly zero", "zero rows", "repeated rows", "no rows"]))
    entry = _MOSTLY_ZERO if kind == "mostly zero" else _ENTRY
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=0 if kind == "no rows" else 8))
    if rows and kind == "zero rows":
        rows = [[Fraction(0)] * ncols if draw(st.booleans()) else row for row in rows]
    if rows and kind == "repeated rows":
        rows += draw(st.lists(st.sampled_from(rows), max_size=8 - len(rows)))
    return rows, ncols


@given(_matrices(), st.randoms(use_true_random=False))
def test_sparse_elimination_matches_the_dense_reference(matrix, rnd):
    rows, ncols = matrix
    rank, kernel = _dense_rref_kernel(rows, ncols)
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    got = _rref_kernel(sparse, ncols)
    assert got[0] == rank
    assert [[v.get(j, 0) for j in range(ncols)] for v in got[1]] == kernel
    assert all(x for v in got[1] for x in v.values())
    rnd.shuffle(sparse)
    assert _rref_kernel(sparse, ncols) == got
