"""Assembly and rank analysis of the forbidden-frequency block matrix.

Given the cofactor polynomial, whose coefficients have real parts A(k) and
imaginary parts B(k) (zero outside 0..deg), the forbidden exponents
k_1 < ... < k_M, and the half-degree d of the factored-out symbol, the
constraint matrix is the 2M x (2d+1) block array

    [ A+  B- ]        A+-[j,l] = A(k_j + l - d) +- A(k_j - l - d)
    [ B+ -A- ]        B+-[j,l] = B(k_j + l - d) +- B(k_j - l - d)

with the plus blocks taking columns l = 0..d and the minus blocks columns
l = 1..d.  Its kernel, read in the (alpha, beta) coordinates of
:class:`~lacuna.plus_cone.CoefVector`, is the space of perturbation symbols
that keep the perturbed polynomial inside the lacunary class.

Rank decisions are exact (fraction Gauss-Jordan) whenever every entry is
rational; the float path uses singular values with a relative-plus-floor
threshold and refuses to decide when the spectrum has no clean gap there,
raising :class:`~lacuna.errors.RankIndeterminate`.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np

from .errors import RankIndeterminate
from .plus_cone import CoefVector
from .poly_core import ComplexPoly

_RANK_SHIFT = 2.0**-26


@dataclasses.dataclass(frozen=True)
class BlockMatrix:
    rows: tuple  # 2M tuples of length 2d+1, Fraction or float entries
    half_degree: int
    forbidden: tuple[int, ...]
    kind: str  # "plain" or "tilde", labeling only
    exact: bool

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), 2 * self.half_degree + 1

    def as_array(self) -> np.ndarray:
        if not self.rows:
            return np.zeros((0, 2 * self.half_degree + 1))
        return np.array([[float(x) for x in row] for row in self.rows], dtype=float)


@dataclasses.dataclass(frozen=True)
class KernelBasis:
    rank: int
    dim: int
    vectors: tuple[CoefVector, ...]
    singular_values: tuple[float, ...] | None
    gap: float | None
    exact: bool


def build_matrix(cofactor: ComplexPoly, forbidden, half_degree: int, kind: str = "plain") -> BlockMatrix:
    """Constraint matrix straight from the cofactor's coefficients."""
    d = half_degree
    c = cofactor.coefficient
    # A+- and B+- are the parts of one sum or difference of two coefficients,
    # so each entry reads one part (a Fraction view in exact mode) of one
    # scalar; rows [A+ B-] for every forbidden exponent, then rows [B+ -A-]
    top, bottom = [], []
    for kj in forbidden:
        plus = [c(kj + l - d) + c(kj - l - d) for l in range(d + 1)]
        minus = [c(kj + l - d) - c(kj - l - d) for l in range(1, d + 1)]
        top.append(tuple(x.real for x in plus) + tuple(x.imag for x in minus))
        bottom.append(tuple(x.imag for x in plus) + tuple(-x.real for x in minus))
    return BlockMatrix(
        rows=tuple(top + bottom),
        half_degree=half_degree,
        forbidden=tuple(forbidden),
        kind=kind,
        exact=cofactor.mode == "exact",
    )


# ---------------------------------------------------------------------------
# rank and kernel
# ---------------------------------------------------------------------------


def _rref_kernel(rows: list[list[Fraction]], ncols: int) -> tuple[int, list[list[Fraction]]]:
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][c]
        work[r] = [x / inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    free = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for c in free:
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -work[row_idx][c]
        kernel.append(v)
    return len(pivots), kernel


def rank_and_kernel(mat: BlockMatrix, *, scale: float = 0.0) -> KernelBasis:
    """Rank of the constraint matrix and a basis of its kernel.

    Exact matrices are decided by Gauss-Jordan elimination over the
    rationals and the kernel comes out in reduced-echelon form (one vector
    per free column, in column order).  Float matrices are decided by
    singular values against the threshold 2^-26 * max(sigma_max, scale);
    ``scale`` should be the coefficient scale feeding the matrix so that a
    matrix of pure rounding noise is recognized as zero.  A singular value
    within a factor 10 of the threshold raises :class:`RankIndeterminate`,
    so the spectral gap at the cut, reported as ``gap``, is at least 100.
    """
    nrows, ncols = mat.shape
    d = mat.half_degree
    if nrows == 0:
        one = Fraction(1) if mat.exact else 1.0
        zero = Fraction(0) if mat.exact else 0.0
        basis = tuple(
            CoefVector.from_array([one if i == j else zero for i in range(ncols)], d=d)
            for j in range(ncols)
        )
        return KernelBasis(0, ncols, basis, None, None, mat.exact)
    if mat.exact:
        rank, kernel = _rref_kernel([list(r) for r in mat.rows], ncols)
        vectors = tuple(CoefVector.from_array(v, d=d) for v in kernel)
        return KernelBasis(rank, ncols - rank, vectors, None, None, True)

    arr = mat.as_array()
    _, sing, vh = np.linalg.svd(arr, full_matrices=True)
    smax = float(sing[0]) if len(sing) else 0.0
    threshold = _RANK_SHIFT * max(smax, float(scale))
    if any(threshold / 10.0 < x < threshold * 10.0 for x in sing):
        raise RankIndeterminate(
            "singular values sit on the rank threshold",
            gap=None,
            singular_values=tuple(float(x) for x in sing),
        )
    rank = int(np.count_nonzero(sing > threshold))
    gap = None
    if 0 < rank < len(sing):
        tail = float(sing[rank])
        gap = float(sing[rank - 1]) / tail if tail > 0 else float("inf")
    kernel_rows = vh[rank:]
    vectors = tuple(CoefVector.from_array(row, d=d) for row in kernel_rows)
    norm = float(np.max(np.abs(arr))) if arr.size else 0.0
    for v in vectors:
        resid = float(np.max(np.abs(arr @ v.as_array()))) if arr.size else 0.0
        if resid > 1e-9 * max(1.0, norm):
            raise RankIndeterminate(
                "kernel vector residual exceeds tolerance",
                gap=gap,
                singular_values=tuple(float(x) for x in sing),
            )
    return KernelBasis(rank, ncols - rank, vectors, tuple(float(x) for x in sing), gap, False)
