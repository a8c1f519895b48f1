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

The cofactor is exact, so every entry is rational.  A :class:`BlockMatrix`
is its rows and d; the exponents and the level (plain or tilde) are the
caller's.  The rank is decided by Gauss-Jordan elimination over the
rationals on the rows' nonzero entries, and the kernel basis is the unique
reduced echelon form.
"""

from __future__ import annotations

import dataclasses
import numpy as np

from .plus_cone import CoefVector, _dense, _sparse
from .poly_core import ComplexPoly, _rref_kernel


@dataclasses.dataclass(frozen=True)
class BlockMatrix:
    rows: tuple  # 2M tuples of length 2d+1, Fraction entries
    half_degree: int

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


def build_matrix(cofactor: ComplexPoly, forbidden, half_degree: int) -> BlockMatrix:
    """Constraint matrix straight from the cofactor's coefficients."""
    d = half_degree
    c = cofactor.coefficient
    # A+- and B+- are the parts of one sum or difference of two coefficients,
    # so each entry reads one part (a Fraction view) of one scalar; rows
    # [A+ B-] for every forbidden exponent, then rows [B+ -A-]
    top, bottom = [], []
    for kj in forbidden:
        plus = [c(kj + l - d) + c(kj - l - d) for l in range(d + 1)]
        minus = [c(kj + l - d) - c(kj - l - d) for l in range(1, d + 1)]
        top.append(tuple(x.real for x in plus) + tuple(x.imag for x in minus))
        bottom.append(tuple(x.imag for x in plus) + tuple(-x.real for x in minus))
    return BlockMatrix(tuple(top + bottom), half_degree)


# ---------------------------------------------------------------------------
# rank and kernel
# ---------------------------------------------------------------------------


def rank_and_kernel(mat: BlockMatrix) -> KernelBasis:
    """Rank of the constraint matrix and a basis of its kernel.

    Decided by Gauss-Jordan elimination over the rationals on the rows'
    nonzero entries; the kernel comes out in the unique reduced-echelon form
    (one vector per free column, in column order), and a matrix with no rows
    has the unit vectors as its kernel.
    """
    ncols = mat.shape[1]
    rank, kernel = _rref_kernel([_sparse(r) for r in mat.rows], ncols)
    vectors = tuple(CoefVector.from_array(_dense(v, ncols)) for v in kernel)
    return KernelBasis(rank, ncols - rank, vectors)
