"""End-to-end classification: extreme and exposed points of the unit ball.

A unit-norm polynomial supported on a lacunary exponent set is *extreme*
exactly when its constraint matrix has rank twice the shared-disk-zero
count, and *exposed* exactly when the kernel of the tilde matrix meets the
nonnegativity cone in a one-dimensional set.  Both criteria are decided
here, with cheap structural shortcuts recorded in the report:

* fewer forbidden exponents than shared disk zeros forces non-extreme;
* no multiple circle zeros collapses exposed to extreme;
* a full-rank tilde matrix is already sufficient for exposed.

Every negative verdict ships a constructive witness.  Non-extreme: a
perturbation q in the same lacunary class with q/p real, bounded and
nonconstant on the circle.  Extreme-but-not-exposed: a q with q/p
additionally nonnegative, so any functional supporting p also supports
p + t q.  A non-extreme witness is the first accepted vector of the plain
kernel; a non-exposed one is the first accepted of the certified plus
vectors that ``plus_dimension`` returns for the tilde kernel.  That cone
search runs on every verdict but the two exposed shortcuts, so ``dim_plus``
is reported there.  Every check on a
witness is exact: spectrum membership, a real symbol for the factor,
nonconstancy, and for a non-exposed witness a nonnegativity certificate.
Validation failure is an error, never a silent downgrade.  A non-extreme
witness carries the exact step t of ``chord_step``: with s the factor's
symbol and v the witness vector, tau_s +- t tau_v are certified
nonnegative, so p +- t q stay in p's face and p is their midpoint.  A non-exposed witness is a ray, p + t q for every t >= 0, and
carries no step.

A missing pattern is an error: callers pass ``infer_pattern(p)``, the
largest pattern consistent with p, as ``classify --infer-pattern`` does.

Every verdict is decided on exact coefficients: a double in the input is
read at its exact value where it enters, the factors are exact and so are
the ranks, the canonical vector's kernel membership and the cone dimension.
Only ``exposed`` can be left ``None``, when ``plus_dimension`` cannot
complete its certificate (a face that must vanish at an irrational circle
point); callers see why in ``diagnostics`` and the CLI maps that state to
its own exit code.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .circle_analysis import l1_norm
from .errors import (
    IllConditionedZeros,
    SolverStalled,
    SpectrumViolation,
    WitnessValidationFailed,
)
from .factorization import (
    CanonicalData,
    TildeData,
    canonical_factorization,
    real_symbol_on_circle,
    tilde_factorization,
)
from .matrix_builder import BlockMatrix, KernelBasis, build_matrix, rank_and_kernel
from .plus_cone import CoefVector, chord_step, plus_dimension
from .poly_core import (
    ComplexPoly,
    GaussianRational,
    LacunaryPattern,
    parse_poly,
    spectrum,
    spectrum_in,
)


@dataclasses.dataclass
class ClassifyOptions:
    mode: str = "auto"  # auto | exact, one exact path; the benchmark harness sets it


@dataclasses.dataclass(frozen=True)
class Witness:
    kind: str  # "non_extreme" | "non_exposed"
    vector: CoefVector
    perturbation: ComplexPoly
    spectrum: tuple[int, ...]
    step: Fraction | None  # p +- step q is a chord of p's face; None on a ray


@dataclasses.dataclass
class ClassificationReport:
    pattern: LacunaryPattern
    polynomial: ComplexPoly
    norm: float
    norm_error_bound: float
    scale: float
    canonical: CanonicalData
    tilde: TildeData
    matrix: BlockMatrix
    matrix_tilde: BlockMatrix
    kernel: KernelBasis
    kernel_tilde: KernelBasis
    diagnostics: dict
    # set by the later stages of ``classify``
    dim_plus: int | None = None
    extreme: bool | None = None
    exposed: bool | None = None
    fast_path_extreme: str = "rank"
    fast_path_exposed: str = ""
    witnesses: tuple[Witness, ...] = ()

    @property
    def undecided(self) -> bool:
        return self.extreme is None or self.exposed is None


# ---------------------------------------------------------------------------
# pattern handling
# ---------------------------------------------------------------------------


def infer_pattern(p: ComplexPoly) -> LacunaryPattern:
    """Largest pattern consistent with p: every vanishing interior coefficient
    is treated as forbidden."""
    if p.deg < 1:
        raise ValueError("need degree at least 1 to infer a pattern")
    support = set(spectrum(p))
    forbidden = [k for k in range(1, p.deg) if k not in support]
    return LacunaryPattern(p.deg, forbidden)


# ---------------------------------------------------------------------------
# witness machinery
# ---------------------------------------------------------------------------


def symbol_to_poly(v: CoefVector, half_degree: int) -> ComplexPoly:
    """The polynomial z^h * tau_v(z) whose circle values are e^{iht} tau_v(t);
    its Gaussian-rational coefficients are Hermitian-symmetric about h."""
    h = half_degree
    if v.d > h:
        raise ValueError("vector degree exceeds the requested half degree")
    coeffs = [GaussianRational(0)] * (h + v.d + 1)
    coeffs[h] = GaussianRational(2 * v.alpha[0])
    for l in range(1, v.d + 1):
        g = GaussianRational(v.alpha[l], v.beta[l - 1])
        coeffs[h + l] = g
        coeffs[h - l] = g.conjugate()
    return ComplexPoly(coeffs)


def _multiple_of(v: CoefVector, seed: CoefVector) -> bool:
    """True when v = c * seed for a rational c; seed is nonzero."""
    i = next(i for i, x in enumerate(seed.entries) if x)
    c = Fraction(v.entries[i]) / Fraction(seed.entries[i])
    return all(x == c * s for x, s in zip(v.entries, seed.entries, strict=True))


def _validated_witness(
    kind: str, v: CoefVector, Q: ComplexPoly, cofactor: ComplexPoly, seed: CoefVector, pattern: LacunaryPattern,
) -> Witness | None:
    """The witness q = Q * cofactor for Q = z^h tau_v, or None if a check fails.

    Every check is exact.  Q / factor is nonconstant: v is not a rational
    multiple of the seed (tested first, since the cone search returns the
    seed first).  q is nonzero and inside the pattern.  Q / factor is real on
    the circle: Q is Hermitian-symmetric about h, and so is the factor, whose
    symbol is the seed.  A non-exposed candidate is also nonnegative, since
    ``plus_dimension`` certifies each vector it returns.  A non-extreme
    witness gets its ``chord_step`` from the seed.
    """
    if _multiple_of(v, seed):
        return None
    q = Q * cofactor
    if q.is_zero() or not spectrum_in(q, pattern):
        return None
    step = chord_step(seed, v) if kind == "non_extreme" else None
    return Witness(kind, v, q, tuple(spectrum(q)), step)


def make_non_extreme_witness(
    canonical: CanonicalData,
    kernel: KernelBasis,
    seed: CoefVector,
    pattern: LacunaryPattern,
) -> Witness:
    """Perturbation q with q/p real and nonconstant, from a kernel vector.

    Candidates are taken in kernel order; a multiple of the canonical vector
    would only rescale p and is rejected.
    """
    for v in kernel.vectors:
        w = _validated_witness(
            "non_extreme", v, symbol_to_poly(v, canonical.m), canonical.cofactor, seed, pattern
        )
        if w is not None:
            return w
    raise WitnessValidationFailed("no kernel vector yielded a valid non-extreme perturbation")


def make_non_exposed_witness(
    tilde: TildeData,
    plus_vectors: list[CoefVector],
    seed_tilde: CoefVector,
    pattern: LacunaryPattern,
) -> Witness:
    """Perturbation q with q/p real, *nonnegative* and nonconstant, from the
    first accepted of the exactly certified plus vectors of ``plus_dimension``
    on the tilde kernel.  The seed, which ``plus_dimension`` hands back first
    as this very object, would only rescale p: it is skipped before its
    polynomial is built."""
    for v in plus_vectors:
        if v is seed_tilde:
            continue
        w = _validated_witness(
            "non_exposed", v, symbol_to_poly(v, tilde.m_tilde), tilde.reduced_cofactor, seed_tilde, pattern
        )
        if w is not None:
            return w
    raise WitnessValidationFailed("no kernel vector yielded a valid non-exposed perturbation")


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------


def classify(
    p,
    pattern: LacunaryPattern | None = None,
    options: ClassifyOptions | None = None,
) -> ClassificationReport:
    """Classify p as an extreme / exposed point of the unit ball of its class."""
    opt = options or ClassifyOptions()
    if opt.mode == "float":
        raise ValueError(
            "float mode is retired: it only rounded the input to doubles; "
            "give the rounded coefficients as coeffs_f"
        )
    if opt.mode not in ("auto", "exact"):
        raise ValueError(f"unknown mode {opt.mode!r}")
    if isinstance(p, str):
        p = parse_poly(p)
    if p.deg < 0:
        raise ValueError("the zero polynomial is not in the unit sphere")
    if pattern is None:
        raise ValueError("no pattern given; pass one, or infer_pattern(p)")
    if p.deg > pattern.N:
        raise SpectrumViolation(
            f"degree {p.deg} exceeds the pattern bound {pattern.N}"
        )
    if not spectrum_in(p, pattern):
        raise SpectrumViolation(
            "polynomial has energy at a forbidden exponent of the pattern"
        )

    canonical = canonical_factorization(p, pattern.N)
    norm_res = l1_norm(p, canonical.zero_clusters)
    tilde = tilde_factorization(canonical)
    forbidden = tuple(pattern.forbidden)
    # both factors are Hermitian by construction; one that is not raises
    matrix = build_matrix(canonical.cofactor, forbidden, canonical.m)
    seed = real_symbol_on_circle(canonical.disk_factor, canonical.m)
    kernel = rank_and_kernel(matrix)
    _check_seed_membership(matrix, seed, "plain")
    if tilde.mu:
        matrix_tilde = build_matrix(tilde.reduced_cofactor, forbidden, tilde.m_tilde)
        seed_tilde = real_symbol_on_circle(canonical.disk_factor * tilde.circle_factor, tilde.m_tilde)
        kernel_tilde = rank_and_kernel(matrix_tilde)
        _check_seed_membership(matrix_tilde, seed_tilde, "tilde")
    else:  # no circle zero is halved: the tilde level is the plain one
        matrix_tilde, kernel_tilde, seed_tilde = matrix, kernel, seed
    rep = ClassificationReport(
        pattern=pattern,
        polynomial=p,
        norm=norm_res.value,
        norm_error_bound=norm_res.abs_error_bound,
        scale=1.0 / norm_res.value,
        canonical=canonical,
        tilde=tilde,
        matrix=matrix,
        matrix_tilde=matrix_tilde,
        kernel=kernel,
        kernel_tilde=kernel_tilde,
        diagnostics={"norm_panels": norm_res.panels},
    )
    diagnostics = rep.diagnostics

    if pattern.M < canonical.m:  # 2M rows have rank < 2m: the rank test agrees
        rep.fast_path_extreme = "row_deficit"
    rep.extreme = rep.kernel.rank == 2 * canonical.m

    if not rep.extreme:
        rep.exposed = False
        rep.fast_path_exposed = "not_extreme"
    elif tilde.mu == 0:  # no multiple circle zero
        rep.exposed = True
        rep.fast_path_exposed = "simple_circle_zeros"
    elif rep.kernel_tilde.rank == 2 * tilde.m_tilde:
        rep.exposed = True
        rep.fast_path_exposed = "tilde_full_rank"
    else:
        rep.fast_path_exposed = "plus_dimension"

    # the cone dimension and the non-exposed witness's vectors, unless a
    # shortcut proved p exposed
    found_plus: list[CoefVector] = []
    if rep.exposed is not True:
        try:
            rep.dim_plus, found_plus = plus_dimension(
                rep.kernel_tilde.vectors, seed=seed_tilde
            )
        except SolverStalled as exc:
            diagnostics["undecided_reason"] = f"cone solver stalled: {exc}"
        else:
            if rep.exposed is None:
                rep.exposed = rep.dim_plus == 1

    if rep.extreme is False:
        rep.witnesses += (make_non_extreme_witness(canonical, rep.kernel, seed, pattern),)
    if rep.exposed is False:
        rep.witnesses += (make_non_exposed_witness(tilde, found_plus, seed_tilde, pattern),)
    return rep


def _check_seed_membership(mat: BlockMatrix, seed: CoefVector, label: str) -> None:
    """Raise unless the exact product of the matrix and the seed is zero."""
    entries = seed.entries
    if any(sum(a * s for a, s in zip(row, entries, strict=True) if a and s) for row in mat.rows):
        raise IllConditionedZeros(
            f"canonical vector fails the kernel equations of the {label} matrix; "
            "zero identification is inconsistent",
            diagnostics={"matrix": label},
        )


# ---------------------------------------------------------------------------
# the no-gap criterion by zero structure
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FullSpaceReport:
    extreme: bool
    exposed: bool
    shared_disk_multiplicity: int
    circle_multiplicities: tuple[int, ...]


def classify_full_space(p, N: int | None = None) -> FullSpaceReport:
    """Classification for the full exponent range 0..N, by zero structure only.

    With no forbidden exponents, extreme means no zero is shared with the
    conjugate-reciprocal inside the disk, and exposed additionally requires
    every circle zero to be simple (the matrices of ``classify`` then have
    no rows, so its rank test is m = 0).  Both counts are read off the exact
    ``canonical_factorization(p, N)``, so this route refuses exactly what
    ``classify`` refuses; it builds no matrix.
    """
    if isinstance(p, str):
        p = parse_poly(p)
    if p.deg < 0:
        raise ValueError("the zero polynomial is not in the unit sphere")
    if N is None:
        N = p.deg
    if p.deg > N:
        raise ValueError(f"degree {p.deg} exceeds N={N}")
    can = canonical_factorization(p, N)
    circle_mults = tuple(c.multiplicity for c in can.zero_clusters)
    extreme = can.m == 0
    exposed = extreme and all(lam <= 1 for lam in circle_mults)
    return FullSpaceReport(extreme, exposed, can.m, circle_mults)
