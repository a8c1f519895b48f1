"""Seeded benchmark inputs with expectations known by construction.

A case is one CLI-sized job: an input the program parses, a pattern and the
verdicts the benchmark expects.  The program only ever sees the input text,
never the seed.

Families and why their expected verdicts hold:

* ``generic``: random Gaussian-integer coefficients.  Draws are kept only if
  their roots (numpy, independent of the program) are pairwise separated,
  away from the circle and contain no pair a, 1/conj(a).  Then no zero is
  shared with the conjugate reciprocal and no circle zero is multiple, so p
  is extreme and exposed for every pattern.
* ``planted``: (w z - alpha)(w - conj(alpha) z) r with |alpha/w| < 1 and a
  generic r, on the full pattern.  The planted pair is a shared disk zero
  (m = 1) and the full pattern has no forbidden rows, so p is neither
  extreme nor exposed, and both witness kinds are built.
* ``circle`` / ``circle_gap``: (1 + s z^k)^j.  Its zeros are k simple
  points of the circle, each of multiplicity j >= 2, and no disk zeros:
  extreme, not exposed (the full-space criterion).  With every exponent
  that is not a multiple of k forbidden, q(w) -> q(w^k) is a linear
  isometry of L1 from polynomials of degree j onto the pattern's space, so
  the gapped case has the verdicts of (1 + s w)^j on the full pattern.
* ``corpus``: the repository's ``corpus/`` jobs, each with its own expect.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import numpy as np

COEFF_RANGE = 9
# root separation demanded of generic draws: between roots, between a root
# and a reflected root, and from the unit circle
_SEPARATION = 1e-4
_CIRCLE_GAP = 1e-6


@dataclasses.dataclass(frozen=True)
class Case:
    id: str
    family: str
    kind: str  # "classify" | "plusdim"
    source: object  # parse_poly text or plusdim file
    N: int = 0
    forbidden: tuple[int, ...] = ()
    options: tuple[tuple[str, object], ...] = ()
    expect: dict | None = None


# ---------------------------------------------------------------------------
# polynomial helpers on plain complex coefficient lists (ascending powers)
# ---------------------------------------------------------------------------


def _mul(a: list[complex], b: list[complex]) -> list[complex]:
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _roots(coeffs: list[complex]) -> np.ndarray:
    return np.roots(np.array(coeffs[::-1], dtype=complex))


def _well_separated(roots: np.ndarray, planted: tuple[complex, complex] | None = None) -> bool:
    """True if the roots are distinct, off the circle and free of reflected
    pairs, except for the one pair ``planted`` (a, 1/conj(a))."""
    if np.any(np.abs(np.abs(roots) - 1.0) <= _CIRCLE_GAP):
        return False
    n = len(roots)
    diff = np.abs(roots[:, None] - roots[None, :]) + np.eye(n)
    if np.any(diff <= _SEPARATION):
        return False
    reflected = 1.0 / np.conj(roots)
    cross = np.abs(roots[:, None] - reflected[None, :]) / np.maximum(1.0, np.abs(reflected))
    close = cross <= _SEPARATION
    if planted is None:
        return not np.any(close)
    a, b = planted
    ia = int(np.argmin(np.abs(roots - a)))
    ib = int(np.argmin(np.abs(roots - b)))
    close[ia, ib] = close[ib, ia] = False
    return not np.any(close)


def _gaussian_int(rng: random.Random, nonzero: bool = False) -> complex:
    while True:
        c = complex(rng.randint(-COEFF_RANGE, COEFF_RANGE), rng.randint(-COEFF_RANGE, COEFF_RANGE))
        if c or not nonzero:
            return c


def generic_coeffs(rng: random.Random, d: int, forbidden: tuple[int, ...]) -> list[complex]:
    """Random Gaussian-integer coefficients of degree d vanishing on forbidden."""
    gaps = set(forbidden)
    while True:
        cs = [0j if k in gaps else _gaussian_int(rng, nonzero=k in (0, d)) for k in range(d + 1)]
        if _well_separated(_roots(cs)):
            return cs


def planted_pair(rng: random.Random, d: int) -> tuple[list[complex], str]:
    """Coefficients and expression of (w z - alpha)(w - conj(alpha) z) r, deg d."""
    while True:
        w = rng.randint(2, 5)
        u, v = rng.randint(-w, w), rng.randint(-w, w)
        if (u, v) == (0, 0) or u * u + v * v > (0.8 * w) ** 2:
            continue
        alpha = complex(u, v)
        r = [_gaussian_int(rng, nonzero=k in (0, d - 2)) for k in range(d - 1)]
        cs = _mul(_mul([-alpha, w], [w, -alpha.conjugate()]), r)
        a = alpha / w
        if _well_separated(_roots(cs), planted=(a, 1.0 / a.conjugate())):
            text = (
                f"({w}z - ({_gi(alpha)}))({w} - ({_gi(alpha.conjugate())})z)"
                f"({_expr(r)})"
            )
            return cs, text


def _gi(c: complex) -> str:
    return f"{int(c.real)}{int(c.imag):+d}i"


def _expr(cs: list[complex]) -> str:
    return " + ".join(f"({_gi(c)})z^{k}" for k, c in enumerate(cs) if c)


def _exact_text(cs: list[complex]) -> str:
    return json.dumps([[int(c.real), int(c.imag)] for c in cs], separators=(",", ":"))


def every_third(d: int) -> tuple[int, ...]:
    return tuple(range(3, d, 3))


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------

YES_YES = {"extreme": True, "exposed": True, "witness_kinds": []}
NO_NO = {"extreme": False, "exposed": False, "witness_kinds": ["non_exposed", "non_extreme"]}
YES_NO = {"extreme": True, "exposed": False, "witness_kinds": ["non_exposed"]}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# (degree, copies) of the random cases.  The copies put the median and the 80th
# percentile of case time inside one degree's stratum, so they do not jump
# between strata from run to run.  Degrees stop at 24: a single 4-5 s case
# of degree 32 would set the run-to-run spread.
EXACT_GENERIC = {
    "generic": ((8, 7), (12, 7), (16, 14), (20, 8), (24, 2)),
    "planted": ((8, 3), (12, 3), (16, 4), (20, 2)),
}


def _random_cases(rng: random.Random, plan: dict) -> list[Case]:
    out = []
    for d, copies in plan["generic"]:
        forb = every_third(d)
        for i in range(copies):
            src = _exact_text(generic_coeffs(rng, d, forb))
            out.append(Case(f"generic-d{d}-{i}", "generic", "classify", src, d, forb, expect=YES_YES))
    for d, copies in plan["planted"]:
        for i in range(copies):
            _, text = planted_pair(rng, d)
            out.append(Case(f"planted-d{d}-{i}", "planted", "classify", text, d, (), expect=NO_NO))
    return out


def circle_family() -> list[tuple[int, int, Case]]:
    """(k, j, case) for (1 +- z^k)^j, k = 1..3, j = 2..6, on the full pattern
    and, for k >= 2, with every exponent that is not a multiple of k forbidden."""
    out = []
    for k in (1, 2, 3):
        for j in range(2, 7):
            for sym in "+-":
                N = k * j
                text = f"(1 {sym} z^{k})^{j}" if k > 1 else f"(1 {sym} z)^{j}"
                out.append((k, j, Case(f"circle-{text}", "circle", "classify", text, N, (), expect=YES_NO)))
                if k >= 2:
                    forb = tuple(e for e in range(1, N) if e % k)
                    out.append((k, j, Case(f"circle_gap-{text}", "circle_gap", "classify", text, N, forb,
                                           expect=YES_NO)))
    return out


def corpus_cases(root: Path) -> list[Case]:
    out = []
    for path in sorted(root.glob("*.json")):
        data = json.loads(path.read_text())
        name = f"corpus-{data.get('name', path.stem)}"
        expect = data.get("expect", {})
        if "basis" in data:
            out.append(Case(name, "corpus", "plusdim", data, expect=expect))
            continue
        raw = data["input"]
        text = raw if isinstance(raw, str) else json.dumps(raw)
        pat = data["pattern"]
        opts = tuple(sorted({"mode": "auto", **data.get("options", {})}.items()))
        out.append(
            Case(name, "corpus", "classify", text, int(pat["N"]), tuple(pat.get("forbidden", ())), opts, expect)
        )
    return out


WORKLOADS = ("exact_generic", "exact_circle")


def _exact_circle_split(corpus_dir: Path) -> tuple[list[Case], list[Case]]:
    """The family and corpus, minus the SolverStalled cases of the census,
    (1 +- z^3)^4 and (1 +- z^3)^5 with gaps, and minus (1 +- z^3)^6.  The
    four cases of (1 +- z^3)^6 take 2.2-2.8 s each, 40% of the rest
    together, and every case runs at least twice in a run."""
    cases: list[Case] = []
    census: list[Case] = []
    for k, j, c in circle_family():
        if c.family == "circle_gap" and k == 3 and j in (4, 5):
            census.append(c)
        elif (k, j) != (3, 6):
            cases.append(c)
    return cases + corpus_cases(corpus_dir), census


def _check_workload(workload: str) -> None:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def make_cases(workload: str, seed: int, corpus_dir: Path) -> list[Case]:
    """The workload's timed cases, in a seeded order.  Every seed gives the
    same mix; random inputs are fresh for each seed."""
    _check_workload(workload)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact_generic":
        cases = _random_cases(rng, EXACT_GENERIC)
    else:
        cases = _exact_circle_split(corpus_dir)[0]
    rng.shuffle(cases)
    return cases


def make_census(workload: str, corpus_dir: Path) -> list[Case]:
    """The workload's inputs that hit open defects of the program.

    A traced run executes its census once, after the timed cases, and reports
    the outcomes as counts, so the defects show without failing operations
    in the timed workload.
    """
    _check_workload(workload)
    if workload == "exact_circle":
        return _exact_circle_split(corpus_dir)[1]
    return []
