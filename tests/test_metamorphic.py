"""Metamorphic verdict tests: maps of the polynomial and its pattern that
preserve the verdicts.

Each map is, up to a scalar factor, an isometry of L1 of the circle from
one lacunary class onto another, and keeps Gaussian rationals exact:

* c p, for a nonzero scalar c (a double scales at its exact value);
* p(iz) and conj(p(conj z)), on the same pattern;
* p* = z^N conj(p(1/conj z)), onto N - Lambda;
* q(w) = p(w^k), onto k Lambda, for k = 2 and 5: each zero of p splits
  into k, so m and mu scale by k.

Every map keeps ``extreme``, ``exposed``, ``dim_plus`` and the kinds of the
witnesses, which every image builds and validates, and m and mu (up to the
scaling by k).
"""

from fractions import Fraction

import pytest

from conftest import EXAMPLES
from lacuna import (
    ComplexPoly,
    GaussianRational,
    LacunaryPattern,
    classify,
    conjugate_reciprocal,
    parse_poly,
)


def _inputs():
    """The worked examples and (1 +- z^k)^j, k <= 2 and 2 <= j <= 4, on the
    full pattern and, for k = 2, with the odd exponents forbidden."""
    for name, (text, pattern) in EXAMPLES.items():
        yield pytest.param(text, pattern, id=name)
    for k in (1, 2):
        for j in (2, 3, 4):
            for sym in "+-":
                text, N = f"(1 {sym} z^{k})^{j}", k * j
                yield pytest.param(text, LacunaryPattern(N), id=f"{text} on {N}")
                if k > 1:
                    gaps = [e for e in range(1, N) if e % k]
                    yield pytest.param(text, LacunaryPattern(N, gaps), id=f"{text} on {N}:odd")


def _scaled(c):
    return lambda p, pat: (p * c, pat, 1)


def _rotated(p, pat):
    powers = [GaussianRational(*xy) for xy in ((1, 0), (0, 1), (-1, 0), (0, -1))]
    return ComplexPoly([c * powers[k % 4] for k, c in enumerate(p.coeffs)]), pat, 1


def _conjugated(p, pat):
    return ComplexPoly([c.conjugate() for c in p.coeffs]), pat, 1


def _reflected(p, pat):
    forbidden = sorted(pat.N - k for k in pat.forbidden)
    return conjugate_reciprocal(p, pat.N), LacunaryPattern(pat.N, forbidden), 1


def _dilated(k):
    def move(p, pat):
        q = ComplexPoly([x for c in p.coeffs for x in (c, *[0] * (k - 1))])
        forbidden = sorted({k * e for e in pat.forbidden} | {e for e in range(1, k * pat.N) if e % k})
        return q, LacunaryPattern(k * pat.N, forbidden), k

    return move


MAPS = {
    "0.7 p": _scaled(0.7),
    "p / 3": _scaled(Fraction(1, 3)),
    "(2 + i) p": _scaled(GaussianRational(2, 1)),
    "p(iz)": _rotated,
    "conj p(conj z)": _conjugated,
    "p* on N - Lambda": _reflected,
    "p(w^2) on 2 Lambda": _dilated(2),
    "p(w^5) on 5 Lambda": _dilated(5),
}


def _signature(rep):
    kinds = sorted(w.kind for w in rep.witnesses)
    return rep.extreme, rep.exposed, rep.dim_plus, rep.canonical.m, rep.tilde.mu, kinds


@pytest.mark.parametrize("text,pattern", _inputs())
def test_verdicts_are_invariant_under_the_class_isometries(text, pattern):
    p = parse_poly(text)
    extreme, exposed, dim_plus, m, mu, kinds = _signature(classify(p, pattern))
    for name, move in MAPS.items():
        q, qpat, k = move(p, pattern)
        assert _signature(classify(q, qpat)) == (extreme, exposed, dim_plus, k * m, k * mu, kinds), name
