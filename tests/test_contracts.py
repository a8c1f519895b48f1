"""Scaling contracts: upper bounds on the work ``classify`` does, not on time.

A work count is deterministic where a wall clock on a shared machine is not.
Each counter wraps a function of ``lacuna`` at every module name that binds
it, as perfbench's tracer does, and each bound is an upper bound, so a change
that does less work passes.
"""

import random
import sys
from pathlib import Path

import pytest

from lacuna import ComplexPoly, LacunaryPattern, classify, parse_poly
from lacuna import circle_analysis, classifier, factorization, plus_cone, poly_core

ROOT = Path(__file__).resolve().parent.parent
# the norm's panels on the dense input below, where the bound was set
PANELS_1024 = 2350
# the norm's panels on the sparse four-term inputs below, by degree, where
# the bounds were set
PANELS_SPARSE = {1024: 1834, 2048: 3668}


def _wrap(monkeypatch, module, name: str, make):
    """Replace ``module.name`` by ``make(original)`` at every name a lacuna
    module binds it to."""
    original = getattr(module, name)
    wrapper = make(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "lacuna" or mod_name.startswith("lacuna."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)


def _chains_under(monkeypatch, module, caller: str) -> list[int]:
    """The degrees of the Sturm chains built while ``module.caller`` is on
    the call stack, appended as they are built."""
    depth, degrees = [0], []

    def chain(original):
        def counted(P):
            if depth[0]:
                degrees.append(len(P) - 1)
            return original(P)

        return counted

    def outer(original):
        def counted(v):
            depth[0] += 1
            try:
                return original(v)
            finally:
                depth[0] -= 1

        return counted

    _wrap(monkeypatch, poly_core, "_sturm_chain", chain)
    _wrap(monkeypatch, module, caller, outer)
    return degrees


def _companion_solves(monkeypatch) -> list[int]:
    """The degrees of the companion-matrix root solves, in call order."""
    degrees = []

    def counted(original):
        def solve(p, name):
            degrees.append(p.deg)
            return original(p, name)

        return solve

    _wrap(monkeypatch, circle_analysis, "_float_roots", counted)
    return degrees


def _calls(monkeypatch, module, name: str, caller: str | None = None) -> list[str]:
    """The callers' names of the calls of ``module.name``, appended as they are
    made; with ``caller``, only the calls made directly by a function of that
    name."""
    names = []

    def counted(original):
        def call(*args):
            who = sys._getframe(1).f_code.co_name
            if caller in (None, who):
                names.append(who)
            return original(*args)

        return call

    _wrap(monkeypatch, module, name, counted)
    return names


@pytest.mark.parametrize("k", [1, 6, 24, 48])
def test_the_plus_certificate_of_a_dilated_input_works_at_the_reduced_degree(monkeypatch, k):
    # q(w) -> q(w^k) maps P(Lambda) isometrically onto P(k Lambda), so q(z^k)
    # has q's verdicts, and every cone question can be asked of q's degree
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from ab_cases import LACUNARY_Q

    p = parse_poly(LACUNARY_Q.replace("w", f"(z^{k})"))
    degrees = _chains_under(monkeypatch, plus_cone, "certify_nonneg_exact")
    rep = classify(p, LacunaryPattern(p.deg, tuple(e for e in range(1, p.deg) if e % k)))
    assert (rep.extreme, rep.exposed, rep.dim_plus) == (False, False, 5)
    assert degrees and max(degrees) <= 4  # the largest chain at k = 1


@pytest.mark.parametrize("degree", [96, 192])
def test_a_planted_pair_solves_at_most_two_companions_of_its_degree(monkeypatch, degree):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.cases import planted_pair

    _, text = planted_pair(random.Random(1), degree)
    p = parse_poly(text)
    solves = _companion_solves(monkeypatch)
    rep = classify(p, LacunaryPattern(p.deg))
    assert (rep.extreme, rep.exposed) == (False, False)
    assert len(solves) <= 2 and max(solves, default=0) <= degree


def test_the_norm_of_a_dense_input_of_degree_1024_needs_at_most_its_panels():
    rng = random.Random(1)
    coeffs = [complex(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(1024)] + [1 + 1j]
    rep = classify(ComplexPoly(coeffs), LacunaryPattern(1024))
    assert rep.extreme and rep.exposed
    assert rep.diagnostics["norm_panels"] <= PANELS_1024


@pytest.mark.parametrize("N", sorted(PANELS_SPARSE))
def test_the_norm_of_a_sparse_four_term_input_needs_at_most_its_panels(N):
    # 1 + 1i leads; the constant and two interior terms at random exponents,
    # on the pattern that forbids every exponent off the support
    rng = random.Random(1)
    interior = sorted(rng.sample(range(1, N), 2))
    coeffs = [0j] * N + [1 + 1j]
    coeffs[0] = complex(rng.randint(-9, 9) or 1, rng.randint(-9, 9))
    for e in interior:
        coeffs[e] = complex(rng.randint(-9, 9), rng.randint(-9, 9))
    rep = classify(ComplexPoly(coeffs), LacunaryPattern(N, tuple(e for e in range(1, N) if e not in interior)))
    assert rep.extreme and rep.exposed
    assert rep.diagnostics["norm_panels"] <= PANELS_SPARSE[N]


@pytest.mark.parametrize(
    "text,N,forbidden",
    [
        ("(1 + z^48)^2", 96, ()),
        ("(1 + z^3)^4", 12, ()),
        ("(1 + i z)^3", 3, ()),
        ("(1 - z^2)^5", 10, (1, 3, 5, 7, 9)),
    ],
)
def test_a_circle_part_dividing_z_n_minus_1_is_read_without_a_count_or_a_solve(monkeypatch, text, N, forbidden):
    # each Yun part of gcd(p, p*) is monic over Z[i] and divides z^n - 1, so
    # its zeros are n-th roots of unity: no Sturm count, no companion solve
    chains = _chains_under(monkeypatch, factorization, "_circle_count")
    solves = _companion_solves(monkeypatch)
    rep = classify(parse_poly(text), LacunaryPattern(N, forbidden))
    assert rep.canonical.zero_clusters
    assert (chains, solves) == ([], [])


def test_a_mixed_circle_part_keeps_its_count_and_its_solves(monkeypatch):
    # the part (z - 1/2)(z - 2)(1 + z^3) has coefficients of 1/2: its three
    # circle zeros are counted (a chain of degree 4), their product checked
    # (one of degree 2), and the part, p and p* are solved (of degree 5)
    chains = _chains_under(monkeypatch, factorization, "_circle_count")
    solves = _companion_solves(monkeypatch)
    rep = classify(parse_poly("(z - 1/2)(1 - z/2)(1 + z^3)"), LacunaryPattern(5))
    assert rep.canonical.m == 1 and len(rep.canonical.zero_clusters) == 3
    assert len(chains) <= 2 and max(chains, default=0) <= 4
    assert len(solves) <= 3 and max(solves, default=0) <= 5


@pytest.mark.parametrize(
    "text,N,forbidden",
    [
        ("(1 + z^3)^6", 18, ()),
        ("(1 - z^2)^5", 10, (1, 3, 5, 7, 9)),
        ("(1 + i z)^3", 3, ()),
        ("(1 + z^48)^2", 96, ()),
    ],
)
def test_a_power_of_one_circle_part_takes_two_gcds_and_one_division(monkeypatch, text, N, forbidden):
    # g = gcd(p, p*) is f^j for one part f on the circle: Yun's first gcd(g, g')
    # leaves d = (j - 1) c', its last part, and G = 1 needs no division, so
    # only the cofactor p / G is divided; the seed, which the cone search
    # hands back first, is no witness candidate
    gcds = _calls(monkeypatch, poly_core, "gcd_exact")
    divisions = _calls(monkeypatch, poly_core, "divide_exact", caller="canonical_factorization")
    candidates = _calls(monkeypatch, classifier, "symbol_to_poly", caller="make_non_exposed_witness")
    rep = classify(parse_poly(text), LacunaryPattern(N, forbidden))
    assert (rep.extreme, rep.exposed) == (True, False)
    assert len(gcds) <= 2
    assert len(divisions) <= 1
    assert len(candidates) <= 1
