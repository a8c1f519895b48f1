import numpy as np
import pytest
from hypothesis import settings

from lacuna import LacunaryPattern, parse_poly


def long_division(num, den) -> tuple[list, list]:
    """Quotient and remainder of num / den over ascending coefficient lists,
    the reference for ``poly_core._pseudo_divide``.

    Generic in the scalar type (``Fraction``, ``GaussianRational``,
    ``complex``); zero is tested by truthiness.  ``den`` must end in a nonzero
    coefficient.  Trailing zeros are stripped from the remainder, so an empty
    remainder means the division is exact.
    """
    rem = list(num)
    n = len(den) - 1
    lead = den[-1]
    quot = []
    for k in range(len(rem) - n - 1, -1, -1):
        c = rem[k + n] / lead
        quot.append(c)
        if c:
            for j, dj in enumerate(den):
                rem[k + j] = rem[k + j] - c * dj
    quot.reverse()
    del rem[n:]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def eval_many(p, zs) -> np.ndarray:
    """p at the points zs, by ``np.polyval`` on p's float coefficients."""
    return np.polyval(p.float_coeffs()[::-1], np.asarray(zs, dtype=complex))


settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


# The four worked examples; everything about them is pinned by oracles in the
# individual test modules, the fixtures only centralize the inputs.

EXAMPLES = {
    "pair_and_gap": ("(z - 1/2)(2 - z)(1 + z^4)", LacunaryPattern(6, [3])),
    "clean_gap": ("(z - 1/2)(8 - z^3)", LacunaryPattern(4, [2])),
    "double_circle": ("(1 - z^2)^2", LacunaryPattern(4, [1, 3])),
    "single_double_zero": ("2 - 3z + z^3", LacunaryPattern(3, [2])),
}


@pytest.fixture(scope="session")
def examples():
    return {
        name: (parse_poly(expr), pat) for name, (expr, pat) in EXAMPLES.items()
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
