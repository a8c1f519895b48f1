"""Fuzz of ``classify`` over four families of products with shared zeros.

Usage::

    python3 tools/fuzz_classify.py SEED COUNT

Draws COUNT inputs from ``random.Random(SEED)`` and classifies each with the
default options of the ``lacuna`` tree this script sits in.  One draw, in
this order:

* a family by ``choice`` over ``FAMILIES``, in their listed order;
* f with ``randint(1, 5)`` Gaussian-integer coefficients, each as
  ``randint(-3, 3)`` for the real part and then the imaginary part (f = 1
  when all are zero);
* the family's factor:

  - ``pair``: (z - a)(1 - conj(a) z), squared when ``random() < 0.5``,
    with a = (x + iy)/den, x and y by ``randint(-4, 4)`` and den by
    ``choice`` over 5, 7, 10 and 10^6;
  - ``circle``: (1 + eps z^k)^j, eps by ``choice`` over 1, -1 and i, then
    k = ``randint(1, 4)`` and j = ``randint(1, 4)``;
  - ``wide``: (z + e)(1 + e z), e by ``choice`` over 10^20, 10^-20, 10^50;
  - ``mixed``: one of ``MIXED`` by ``choice``, to a power ``randint(1, 3)``;

* N = deg p + ``randint(0, 2)``;
* each vanishing interior coefficient k = 1..N-1 of p, in order, is
  forbidden when ``random() < 0.7``.

p is built as text, each factor in its own parentheses (``(1 - z)^2^2``
does not parse, and ``1/10^20z`` would be ambiguous), and read by
``parse_poly``.  The script prints the count of each (family, verdict)
pair, the verdict as ``extreme=<..> exposed=<..>`` or the class of the
exception raised, then, for each exception class, its first input and
message, and last the number of non-extreme witnesses whose chord step is
not certified again: with s the canonical factor's symbol, v the witness
vector and t its step, tau_s + t tau_v or tau_s - t tau_v is not plus.
"""

from __future__ import annotations

import collections
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lacuna import CoefVector, LacunaryPattern, classify, is_plus, parse_poly, real_symbol_on_circle  # noqa: E402

FAMILIES = ("pair", "circle", "wide", "mixed")
MIXED = ("1 - z + z^2", "1 + z^2", "(1 - z)^2", "z^4 - 3z^2 + 1", "1 - z^3", "z - 1/3")


def _gaussian(x: int, y: int) -> str:
    return f"({x}{y:+d}i)"


def _factor(rng: random.Random, family: str) -> str:
    if family == "pair":
        x, y = rng.randint(-4, 4), rng.randint(-4, 4)
        den = rng.choice(("5", "7", "10", "10^6"))
        pair = f"(z - ({_gaussian(x, y)}/{den}))*(1 - ({_gaussian(x, -y)}/{den})*z)"
        return f"({pair})^2" if rng.random() < 0.5 else f"({pair})"
    if family == "circle":
        eps = rng.choice(("1", "-1", "i"))
        k, j = rng.randint(1, 4), rng.randint(1, 4)
        return f"(1 + ({eps})*z^{k})^{j}"
    if family == "wide":
        e = rng.choice(("10^20", "1/10^20", "10^50"))
        return f"(z + ({e}))*(1 + ({e})*z)"
    return f"({rng.choice(MIXED)})^{rng.randint(1, 3)}"


def draws(seed: int):
    """The fuzz inputs (family, text, pattern) of ``seed``, in draw order,
    without end."""
    rng = random.Random(seed)
    while True:
        family = rng.choice(FAMILIES)
        coeffs = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))]
        terms = [f"{_gaussian(x, y)}*z^{k}" for k, (x, y) in enumerate(coeffs) if x or y]
        text = f"({' + '.join(terms) or '1'})*{_factor(rng, family)}"
        p = parse_poly(text)
        N = p.deg + rng.randint(0, 2)
        forbidden = [k for k in range(1, N) if not p.coefficient(k) and rng.random() < 0.7]
        yield family, text, LacunaryPattern(N, forbidden)


def outcomes(seed: int, count: int):
    """(family, text, pattern, report or the exception raised) of the first
    ``count`` draws of ``seed``."""
    inputs = draws(seed)
    for _ in range(count):
        family, text, pattern = next(inputs)
        try:
            yield family, text, pattern, classify(text, pattern)
        except Exception as exc:  # the fuzz reports what the classifier raises
            yield family, text, pattern, exc


def uncertified_steps(rep) -> int:
    """How many non-extreme witnesses of ``rep`` have a chord step that
    ``is_plus`` does not certify on both sides."""
    s = real_symbol_on_circle(rep.canonical.disk_factor, rep.canonical.m)
    failed = 0
    for w in rep.witnesses:
        if w.kind == "non_extreme":
            ends = [[x + sign * w.step * y for x, y in zip(s.entries, w.vector.entries)] for sign in (1, -1)]
            failed += not all(is_plus(CoefVector.from_array(e)) for e in ends)
    return failed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/fuzz_classify.py SEED COUNT", file=sys.stderr)
        return 1
    seed, count = int(argv[0]), int(argv[1])
    tally: collections.Counter = collections.Counter()
    first: dict[str, str] = {}
    uncertified = 0
    for family, text, pattern, out in outcomes(seed, count):
        if isinstance(out, Exception):
            label = type(out).__name__
            forbidden = ",".join(map(str, pattern.forbidden))
            first.setdefault(label, f"{text} on {pattern.N}{':' * bool(forbidden)}{forbidden}: {out}")
        else:
            label = f"extreme={out.extreme} exposed={out.exposed}"
            uncertified += uncertified_steps(out)
        tally[family, label] += 1
    print(f"seed {seed}: {count} draws")
    for (family, label), n in sorted(tally.items()):
        print(f"{family} {label}: {n}")
    for label, line in sorted(first.items()):
        print(f"first {label}: {line}")
    print(f"uncertified steps: {uncertified}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
