"""Census of the cone stage on seeded inputs with a double circle zero.

Usage::

    python3 tools/cone_census.py SEED [COUNT] [BASES]

Draws COUNT inputs (default 200) from ``random.Random(SEED)`` and
classifies each with the default options of the ``lacuna`` tree this
script sits in.  BASES names a list of ``BASES``: ``standard`` (the
default), with double zeros at 1, -1 or -i, or ``cube``, with double zeros
at the primitive cube or sixth roots of unity, whose Cayley roots
tan(t/2) are irrational.  One draw, in this order:

* a base b by ``choice`` over the named bases, in their listed order;
* dq = ``randint(2, 4)``, then dq + 1 Gaussian integers q_0..q_dq, each as
  ``randint(-3, 3)`` for the real part and then the imaginary part, with a
  zero lead q_dq set to 1;
* n = deg b + dq, an interior exponent k = ``randint(1, n - 1)`` and an
  index j = ``randint(0, dq)``; q_j is solved so that coefficient k of b q
  vanishes, and the draw is skipped when b_{k-j} = 0;
* p = b q is kept only when deg p = n and p(0) != 0;
* N = ``choice([n, n + 1])``, and the pattern is N with {k} forbidden.

Every base has a double circle zero, so every kept p does, and each verdict
on exposedness is reached by one of the classifier's fast paths or by the
cone dimension.  The script prints the count of each (fast path, exposed)
pair (exposed ``None`` is undecided), the undecided count, the number of
witnesses (every witness vector is exact), and each exception raised, as
its class and message.
"""

from __future__ import annotations

import collections
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lacuna import ComplexPoly, GaussianRational, LacunaryPattern, classify, parse_poly  # noqa: E402
from lacuna.poly_core import format_poly  # noqa: E402

BASES = {
    "standard": ("(1-z)^2", "(1+z)^2", "(1-z^2)^2", "(1-z)^2(1+z)", "(1-z)^4", "(1-z)^2(1-iz)^2"),
    "cube": ("(1-z+z^2)^2", "(1+z+z^2)^2", "(1+z^2)(1+z+z^2)^2", "(1-z)^2(1+z+z^2)^2"),
}


def draws(seed: int, bases: tuple[str, ...]):
    """The census inputs (p, pattern) of ``seed`` on ``bases``, in draw
    order, without end."""
    rng = random.Random(seed)
    while True:
        b = parse_poly(rng.choice(bases))
        dq = rng.randint(2, 4)
        q = [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(dq + 1)]
        if not q[dq]:
            q[dq] = GaussianRational(1)
        n = b.deg + dq
        k, j = rng.randint(1, n - 1), rng.randint(0, dq)
        if not b.coefficient(k - j):
            continue
        rest = sum((b.coefficient(k - i) * q[i] for i in range(dq + 1) if i != j), GaussianRational(0))
        q[j] = -rest / b.coefficient(k - j)
        p = b * ComplexPoly(q)
        if p.deg != n or not p.coefficient(0):
            continue
        yield p, LacunaryPattern(rng.choice([n, n + 1]), [k])


def main(argv: list[str]) -> int:
    bases = argv.pop() if len(argv) > 1 and argv[-1] in BASES else "standard"
    if len(argv) not in (1, 2):
        print(f"usage: python3 tools/cone_census.py SEED [COUNT] [{'|'.join(BASES)}]", file=sys.stderr)
        return 1
    seed = int(argv[0])
    count = int(argv[1]) if len(argv) == 2 else 200
    paths: collections.Counter = collections.Counter()
    witnesses = 0
    exceptions = []
    inputs = draws(seed, BASES[bases])
    for _ in range(count):
        p, pattern = next(inputs)
        try:
            rep = classify(p, pattern)
        except Exception as exc:  # the census reports what the classifier raises
            exceptions.append(f"{format_poly(p)} on {pattern.N}:{pattern.forbidden[0]}: "
                              f"{type(exc).__name__}: {exc}")
            continue
        paths[rep.fast_path_exposed, rep.exposed] += 1
        witnesses += len(rep.witnesses)
    print(f"seed {seed}: {count} inputs")
    for (path, exposed), n in sorted(paths.items(), key=str):
        print(f"{path} exposed={exposed}: {n}")
    print(f"undecided: {sum(n for (_, exposed), n in paths.items() if exposed is None)}")
    print(f"witnesses: {witnesses}")
    print(f"exceptions: {len(exceptions)}")
    for line in exceptions:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
