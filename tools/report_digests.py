"""Digest every classify report and plusdim result of the benchmark workloads.

Usage::

    python3 tools/report_digests.py CHECKOUT SEED

CHECKOUT is a lacuna source tree (its ``src/`` and ``perfbench/`` are
imported; nothing is written there).  For every classify case of the
exact_generic and exact_circle workloads at SEED, census included, the
script classifies the input and prints one line per report::

    <workload> <case id> exact <sha256> <extreme> <exposed> <dim_plus>

where the digest covers the ``lacuna/1`` JSON of ``report_to_dict`` followed
by ``render_text``, and the verdicts are the report's (``None`` where
undecided), so a diff shows whether a changed report moved a verdict.  A
raised exception is printed as its class and message in place of the
digest and the verdicts.  Each plusdim job of the corpus gets one line::

    <workload> <case id> plusdim <sha256> <dim_plus>

whose digest covers what ``lacuna plusdim`` prints for the job (a nonzero
exit code is printed with the error message instead).  Last come the fixed
inputs of ``OUTSIDE``, outside both workloads, under the workload name
``outside``: near-coincident zeros of p and p*,
irrational and Salem splits, lossy float products, many shared pairs,
zeros beyond the float range, a non-exposed witness that only the cone
search finds, a companion eigenvalue solve that does not converge, and
cones decided by facial reduction over circle zeros at +-1 and at the cube
roots of unity, rounded powers of 1 - z^2 whose zeros split near the
circle, a shared disk pair within 1e-9 of it, and a shared disk zero 10^-20
beside a zero of p at the origin that p* does not share.  Each of these inputs
whose report moves when its coefficients are rounded to doubles also comes
as a ``<id>-rounded`` twin, so rounded.  Then each basis of
``OUTSIDE_PLUSDIM``, a ``lacuna plusdim`` job without a seed, gets one
plusdim line under ``outside``.  Run it on two checkouts on one machine and
diff the outputs to show that a change leaves every report byte-identical,
or which reports outside the workloads it moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

MODES = {"exact": {"mode": "exact"}}

# (id, expression, N, forbidden, scalar): a scalar turns the input into its
# coefficients rounded to doubles, each times that double in float arithmetic
OUTSIDE = (
    ("near-reflected-pair", "(z - 1/2)(1 - (1/2 + 1/10^8)z)", 2, (), None),
    ("near-circle-double-pair", "(1 - (1 + 1/10^9)z^2)^2", 4, (1, 3), None),
    ("irrational-pair", "1 - 3z + z^2", 2, (), None),
    ("irrational-pair-double-circle", "(1 - 3z + z^2)(1 - z)^2(z^2 + z - 3)", 6, (4,), None),
    ("lehmer", "1 + z - z^3 - z^4 - z^5 - z^6 - z^7 + z^9 + z^10", 10, (), None),
    ("lossy-pair-and-gap", "(z - 1/2)(2 - z)(1 + z^4)", 6, (3,), 0.7 + 0.3j),
    ("float-pair-at-a-tenth", "(z - 1/10)(1 - z/10)", 2, (), 1.0),
    ("six-pairs-at-tenths", "".join(
        f"(z - ({a}{b:+}i)/10)(1 - ({a}{-b:+}i)z/10)"
        for a, b in ((1, 2), (3, -1), (-1, 3), (7, 1), (-3, -4), (2, -3))
    ), 12, (), None),
    ("coprime-zero-beyond-float-range", "1 + z/10^400", 1, (), None),
    ("shared-zero-beyond-float-range", "(1 + z/10^400)(z + 1/10^400)", 2, (), None),
    ("coprime-overflowed-residual", "(z + 10^100)(z^3 - 2)", 4, (), None),
    ("shared-overflowed-residual", "(z + 10^100)(1 + 10^100 z)(z^3 - 2)", 5, (), None),
    ("long-integer-literal", "1" + "0" * 5000 + " + z", 1, (), None),
    ("cone-search-witness", "(1-z^2)^2*((-1/2-i) + (3+i)z + (-1-2i)z^2)", 6, (2,), None),
    ("shared-pair-at-10^20", "(z + 10^20)(1 + 10^20 z)(z^3 - 2)", 5, (), None),
    ("facial-step-7:2", "(1-z^2)^2*((1+i)-(2+2i)z+(2+2i)z^2)", 7, (2,), None),
    ("facial-step-8:3", "(1-z^2)^2*(3-z-z^2-2z^3)", 8, (3,), None),
    ("facial-step-6:2", "(1-z^2)^2*((1+i)+z+(2+2i)z^2)", 6, (2,), None),
    ("cube-root-zeros-7:3", "(1+z+z^2)^2*((-3+3i/2) - 3iz + (3+3i)z^2)", 7, (3,), None),
    ("cube-root-zeros-6:2", "(1-z+z^2)^2*(-1 + (-3+i)z + (-3+2i)z^2)", 6, (2,), None),
    ("cube-root-zeros-8:3", "(1+z+z^2)^2*((-1+3i) + (1-10i/3)z + iz^2 + (-1+2i)z^3)", 8, (3,), None),
    ("rounded-cube", "(1 - z^2)^3", 6, (), 0.7),
    ("rounded-fourth-power", "(1 - z^2)^4", 8, (), 0.7),
    ("disk-pair-in-band", "(z - (1 - 1/10^9))(1 - (1 - 1/10^9)z)", 2, (), None),
    ("shared-pair-beside-the-origin", "z (z + 10^20)(1 + 10^20 z)", 3, (), None),
)
# the inputs above whose report moves when their coefficients are rounded to
# doubles, so rounded
OUTSIDE += tuple(
    (f"{case_id}-rounded", text, N, forbidden, 1.0)
    for case_id, text, N, forbidden, _ in OUTSIDE
    if case_id in (
        "near-reflected-pair", "near-circle-double-pair", "six-pairs-at-tenths",
        "coprime-zero-beyond-float-range", "shared-zero-beyond-float-range",
        "coprime-overflowed-residual", "cube-root-zeros-8:3", "disk-pair-in-band",
        "shared-pair-beside-the-origin",
    )
)

# (id, basis file): plusdim jobs without a seed, so that the search for the
# first plus vector runs
OUTSIDE_PLUSDIM = (
    ("unseeded-plus-line", {"d": 2, "basis": [["1", "1", "0", "0", "0"]]}),  # 2 + 2cos t
    ("unseeded-line-without-plus-vector", {"d": 1, "basis": [["1", "2", "0"]]}),  # 2 + 4cos t
    # every plus vector vanishes at t = pi/2
    ("unseeded-zero-at-a-rational-point", {"d": 4, "basis": [
        ["24", "-13", "-4", "-13", "6", "23", "9", "-11", "-2"], ["0", "1", "-2", "-1", "-2", "0", "0", "0", "-2"]]}),
    # strictly plus vectors span all three dimensions
    ("unseeded-interior-space", {"d": 2, "basis": [
        ["1599/100", "21", "5", "2", "-1"], ["1", "1", "0", "2", "-1"], ["1", "0", "-1", "0", "1"]]}),
    # one plus line, touching zero, in a plane
    ("unseeded-touching-line-in-a-plane", {"d": 3, "basis": [
        ["15", "-7", "-10", "2", "-3", "-11", "8"], ["-1", "2", "1", "-2", "0", "-2", "1"]]}),
)


def load(root: Path):
    """Import lacuna and the benchmark cases from the source tree ``root``."""
    sys.path[:0] = [str(root / "src"), str(root)]
    import lacuna
    import lacuna.cli_reports
    from perfbench import cases

    return lacuna, cases


def workload_cases(cases, root: Path, seed: int):
    """(workload, case) for every case of the benchmark workloads at ``seed``,
    census included."""
    for workload in cases.WORKLOADS:
        for case in cases.make_cases(workload, seed, root / "corpus") + cases.make_census(workload, root / "corpus"):
            yield workload, case


def outside_cases(lacuna, cases):
    """The inputs of ``OUTSIDE`` as classify cases, then those of
    ``OUTSIDE_PLUSDIM`` as plusdim cases."""
    for case_id, text, N, forbidden, scalar in OUTSIDE:
        if scalar is not None:
            cs = lacuna.poly_core.parse_poly(text).coeffs
            p = lacuna.poly_core.ComplexPoly([complex(c) * scalar for c in cs])
            text = json.dumps(lacuna.poly_core.poly_to_json(p))
        yield cases.Case(case_id, "outside", "classify", text, N, forbidden)
    for case_id, data in OUTSIDE_PLUSDIM:
        yield cases.Case(case_id, "outside", "plusdim", data)


def classify_case(lacuna, case, overrides: dict):
    """The classify report of a case, under its options with ``overrides``."""
    opts = {**dict(case.options), **overrides}
    p = lacuna.poly_core.parse_poly(case.source)
    pattern = lacuna.poly_core.LacunaryPattern(case.N, case.forbidden)
    return lacuna.classifier.classify(p, pattern, lacuna.classifier.ClassifyOptions(**opts))


def _digest(lacuna, case, overrides: dict) -> str:
    """The report's digest and verdicts, or the exception raised instead."""
    try:
        rep = classify_case(lacuna, case, overrides)
        text = json.dumps(lacuna.cli_reports.report_to_dict(rep), indent=2, sort_keys=True) + "\n"
        text += lacuna.cli_reports.render_text(rep)
    except Exception as exc:  # the outcome is part of the behaviour being compared
        return f"{type(exc).__name__}: {exc}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    return f"{digest} {rep.extreme} {rep.exposed} {rep.dim_plus}"


def _plusdim_digest(lacuna, case) -> str:
    """The digest of what ``lacuna plusdim`` prints for the job, and its dim_plus."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lacuna.cli_reports.main(["plusdim", json.dumps(case.source)])
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if code != 0:
        return f"exit {code}: {err.getvalue().strip()}"
    text = out.getvalue()
    return f"{hashlib.sha256(text.encode()).hexdigest()} {json.loads(text)['dim_plus']}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/report_digests.py CHECKOUT SEED", file=sys.stderr)
        return 1
    root, seed = Path(argv[0]).resolve(), int(argv[1])
    lacuna, cases = load(root)
    outside = (("outside", case) for case in outside_cases(lacuna, cases))
    for workload, case in itertools.chain(workload_cases(cases, root, seed), outside):
        if case.kind == "plusdim":
            print(workload, case.id, "plusdim", _plusdim_digest(lacuna, case), flush=True)
            continue
        for name, overrides in MODES.items():
            print(workload, case.id, name, _digest(lacuna, case, overrides), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
