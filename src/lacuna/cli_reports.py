"""Command line interface and report serialization.

Subcommands:

* ``classify`` - full extreme/exposed analysis of one polynomial,
* ``plusdim``  - cone-trace dimension of a subspace given by a basis file,
* ``corpus``   - run a directory of expectation files and compare,
* ``norm``     - just the circle L1 norm.

Pattern inference is edge work: ``classify --infer-pattern`` passes
``infer_pattern(p)`` to the classifier when no pattern is given.  A corpus
job names its pattern and takes no options.  Witnesses have no switch.

Exit codes: 0 for a decided run, 2 when the classifier leaves ``exposed``
undecided (an incomplete cone certificate), 1 for errors and corpus failures.

Reports serialize under the schema tag ``lacuna/2``.  Exact rationals are
encoded as strings ("5/8", "1/2+3/4i"), floats as JSON numbers, so a run is
byte-stable across invocations.  Every verdict is exact, so a report names
no arithmetic mode.  A classify report leaves out what an exact product or
quotient of written facts rebuilds (``report_to_dict``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .circle_analysis import l1_norm
from .classifier import ClassificationReport, classify, infer_pattern
from .errors import LacunaError, SolverStalled
from .matrix_builder import BlockMatrix, KernelBasis
from .plus_cone import CoefVector, plus_dimension
from .poly_core import (
    LacunaryPattern,
    exact_decimal,
    json_isinstance,
    parse_poly,
    poly_to_json,
)

SCHEMA = "lacuna/2"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2
# what bad input raises; a shape error in outside JSON is a ValueError
_INPUT_ERRORS = (LacunaError, ValueError, OSError)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _vector_to_json(v: CoefVector) -> dict:
    return {
        "d": v.d,
        "alpha": [str(a) for a in v.alpha],
        "beta": [str(b) for b in v.beta],
    }


def _matrix_to_json(mat: BlockMatrix, kernel: KernelBasis, kind: str) -> dict:
    return {
        "kind": kind,
        "shape": list(mat.shape),
        "rows": [[str(x) for x in row] for row in mat.rows],
        "rank": kernel.rank,
        "kernel_dim": kernel.dim,
        "kernel": [_vector_to_json(v) for v in kernel.vectors],
    }


def _zero_to_json(location, multiplicity) -> dict:
    loc = complex(location)
    return {"location": [loc.real, loc.imag], "multiplicity": multiplicity}


def _witnesses_to_json(witnesses) -> list[dict]:
    """Each witness's kind and step, and its vector, perturbation and spectrum
    unless an earlier witness has the same three: then ``same_as`` its index."""
    out, bodies = [], []
    for w in witnesses:
        body = {"vector": _vector_to_json(w.vector), "perturbation": poly_to_json(w.perturbation),
                "spectrum": list(w.spectrum)}
        same = {"same_as": bodies.index(body)} if body in bodies else body
        out.append({"kind": w.kind, "step": None if w.step is None else str(w.step), **same})
        bodies.append(body)
    return out


def report_to_dict(rep: ClassificationReport) -> dict:
    """The ``lacuna/2`` document of a classify report: no cofactor (p / G), no
    tilde total factor (G C) or reduced cofactor (cofactor / C), no tilde
    matrix when mu = 0 (it is ``matrix``), and no repeated witness body."""
    can, til = rep.canonical, rep.tilde
    return {
        "schema": SCHEMA,
        "version": __version__,
        "pattern": rep.pattern.to_json(),
        "polynomial": poly_to_json(rep.polynomial),
        "norm": {"value": rep.norm, "error_bound": rep.norm_error_bound},
        "scale": rep.scale,
        "factorization": {
            "m": can.m,
            "s": can.s,
            "disk_zeros": [
                _zero_to_json(c.location, c.multiplicity) for c in can.disk_zeros
            ],
            "disk_factor": poly_to_json(can.disk_factor),
        },
        "tilde": {
            "mu": til.mu,
            "m_tilde": til.m_tilde,
            "s_tilde": til.s_tilde,
            "circle_zeros": [
                {**_zero_to_json(c.location, c.multiplicity), "halved": c.multiplicity // 2}
                for c in can.zero_clusters
            ],
            "circle_factor": poly_to_json(til.circle_factor),
        },
        "matrix": _matrix_to_json(rep.matrix, rep.kernel, "plain"),
        "matrix_tilde": (
            _matrix_to_json(rep.matrix_tilde, rep.kernel_tilde, "tilde") if til.mu else {"same_as": "matrix"}
        ),
        "dim_plus": rep.dim_plus,
        "verdicts": {"extreme": rep.extreme, "exposed": rep.exposed},
        "fast_paths": {
            "extreme": rep.fast_path_extreme,
            "exposed": rep.fast_path_exposed,
        },
        "witnesses": _witnesses_to_json(rep.witnesses),
        "diagnostics": rep.diagnostics,
    }


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------


def _common_fraction_factor(rows) -> Fraction | None:
    """gcd-style scalar pulled out of an exact matrix for compact display: the
    gcd of the numerators over the lcm of the denominators, with the sign of
    the first nonzero entry (None when there is none)."""
    entries = [Fraction(x) for row in rows for x in row if x]
    if not entries:
        return None
    g = Fraction(math.gcd(*(x.numerator for x in entries)), math.lcm(*(x.denominator for x in entries)))
    return -g if entries[0] < 0 else g


def _format_matrix_text(mat: BlockMatrix) -> list[str]:
    if not mat.rows:
        return ["  (no rows: every exponent below the degree is allowed)"]
    lines = []
    g = _common_fraction_factor(mat.rows)
    rows = [[Fraction(x) for x in row] for row in mat.rows]
    if g is not None and g != 1:
        lines.append(f"  {g} x")
        rows = [[x / g for x in row] for row in rows]
    for row in rows:
        lines.append("    [" + "  ".join(str(x) for x in row) + "]")
    return lines


def render_text(rep: ClassificationReport) -> str:
    lines = []
    pat = rep.pattern
    lines.append(f"pattern: N={pat.N} forbidden={list(pat.forbidden)}")
    lines.append(f"norm: {rep.norm:.15g} (error bound {rep.norm_error_bound:.3g})")
    lines.append(f"unit-sphere scale: {rep.scale:.15g}")
    can, til = rep.canonical, rep.tilde
    lines.append(
        f"shared disk zeros: m={can.m} (s={can.s}); "
        f"halved circle zeros: mu={til.mu} (m~={til.m_tilde}, s~={til.s_tilde})"
    )
    lines.append("constraint matrix:")
    lines.extend(_format_matrix_text(rep.matrix))
    lines.append(f"  rank {rep.kernel.rank}, kernel dimension {rep.kernel.dim}")
    lines.append("tilde matrix:")
    lines.extend(_format_matrix_text(rep.matrix_tilde))
    lines.append(f"  rank {rep.kernel_tilde.rank}, kernel dimension {rep.kernel_tilde.dim}")
    if rep.dim_plus is not None:
        lines.append(f"cone trace dimension: {rep.dim_plus}")
    for name, verdict, path in (
        ("extreme", rep.extreme, rep.fast_path_extreme),
        ("exposed", rep.exposed, rep.fast_path_exposed),
    ):
        shown = "UNDECIDED" if verdict is None else ("yes" if verdict else "no")
        via = f" (via {path})" if path else ""
        lines.append(f"{name}: {shown}{via}")
    for w in rep.witnesses:
        lines.append(f"witness [{w.kind}]: q = {w.perturbation}")
        step = "" if w.step is None else f", step {w.step}"
        lines.append(f"  spectrum {list(w.spectrum)}{step}")
    if "undecided_reason" in rep.diagnostics:
        lines.append(f"undecided: {rep.diagnostics['undecided_reason']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------


def _read_input(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    if arg.startswith("@"):
        return Path(arg[1:]).read_text()
    return arg


def _parse_pattern_arg(text: str) -> LacunaryPattern:
    """Pattern syntax: 'N' or 'N:k1,k2,...'."""
    n_part, _, k_part = text.partition(":")
    try:
        N = int(n_part)
        forbidden = [int(x) for x in k_part.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"bad pattern {text!r}: expected 'N' or 'N:k1,k2,...'") from None
    return LacunaryPattern(N, forbidden)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_classify(args) -> int:
    pattern = _parse_pattern_arg(args.pattern) if args.pattern else None
    p = parse_poly(_read_input(args.input))
    if pattern is None and args.infer_pattern:
        pattern = infer_pattern(p)
    rep = classify(p, pattern)
    if args.format == "json":
        payload = json.dumps(report_to_dict(rep), indent=2, sort_keys=True) + "\n"
    else:
        payload = render_text(rep)
    _emit(payload, args.out)
    return EXIT_UNDECIDED if rep.undecided else EXIT_OK


_MISSING = object()
_JSON_KINDS = {
    int: "an integer", list: "a list", dict: "an object",
    (str, list, dict): "a string, a list or an object",
}


def _field(obj: dict, key: str, kind, default=_MISSING):
    """obj[key] if it has the JSON type kind; a ValueError naming key otherwise."""
    if key not in obj:
        if default is _MISSING:
            raise ValueError(f"missing key {key!r}")
        return default
    val = obj[key]
    if not json_isinstance(val, kind):
        raise ValueError(f"key {key!r} takes {_JSON_KINDS[kind]}, got {val!r}")
    return val


def _run_plusdim_file(data) -> tuple[int, list[CoefVector]]:
    if not isinstance(data, dict):
        raise ValueError("a basis file holds one JSON object")
    d = _field(data, "d", int)
    if d < 0:
        raise ValueError(f"key 'd' takes a nonnegative integer, got {d}")
    rows = [_coef_list(row, d) for row in _field(data, "basis", list)]
    seed = None if data.get("seed") is None else CoefVector.from_array(_coef_list(data["seed"], d))
    return plus_dimension(rows, seed=seed)


def _cmd_plusdim(args) -> int:
    data = json.loads(_read_input(args.basis))
    try:
        dim, found = _run_plusdim_file(data)
    except SolverStalled as exc:
        sys.stderr.write(f"undecided: {exc}\n")
        return EXIT_UNDECIDED
    out = {"schema": SCHEMA, "d": data["d"], "dim_plus": dim, "vectors": [_vector_to_json(v) for v in found]}
    _emit(json.dumps(out, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _number(x) -> Fraction:
    """The exact value of a finite JSON number, or of a fraction string such as
    "5/8", with a finite float value; a string is read by ``exact_decimal``,
    which refuses a huge decimal exponent cheaply."""
    if not (isinstance(x, str) or json_isinstance(x, (int, float))):
        raise ValueError(f"expected a number or a fraction string, got {x!r}")
    try:
        value = exact_decimal(x) if isinstance(x, str) else Fraction(x)
        float(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None
    except (OverflowError, ValueError):
        raise ValueError(f"expected a finite number, got {x!r}") from None
    return value


def _coef_list(row, d: int) -> list[Fraction]:
    if not isinstance(row, list) or len(row) != 2 * d + 1:
        raise ValueError(f"basis rows must be lists of length {2 * d + 1}, got {row!r}")
    return [_number(x) for x in row]


def _cmd_norm(args) -> int:
    p = parse_poly(_read_input(args.input))
    res = l1_norm(p)
    out = {"schema": SCHEMA, "norm": res.value, "error_bound": res.abs_error_bound, "panels": res.panels}
    _emit(json.dumps(out, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _matrix_matches_up_to_scale(actual: BlockMatrix, expected_rows) -> bool:
    """True when the matrix's exact rows are c times the expected ones for a
    rational c, nonzero unless both are zero, compared exactly."""
    if not all(isinstance(row, list) for row in expected_rows):
        raise ValueError(f"expected matrix rows must be lists, got {expected_rows!r}")
    exp = [[_number(x) for x in row] for row in expected_rows]
    if list(map(len, exp)) != list(map(len, actual.rows)):
        return False
    pairs = [(a, e) for row, want in zip(actual.rows, exp) for a, e in zip(row, want)]
    a0, e0 = next(((a, e) for a, e in pairs if a or e), (0, 0))
    return bool(a0) == bool(e0) and all(a * e0 == e * a0 for a, e in pairs)


def _run_job(path: Path) -> tuple[str, bool, str]:
    data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise ValueError("a job file holds one JSON object")
    name = data.get("name", path.stem)
    if "options" in data:
        raise ValueError("corpus jobs take no options")
    expect = _field(data, "expect", dict, {})
    if "basis" in data:
        try:
            dim, _ = _run_plusdim_file(data)
        except LacunaError as exc:
            return name, False, f"error: {exc}"
        want = expect.get("dim_plus")
        if want is not None and dim != want:
            return name, False, f"dim_plus: expected {want}, got {dim}"
        return name, True, "ok"
    raw = _field(data, "input", (str, list, dict))
    poly = parse_poly(raw if isinstance(raw, str) else json.dumps(raw))
    pattern = LacunaryPattern.from_json(data.get("pattern"))
    try:
        rep = classify(poly, pattern)
    except LacunaError as exc:
        return name, False, f"error: {exc}"
    problems = []
    for key in ("extreme", "exposed"):
        if key in expect and getattr(rep, key) != expect[key]:
            problems.append(f"{key}: expected {expect[key]}, got {getattr(rep, key)}")
    if "dim_plus" in expect and rep.dim_plus != expect["dim_plus"]:
        problems.append(f"dim_plus: expected {expect['dim_plus']}, got {rep.dim_plus}")
    for key in ("matrix", "matrix_tilde"):
        if key in expect and not _matrix_matches_up_to_scale(
            getattr(rep, key), _field(_field(expect, key, dict), "rows", list)
        ):
            problems.append(f"{key}: mismatch beyond scalar multiple")
    if "witness_kinds" in expect:
        kinds = sorted(w.kind for w in rep.witnesses)
        if kinds != sorted(_field(expect, "witness_kinds", list), key=str):
            problems.append(
                f"witnesses: expected {expect['witness_kinds']}, got {kinds}"
            )
    if problems:
        return name, False, "; ".join(problems)
    return name, True, "ok"


def _cmd_corpus(args) -> int:
    root = Path(args.directory)
    paths = sorted(root.glob("*.json"))
    if not paths:
        sys.stderr.write(f"warning: no corpus files in {root}\n")
        return EXIT_OK
    failed = 0
    for path in paths:
        # a malformed job fails alone; the rest of the corpus still runs
        try:
            name, ok, detail = _run_job(path)
        except _INPUT_ERRORS as exc:
            sys.stderr.write(f"error: {path.name}: {exc!r}\n")
            name, ok, detail = path.stem, False, f"error: {exc!r}"
        status = "PASS" if ok else "FAIL"
        sys.stdout.write(f"{status} {name}: {detail}\n")
        failed += 0 if ok else 1
    sys.stdout.write(f"{len(paths) - failed}/{len(paths)} passed\n")
    return EXIT_OK if failed == 0 else EXIT_ERROR


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lacuna",
        description="extreme and exposed points of the unit ball of lacunary "
        "polynomials in L1 of the circle",
    )
    ap.add_argument("--version", action="version", version=f"lacuna {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify one polynomial")
    c.add_argument("input", help="expression, JSON, @file, or - for stdin")
    c.add_argument("--pattern", help="exponent pattern 'N' or 'N:k1,k2,...'")
    c.add_argument(
        "--infer-pattern",
        action="store_true",
        help="treat every vanishing interior coefficient as forbidden",
    )
    c.add_argument("--format", choices=["text", "json"], default="text")
    c.add_argument("--out", help="write the report to a file")
    c.set_defaults(func=_cmd_classify)

    b = sub.add_parser("plusdim", help="cone trace dimension of a subspace")
    b.add_argument("basis", help="JSON basis file, @file, or - for stdin")
    b.add_argument("--out")
    b.set_defaults(func=_cmd_plusdim)

    n = sub.add_parser("norm", help="circle L1 norm of a polynomial")
    n.add_argument("input")
    n.add_argument("--out")
    n.set_defaults(func=_cmd_norm)

    r = sub.add_parser("corpus", help="run a directory of expectation files")
    r.add_argument("directory")
    r.set_defaults(func=_cmd_corpus)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means undecided here;
        # --help and --version exit 0 and pass through
        if exc.code == 0:
            raise
        return EXIT_ERROR
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
