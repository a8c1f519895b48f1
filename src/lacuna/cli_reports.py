"""Command line interface and report serialization.

Subcommands:

* ``classify`` - full extreme/exposed analysis of one polynomial,
* ``plusdim``  - cone-trace dimension of a subspace given by a basis file,
* ``corpus``   - run a directory of expectation files and compare,
* ``norm``     - just the circle L1 norm.

Exit codes: 0 for a decided run, 2 when the classifier reports an undecided
verdict (float rank on the threshold, or a stalled cone solver), 1 for
errors and corpus failures.

Reports serialize under the schema tag ``lacuna/1``.  Exact rationals are
encoded as strings ("5/8", "1/2+3/4i"), floats as JSON numbers, so an exact
run is byte-stable across invocations.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .circle_analysis import l1_norm
from .classifier import (
    ClassificationReport,
    ClassifyOptions,
    Witness,
    classify,
)
from .errors import LacunaError, SolverStalled
from .matrix_builder import BlockMatrix, KernelBasis
from .plus_cone import CoefVector, plus_dimension
from .poly_core import (
    LacunaryPattern,
    json_isinstance,
    parse_poly,
    poly_to_json,
)

SCHEMA = "lacuna/1"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2
# what bad input raises; a shape error in outside JSON is a ValueError
_INPUT_ERRORS = (LacunaError, ValueError, OSError)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _scalar_to_json(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, float)):
        return float(x)
    return str(x)


def _vector_to_json(v: CoefVector) -> dict:
    return {
        "d": v.d,
        "alpha": [_scalar_to_json(a) for a in v.alpha],
        "beta": [_scalar_to_json(b) for b in v.beta],
    }


def _matrix_to_json(mat: BlockMatrix, kernel: KernelBasis | None) -> dict:
    out = {
        "kind": mat.kind,
        "shape": list(mat.shape),
        "rows": [[_scalar_to_json(x) for x in row] for row in mat.rows],
        "exact": mat.exact,
    }
    if kernel is not None:
        out["rank"] = kernel.rank
        out["kernel_dim"] = kernel.dim
        out["kernel"] = [_vector_to_json(v) for v in kernel.vectors]
        if kernel.singular_values is not None:
            out["singular_values"] = list(kernel.singular_values)
        if kernel.gap is not None:
            out["gap"] = kernel.gap
    return out


def _zero_to_json(location, multiplicity) -> dict:
    loc = complex(location)
    return {"location": [loc.real, loc.imag], "multiplicity": multiplicity}


def _witness_to_json(w: Witness) -> dict:
    return {
        "kind": w.kind,
        "vector": _vector_to_json(w.vector),
        "perturbation": poly_to_json(w.perturbation),
        "spectrum": list(w.spectrum),
        # an unbounded multiplier is null: lacuna/1 is strict JSON
        "multiplier_bound": w.multiplier_bound if math.isfinite(w.multiplier_bound) else None,
        "checks": w.checks,
    }


def report_to_dict(rep: ClassificationReport) -> dict:
    can, til = rep.canonical, rep.tilde
    return {
        "schema": SCHEMA,
        "version": __version__,
        "pattern": rep.pattern.to_json(),
        "polynomial": poly_to_json(rep.polynomial),
        "mode": rep.mode,
        "norm": {"value": rep.norm, "error_bound": rep.norm_error_bound},
        "scale": rep.scale,
        "factorization": {
            "m": can.m,
            "s": can.s,
            "disk_zeros": [
                _zero_to_json(c.location, c.multiplicity) for c in can.disk_zeros
            ],
            "disk_factor": poly_to_json(can.disk_factor),
            "cofactor": poly_to_json(can.cofactor),
        },
        "tilde": {
            "mu": til.mu,
            "m_tilde": til.m_tilde,
            "s_tilde": til.s_tilde,
            "circle_zeros": [
                {
                    "location": [complex(loc).real, complex(loc).imag],
                    "multiplicity": lam,
                    "halved": mu,
                }
                for loc, lam, mu in til.circle_zeros
            ],
            "circle_factor": poly_to_json(til.circle_factor),
            "total_factor": poly_to_json(til.total_factor),
            "reduced_cofactor": poly_to_json(til.reduced_cofactor),
        },
        "matrix": _matrix_to_json(rep.matrix, rep.kernel),
        "matrix_tilde": _matrix_to_json(rep.matrix_tilde, rep.kernel_tilde),
        "dim_plus": rep.dim_plus,
        "verdicts": {"extreme": rep.extreme, "exposed": rep.exposed},
        "fast_paths": {
            "extreme": rep.fast_path_extreme,
            "exposed": rep.fast_path_exposed,
        },
        "witnesses": [_witness_to_json(w) for w in rep.witnesses],
        "diagnostics": rep.diagnostics,
        "audit": rep.audit,
    }


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------


def _common_fraction_factor(rows) -> Fraction | None:
    """gcd-style scalar pulled out of an exact matrix for compact display."""
    entries = [x for row in rows for x in row if x != 0]
    if not entries:
        return None
    num = 0
    den = 1
    for x in entries:
        f = Fraction(x)
        num = math.gcd(num, abs(f.numerator))
        den = den * f.denominator // math.gcd(den, f.denominator)
    g = Fraction(num, den)
    first = next(x for row in rows for x in row if x != 0)
    if first < 0:
        g = -g
    return g if g != 0 else None


def _format_matrix_text(mat: BlockMatrix) -> list[str]:
    if not mat.rows:
        return ["  (no rows: every exponent below the degree is allowed)"]
    lines = []
    if mat.exact:
        g = _common_fraction_factor(mat.rows)
        if g is not None and g != 1:
            scaled = [[Fraction(x) / g for x in row] for row in mat.rows]
            lines.append(f"  {g} x")
            rows = scaled
        else:
            rows = [[Fraction(x) for x in row] for row in mat.rows]
        for row in rows:
            lines.append("    [" + "  ".join(str(x) for x in row) + "]")
    else:
        for row in mat.rows:
            lines.append("    [" + "  ".join(f"{float(x):+.6g}" for x in row) + "]")
    return lines


def render_text(rep: ClassificationReport) -> str:
    lines = []
    pat = rep.pattern
    lines.append(f"pattern: N={pat.N} forbidden={list(pat.forbidden)}")
    lines.append(f"mode: {rep.mode}")
    lines.append(f"norm: {rep.norm:.15g} (error bound {rep.norm_error_bound:.3g})")
    lines.append(f"unit-sphere scale: {rep.scale:.15g}")
    can, til = rep.canonical, rep.tilde
    lines.append(
        f"shared disk zeros: m={can.m} (s={can.s}); "
        f"halved circle zeros: mu={til.mu} (m~={til.m_tilde}, s~={til.s_tilde})"
    )
    lines.append("constraint matrix:")
    lines.extend(_format_matrix_text(rep.matrix))
    if rep.kernel is not None:
        lines.append(f"  rank {rep.kernel.rank}, kernel dimension {rep.kernel.dim}")
    lines.append("tilde matrix:")
    lines.extend(_format_matrix_text(rep.matrix_tilde))
    if rep.kernel_tilde is not None:
        lines.append(
            f"  rank {rep.kernel_tilde.rank}, kernel dimension {rep.kernel_tilde.dim}"
        )
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
        lines.append(
            f"  spectrum {list(w.spectrum)}, multiplier bound {w.multiplier_bound:.6g}"
        )
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
    if ":" in text:
        n_part, k_part = text.split(":", 1)
        forbidden = [int(x) for x in k_part.split(",") if x.strip()]
    else:
        n_part, forbidden = text, []
    return LacunaryPattern(int(n_part), forbidden)


_CONFIG_KEYS = ("mode", "eps_circle", "tol", "audit", "witnesses", "pattern", "format")


def _load_config(path: str) -> dict:
    """key=value per line; '#' comments; later keys win; unknown keys fail."""
    out: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key=value): {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        out[key] = val
    return out


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _as_bool(val: str, key: str) -> bool:
    low = val.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"config key {key} expects a boolean, got {val!r}")


def _options_from(args, config: dict) -> ClassifyOptions:
    opt = ClassifyOptions()
    if "mode" in config:
        opt.mode = config["mode"]
    if "eps_circle" in config:
        opt.eps_circle = float(config["eps_circle"])
    if "tol" in config:
        opt.spectrum_tol = float(config["tol"])
    if "audit" in config:
        opt.audit = _as_bool(config["audit"], "audit")
    if "witnesses" in config:
        opt.generate_witnesses = _as_bool(config["witnesses"], "witnesses")
    if getattr(args, "mode", None):
        opt.mode = args.mode
    if getattr(args, "eps_circle", None) is not None:
        opt.eps_circle = args.eps_circle
    if getattr(args, "tol", None) is not None:
        opt.spectrum_tol = args.tol
    if getattr(args, "audit", False):
        opt.audit = True
    if getattr(args, "no_witnesses", False):
        opt.generate_witnesses = False
    if getattr(args, "infer_pattern", False):
        opt.infer_pattern = True
    return opt


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_classify(args) -> int:
    config = _load_config(args.config) if args.config else {}
    opt = _options_from(args, config)
    pattern = None
    if args.pattern:
        pattern = _parse_pattern_arg(args.pattern)
    elif "pattern" in config:
        pattern = _parse_pattern_arg(config["pattern"])
    text = _read_input(args.input)
    rep = classify(text, pattern, opt)
    fmt = args.format or config.get("format", "text")
    if fmt == "json":
        payload = json.dumps(report_to_dict(rep), indent=2, sort_keys=True) + "\n"
    else:
        payload = render_text(rep)
    _emit(payload, args.out)
    return EXIT_UNDECIDED if rep.undecided else EXIT_OK


_MISSING = object()
_JSON_KINDS = {
    bool: "a boolean", int: "an integer", (int, float): "a number", str: "a string",
    list: "a list", dict: "an object", (str, list, dict): "a string, a list or an object",
}
# the JSON type of each ClassifyOptions field a corpus job may set
_OPTION_KINDS = {
    "mode": str, "eps_circle": (int, float), "spectrum_tol": (int, float),
    "audit": bool, "infer_pattern": bool, "generate_witnesses": bool,
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
    rows = [_coef_list(row, d) for row in _field(data, "basis", list)]
    seed = None
    if data.get("seed") is not None:
        seed = CoefVector.from_array(np.array(_coef_list(data["seed"], d)), d=d)
    return plus_dimension(np.array(rows, dtype=float), seed=seed)


def _cmd_plusdim(args) -> int:
    data = json.loads(_read_input(args.basis))
    try:
        dim, found = _run_plusdim_file(data)
    except SolverStalled as exc:
        sys.stderr.write(f"undecided: {exc}\n")
        return EXIT_UNDECIDED
    out = {
        "schema": SCHEMA,
        "d": data["d"],
        "dim_plus": dim,
        "vectors": [_vector_to_json(v) for v in found],
    }
    _emit(json.dumps(out, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _number(x) -> float:
    """A finite JSON number, or a fraction string such as "5/8"."""
    if not (isinstance(x, str) or json_isinstance(x, (int, float))):
        raise ValueError(f"expected a number or a fraction string, got {x!r}")
    try:
        value = float(Fraction(x)) if isinstance(x, str) else float(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {x!r}")
    return value


def _coef_list(row, d: int) -> list[float]:
    if not isinstance(row, list) or len(row) != 2 * d + 1:
        raise ValueError(f"basis rows must be lists of length {2 * d + 1}, got {row!r}")
    return [_number(x) for x in row]


def _cmd_norm(args) -> int:
    p = parse_poly(_read_input(args.input))
    res = l1_norm(p)
    out = {
        "schema": SCHEMA,
        "norm": res.value,
        "error_bound": res.abs_error_bound,
        "panels": res.panels,
    }
    _emit(json.dumps(out, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _matrix_matches_up_to_scale(actual: BlockMatrix, expected_rows, tol=1e-9) -> bool:
    if not all(isinstance(row, list) for row in expected_rows):
        raise ValueError(f"expected matrix rows must be lists, got {expected_rows!r}")
    act = actual.as_array()
    exp = np.array([[_number(x) for x in row] for row in expected_rows], dtype=float)
    if act.shape != exp.shape:
        return False
    idx = np.unravel_index(np.argmax(np.abs(exp)), exp.shape)
    if exp[idx] == 0:
        return bool(np.max(np.abs(act)) <= tol)
    ratio = act[idx] / exp[idx]
    return bool(np.max(np.abs(act - ratio * exp)) <= tol * max(1.0, np.max(np.abs(act))))


def _run_job(path: Path) -> tuple[str, bool, str]:
    data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise ValueError("a job file holds one JSON object")
    name = data.get("name", path.stem)
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
    opt = ClassifyOptions()
    options = _field(data, "options", dict, {})
    for key in options:
        if key not in _OPTION_KINDS:
            raise ValueError(f"{path.name}: unknown option {key!r}")
        setattr(opt, key, _field(options, key, _OPTION_KINDS[key]))
    try:
        rep = classify(poly, pattern, opt)
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
    c.add_argument("--mode", choices=["auto", "exact", "float"])
    c.add_argument("--audit", action="store_true", help="cross-check shortcuts")
    c.add_argument("--eps-circle", type=float, dest="eps_circle")
    c.add_argument("--tol", type=float, help="relative support-check tolerance")
    c.add_argument("--no-witnesses", action="store_true", dest="no_witnesses")
    c.add_argument("--format", choices=["text", "json"])
    c.add_argument("--out", help="write the report to a file")
    c.add_argument("--config", help="key=value config file")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
