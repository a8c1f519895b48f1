"""Digest every classify report and plusdim result of the benchmark workloads.

Usage::

    python3 tools/report_digests.py CHECKOUT SEED

CHECKOUT is a lacuna source tree (its ``src/`` and ``perfbench/`` are
imported; nothing is written there).  For every classify case of the
exact_generic and exact_circle workloads at SEED, census included, the
script classifies the input in exact mode, in float mode and in exact mode
with the audit, and prints one line per report::

    <workload> <case id> <exact|float|audit> <sha256> <extreme> <exposed> <dim_plus>

where the digest covers the ``lacuna/1`` JSON of ``report_to_dict`` followed
by ``render_text``, and the verdicts are the report's (``None`` where
undecided), so a diff shows whether a changed report moved a verdict.  A
raised exception is printed as its class and message in place of the
digest and the verdicts.  Float mode judges the exact value of the input
rounded to doubles, so for every input whose float image is lossless (all
the workload inputs) its line equals the exact line.  Each plusdim job of
the corpus gets one line::

    <workload> <case id> plusdim <sha256> <dim_plus>

whose digest covers what ``lacuna plusdim`` prints for the job (a nonzero
exit code is printed with the error message instead).  Run it on two
checkouts on one machine and diff the outputs to show that a change leaves
every report byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

MODES = {"exact": {"mode": "exact"}, "float": {"mode": "float"}, "audit": {"mode": "exact", "audit": True}}


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
    for workload, case in workload_cases(cases, root, seed):
        if case.kind == "plusdim":
            print(workload, case.id, "plusdim", _plusdim_digest(lacuna, case), flush=True)
            continue
        for name, overrides in MODES.items():
            print(workload, case.id, name, _digest(lacuna, case, overrides), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
