"""Compare the classify reports of two checkouts field by field.

Usage::

    python3 tools/report_fields.py PARENT CHANGE SEED

PARENT and CHANGE are lacuna source trees.  Each checkout, in a process of
its own, classifies every classify case of the benchmark workloads at SEED
(census included) and the fixed ``OUTSIDE`` inputs of
``tools/report_digests.py``.  A report is the JSON of ``report_to_dict``
in its ``lacuna/1`` form (``tools/to_lacuna1.py`` rebuilds it from
``lacuna/2``); a raised exception stands in as
``{"error": "<class>: <message>"}``.  For each JSON path at which at
least one report differs (list indices written ``[*]``), the script
prints::

    <path> differs in <n>/<reports> max |diff| <absolute> max rel <relative>

with the largest absolute difference |a - b| and the largest relative one
|a - b| / max(|a|, |b|) over the reports, both ``-`` when no number at the
path moved.  The ``norm.value`` line ends with ``beyond bound <k>``: how
many reports moved their norm by more than the smaller of the two sides'
``norm.error_bound``.  Every
non-numeric difference (a string, a flag, a null, a value present on one
side only) follows on a line of its own::

    <workload> <case id> <path>: <parent value> -> <change value>

With no difference at all it prints ``identical in <reports> reports``.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import re
import subprocess
import sys
from pathlib import Path

from report_digests import classify_case, load, outside_cases, workload_cases
from to_lacuna1 import to_lacuna1


def _dump(root: Path, seed: int) -> None:
    """Print one JSON line per (workload, case): the report as a dict."""
    lacuna, cases = load(root)
    outside = (("outside", case) for case in outside_cases(lacuna, cases))
    for workload, case in itertools.chain(workload_cases(cases, root, seed), outside):
        if case.kind != "classify":
            continue
        try:
            report = to_lacuna1(lacuna.cli_reports.report_to_dict(classify_case(lacuna, case)))
        except Exception as exc:  # the outcome is part of the behaviour being compared
            report = {"error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps([workload, case.id, report]), flush=True)


def _reports(root: Path, seed: int) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--dump", str(root), str(seed)],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: report dump exited {proc.returncode}\n{proc.stderr}")
    rows = (json.loads(line) for line in proc.stdout.splitlines())
    return {(workload, case): report for workload, case, report in rows}


def _leaves(node, path: str = "") -> dict:
    """The leaf values of a JSON document by their path, indices included."""
    if isinstance(node, dict):
        return {k: v for key, child in node.items() for k, v in _leaves(child, f"{path}.{key}" if path else key).items()}
    if isinstance(node, list):
        return {k: v for i, child in enumerate(node) for k, v in _leaves(child, f"{path}[{i}]").items()}
    return {path: node}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(parent: dict, change: dict) -> list[str]:
    """The lines that compare two report sets keyed by (workload, case)."""
    counts: collections.Counter = collections.Counter()
    largest: dict[str, list[float]] = {}  # path -> [absolute, relative]
    beyond = 0
    listed = []
    for key in parent:
        old, new = _leaves(parent[key]), _leaves(change[key])
        moved = set()
        for path in sorted(old.keys() | new.keys()):
            a, b = old.get(path, "<absent>"), new.get(path, "<absent>")
            if a == b or (_is_number(a) and _is_number(b) and math.isnan(a) and math.isnan(b)):
                continue
            general = re.sub(r"\[\d+\]", "[*]", path)
            moved.add(general)
            if _is_number(a) and _is_number(b):
                diff = abs(a - b)
                top = largest.setdefault(general, [0.0, 0.0])
                top[:] = max(top[0], diff), max(top[1], diff / max(abs(a), abs(b)))
                if path == "norm.value":
                    beyond += diff > min(old["norm.error_bound"], new["norm.error_bound"])
            else:
                listed.append(f"{key[0]} {key[1]} {path}: {a!r} -> {b!r}")
        counts.update(moved)
    out = [] if counts else [f"identical in {len(parent)} reports"]
    for general in sorted(counts):
        diff, rel = (f"{x:.3g}" for x in largest[general]) if general in largest else ("-", "-")
        line = f"{general} differs in {counts[general]}/{len(parent)} max |diff| {diff} max rel {rel}"
        out.append(line + (f" beyond bound {beyond}" if general == "norm.value" else ""))
    return out + listed


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--dump":
        _dump(Path(argv[1]), int(argv[2]))
        return 0
    if len(argv) != 3:
        print("usage: python3 tools/report_fields.py PARENT CHANGE SEED", file=sys.stderr)
        return 1
    parent, change = (_reports(Path(arg).resolve(), int(argv[2])) for arg in argv[:2])
    if parent.keys() != change.keys():
        raise SystemExit("the two checkouts classify different cases")
    for line in compare(parent, change):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
