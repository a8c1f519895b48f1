"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

Usage::

    python3 tools/bench_pairs.py PARENT CHANGE WORKLOAD SEED...

PARENT and CHANGE are lacuna source trees.  For each SEED the script runs
the benchmark command of PARENT's ``BENCHMARK.json`` (``perfbench/run.py``)
once in each checkout, for the declared ``run_seconds``, and takes the
result object from the last line of its output.  The side that runs first
alternates from pair to pair; after each pair a progress line on standard
error says whether the parent or the change ran first.  It then prints one
line per end-to-end metric of ``BENCHMARK.json``::

    <metric> <unit> parent <median> [<q1> <q3>] change <median> [<q1> <q3>] change better in <w>/<pairs>: <verdict>

where a pair counts as won only when the change's value is strictly better
in the direction the benchmark declares (ties count for neither side), and
the verdict is ``verdict``'s reading of the runs against the metric's
``bound``; then the failed and attempted operations of each side.  Last it
prints the same summary as one JSON object on one line: the workload,
seeds, run length, CPU count and Python version, and per metric each side's
runs in seed order with their median and quartiles, the pairs the change
won and the verdict.  The runs write nothing but what the benchmark itself
keeps in each checkout.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def _run(checkout: Path, spec: dict, workload: str, seed: str) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", seed,
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _summary(values: list[float]) -> str:
    q1, median, q3 = _quartiles(values)
    return f"{median:.6g}" if len(values) < 2 else f"{median:.6g} [{q1:.6g} {q3:.6g}]"


def _side(values: list[float]) -> dict:
    q1, median, q3 = _quartiles(values)
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def verdict(old: list[float], new: list[float], better: str, bound: float) -> str:
    """How a benchmark check reads one metric over the pairs (old[i], new[i]).

    ``worse``: the change's median is worse than the parent's by more than
    ``bound`` times the parent's median.  ``unresolved``: otherwise, when the
    parent's own interquartile range is wider than that.  ``claim met``: the
    change won at least 9 in 10 pairs and its median is better than the
    parent's by more than the parent's interquartile range.  ``flat``:
    anything else.
    """
    sign = 1 if better == "higher" else -1
    q1, median, q3 = _quartiles(old)
    gain = sign * (_quartiles(new)[1] - median)
    if gain < -bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median):
        return "unresolved"
    wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
    if 10 * wins >= 9 * len(old) and gain > q3 - q1:
        return "claim met"
    return "flat"


def main(argv: list[str]) -> int:
    if len(argv) < 4:
        print("usage: python3 tools/bench_pairs.py PARENT CHANGE WORKLOAD SEED...", file=sys.stderr)
        return 1
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workload, seeds = argv[2], argv[3:]
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    runs: dict[Path, list[dict]] = {parent: [], change: []}
    for i, seed in enumerate(seeds):
        order = (parent, change) if i % 2 == 0 else (change, parent)
        for checkout in order:
            runs[checkout].append(_run(checkout, spec, workload, seed))
        first = "parent" if i % 2 == 0 else "change"
        print(f"pair {i + 1}/{len(seeds)} seed {seed} done ({first} first)", file=sys.stderr)

    summary = {"workload": workload, "seeds": seeds, "run_seconds": spec["run_seconds"],
               "cpus": os.cpu_count(), "python": platform.python_version(), "metrics": {}}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        old = [r["metrics"][name]["value"] for r in runs[parent]]
        new = [r["metrics"][name]["value"] for r in runs[change]]
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        reading = verdict(old, new, metric["better"], metric["bound"])
        print(f"{name} {metric['unit']} parent {_summary(old)} change {_summary(new)} "
              f"change better in {wins}/{len(seeds)}: {reading}")
        summary["metrics"][name] = {"unit": metric["unit"], "better": metric["better"],
                                    "parent": _side(old), "change": _side(new), "change_better": wins,
                                    "verdict": reading}
    for label, checkout in (("parent", parent), ("change", change)):
        failed = sum(r["failed"] for r in runs[checkout])
        attempted = sum(r["attempted"] for r in runs[checkout])
        print(f"{label} failed {failed} of {attempted} attempted")
        summary[label] = {"failed": failed, "attempted": attempted}
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
