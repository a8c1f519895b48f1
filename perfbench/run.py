"""Benchmark of lacuna: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload exact_generic --seed 1 --seconds 12 --trace 0

Run from the repository root.  One case does what one ``lacuna classify``
job does: parse the input, ``classify`` in exact mode with default options
otherwise, and render ``report_to_dict`` with ``json.dumps``.  Each case is
checked against an expectation known by construction (``cases.py``) and
every report must hash the same across runs of the case (digests of
earlier runs are kept under ``.perfbench/``).

Every seed gives the workload's mix of cases with fresh random inputs.
``--trace 0`` runs every case at least ``MIN_RUNS`` times and gives it an
equal share of ``--seconds``: rounds run each case that is short of
either, and a case counts with its fastest run.  Set-up probes run between
cases.  It prints the end-to-end metrics.
``--trace 1`` runs every case once untraced, once more with spans around
the program's public functions, then the workload's census of inputs that
hit open defects, and prints the per-layer metrics.
The last line of standard output is the result object; the line before it
holds the details (environment, outcome counts, census, tracing overhead).
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()

# numpy's OpenBLAS/OpenMP pools are pinned to one thread before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
for _p in (ROOT, ROOT / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from perfbench import harness  # noqa: E402
from perfbench.cases import WORKLOADS, Case, make_cases, make_census  # noqa: E402

# per-case wall-time limit; a case over it is stopped and counted as timeout
LIMITS = {"exact_generic": 20.0, "exact_circle": 15.0}
# a case's time is its fastest run, the one least slowed by other load on a
# shared machine.  Every case runs at least MIN_RUNS times, a round apart;
# short cases, which feel the machine's second-to-second drift most, run
# until they used their share of the run, up to MAX_RUNS times.
MIN_RUNS = 3
MAX_RUNS = 16
# set-ups per run; setup_s is the fastest, which varies much less from run
# to run than their median on a machine whose speed drifts
SETUP_PROBES = 9
LATENCY_PERCENTILE = 0.80
STATE_DIR = ROOT / ".perfbench"
PROGRAM_MODULES = ("poly_core", "circle_analysis", "factorization", "matrix_builder",
                   "plus_cone", "classifier", "cli_reports")

WARMUP = Case("warmup", "warmup", "classify", "2 - 3z + z^3", 3, (2,))


def load_program():
    """Import lacuna from this checkout's sources."""
    if not (ROOT / "src" / "lacuna" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lacuna sources under {ROOT / 'src'}")
    lacuna = importlib.import_module("lacuna")
    for name in PROGRAM_MODULES:
        importlib.import_module(f"lacuna.{name}")
    return lacuna


def warm_up(lacuna) -> None:
    res = harness.run_case(WARMUP, lacuna, limit=60.0)
    if res.outcome != harness.DECIDED:
        raise SystemExit(f"perfbench: warm-up case failed: {res.outcome} {res.detail}")


def measure_setup() -> float:
    """Wall time from starting a fresh interpreter to its first case being
    ready (imports plus one warm-up case).  The child runs while no case is
    being timed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.close()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"perfbench: setup probe failed (exit {proc.returncode})")
    return seconds


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """Commit of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "git_commit": git_commit(),
        "source_fingerprint": source_fingerprint(),
    }


def load_digests(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def save_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(obj, sort_keys=True))
    os.replace(tmp, path)


def run_shares(cases, seconds, lacuna, limit, stability, between=lambda elapsed: None):
    """Runs per case.

    Every case gets an equal share of ``seconds``.  Rounds run, in order,
    each case that has run fewer than ``MIN_RUNS`` times or whose runs add
    up to less than its share, so the runs of a case lie a round apart; a
    case runs at most ``MAX_RUNS`` times and not again once it failed.
    ``between(elapsed)`` is called before each run with the case time so
    far.
    """
    share = seconds / len(cases)
    per_case: list[list[harness.Result]] = [[] for _ in cases]
    spent = [0.0] * len(cases)
    elapsed = 0.0

    def due(i: int) -> bool:
        runs = per_case[i]
        if runs and runs[-1].outcome != harness.DECIDED:
            return False
        return len(runs) < MIN_RUNS or (spent[i] < share and len(runs) < MAX_RUNS)

    while todo := [i for i in range(len(cases)) if due(i)]:
        for i in todo:
            between(elapsed)
            res = harness.run_case(cases[i], lacuna, limit)
            per_case[i].append(res)
            spent[i] += res.seconds
            elapsed += res.seconds
    for runs in per_case:
        for res in runs:
            stability.apply(res)
    return per_case


def run_each(cases, lacuna, limit, stability, tracer=None):
    """One run per case, each under its own root span if ``tracer`` is set."""
    results = []
    for case in cases:
        with tracer.case(case.id) if tracer else contextlib.nullcontext():
            res = harness.run_case(case, lacuna, limit)
        stability.apply(res)
        results.append(res)
    return results


def decided(results) -> int:
    return sum(r.outcome == harness.DECIDED for r in results)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def probe() -> int:
    lacuna = load_program()
    warm_up(lacuna)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def end_to_end(args, lacuna, limit, stability, details):
    """Each case counts with its fastest run.  The set-up probes are spread
    evenly over the first ``--seconds`` of case time."""
    setup_times: list[float] = []

    def probe_when_due(elapsed: float) -> None:
        if len(setup_times) < SETUP_PROBES and elapsed >= len(setup_times) * args.seconds / SETUP_PROBES:
            setup_times.append(measure_setup())

    cases = make_cases(args.workload, args.seed, ROOT / "corpus")
    per_case = run_shares(cases, args.seconds, lacuna, limit, stability, probe_when_due)
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(measure_setup())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    best = [harness.best_of(reps) for reps in per_case]
    samples = harness.latency_samples(best, limit)
    p_hi = harness.percentile(samples, LATENCY_PERCENTILE)
    details.update(cases=len(best),
                   samples_beyond_p80=sum(x > p_hi for x in samples), setup_probe_s=setup_times)
    metrics = {
        "decided_per_s": metric(decided(best) / sum(r.seconds for r in best), "1/s"),
        "case_s_p50": metric(harness.percentile(samples, 0.5), "s"),
        "case_s_p80": metric(p_hi, "s"),
        "setup_s": metric(min(setup_times), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    return [r for reps in per_case for r in reps], metrics


def per_layer(args, lacuna, limit, stability, details):
    """Every case once untraced and once with spans (the two give the
    tracing overhead and a byte-stability check), then the census with
    spans."""
    from perfbench.tracing import Tracer, layer_metrics, layer_shares

    census = make_census(args.workload, ROOT / "corpus")
    cases = make_cases(args.workload, args.seed, ROOT / "corpus")
    untraced = run_each(cases, lacuna, limit, stability)
    tracer = Tracer(lacuna)
    with tracer.installed():
        traced = run_each(cases, lacuna, limit, stability, tracer)
        census_results = run_each(census, lacuna, limit, stability, tracer)
    untraced_rate = decided(untraced) / sum(r.seconds for r in untraced)
    traced_rate = decided(traced) / sum(r.seconds for r in traced)
    details.update(tracing={
        "untraced_decided_per_s": untraced_rate,
        "traced_decided_per_s": traced_rate,
        "overhead_decided_per_s": traced_rate - untraced_rate,
        "spans": len(tracer.spans),
        "self_time_share": layer_shares(tracer.spans),
    })
    save_json(STATE_DIR / f"spans-{args.workload}-seed{args.seed}.json", [vars(s) for s in tracer.spans])
    metrics = {k: metric(v, u) for k, (v, u) in layer_metrics(tracer.spans, len(traced) + len(census)).items()}
    return untraced + traced, census_results, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return probe()
    if args.workload is None:
        ap.error("--workload is required")

    lacuna = load_program()
    warm_up(lacuna)
    own_setup_s = time.perf_counter() - _T0
    limit = LIMITS[args.workload]
    env = environment(args.seed)
    digest_path = STATE_DIR / f"report_digests-{env['source_fingerprint']}.json"
    stability = harness.StabilityCheck(load_digests(digest_path))
    details: dict = {"workload": args.workload, "env": env, "limit_s": limit, "own_setup_s": own_setup_s}

    if args.trace:
        results, census_results, metrics = per_layer(args, lacuna, limit, stability, details)
    else:
        results, metrics = end_to_end(args, lacuna, limit, stability, details)
        census_results = []

    save_json(digest_path, stability.known)
    failed = [r for r in results if r.outcome != harness.DECIDED]
    wrong = [r for r in results + census_results if r.outcome == "wrong"]
    details.update({
        "outcomes": harness.outcome_counts(results),
        "census_outcomes": harness.outcome_counts(census_results),
        "census": {r.case.id: r.outcome for r in census_results},
        "failures": sorted({f"{r.case.id}: {r.outcome} {r.detail}".strip() for r in failed + wrong}),
        "byte_stability_mismatches": stability.mismatches,
    })
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": not failed and not wrong,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
