"""Running cases: the CLI-sized job, its time limit, outcome and statistics.

Every case ends in exactly one outcome: ``decided_ok``, ``wrong``,
``undecided``, ``error:<ExceptionClass>`` or ``timeout``.  Nothing is
dropped; a case that misses its expectation still counts as attempted.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import hashlib
import json
import signal
import time
from fractions import Fraction

import numpy as np

from .cases import Case

DECIDED = "decided_ok"


class CaseTimeout(BaseException):
    """Raised by the alarm; a BaseException so the program's own
    ``except Exception`` handlers cannot swallow it."""


@contextlib.contextmanager
def time_limit(seconds: float):
    """Stop the body in-process after ``seconds`` of wall time."""

    def _expire(signum, frame):
        raise CaseTimeout()

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclasses.dataclass
class Result:
    case: Case
    outcome: str
    seconds: float
    digest: str | None = None
    detail: str = ""


def execute(case: Case, lacuna):
    """The timed job: parse, classify and render, as the CLI does.

    Functions are looked up on the modules at call time, so wrappers
    installed by a tracer are the ones called.
    """
    if case.kind == "plusdim":
        d = int(case.source["d"])
        rows = [[float(Fraction(x)) for x in row] for row in case.source["basis"]]
        dim, _ = lacuna.plus_cone.plus_dimension(np.array(rows, dtype=float).reshape(-1, 2 * d + 1))
        return dim, None
    p = lacuna.poly_core.parse_poly(case.source)
    opts = dict(case.options)
    opts.setdefault("mode", "exact")
    pattern = lacuna.poly_core.LacunaryPattern(case.N, case.forbidden)
    rep = lacuna.classifier.classify(p, pattern, lacuna.classifier.ClassifyOptions(**opts))
    text = json.dumps(lacuna.cli_reports.report_to_dict(rep), indent=2, sort_keys=True) + "\n"
    return rep, text


def _rows_match_up_to_scale(actual: np.ndarray, expected_rows, tol: float = 1e-9) -> bool:
    exp = np.array([[float(Fraction(x)) for x in row] for row in expected_rows], dtype=float)
    if actual.shape != exp.shape:
        return False
    idx = np.unravel_index(np.argmax(np.abs(exp)), exp.shape)
    if exp[idx] == 0:
        return bool(np.max(np.abs(actual), initial=0.0) <= tol)
    ratio = actual[idx] / exp[idx]
    return bool(np.max(np.abs(actual - ratio * exp)) <= tol * max(1.0, float(np.max(np.abs(actual)))))


def check(case: Case, value) -> tuple[str, str]:
    """Outcome and detail of a finished case against its expectation."""
    exp = case.expect
    if case.kind == "plusdim":
        want = (exp or {}).get("dim_plus")
        if want is not None and value != want:
            return "wrong", f"dim_plus {value} != {want}"
        return DECIDED, ""
    rep = value
    if rep.undecided:
        return "undecided", str(rep.diagnostics.get("undecided_reason", ""))
    if exp is None:
        return DECIDED, ""
    problems = []
    for key in ("extreme", "exposed", "dim_plus"):
        if key in exp and getattr(rep, key) != exp[key]:
            problems.append(f"{key} {getattr(rep, key)} != {exp[key]}")
    if "witness_kinds" in exp:
        kinds = sorted(w.kind for w in rep.witnesses)
        if kinds != sorted(exp["witness_kinds"]):
            problems.append(f"witnesses {kinds} != {sorted(exp['witness_kinds'])}")
    for key in ("matrix", "matrix_tilde"):
        if key in exp and not _rows_match_up_to_scale(getattr(rep, key).as_array(), exp[key]["rows"]):
            problems.append(f"{key} differs beyond a scalar multiple")
    return ("wrong", "; ".join(problems)) if problems else (DECIDED, "")


def run_case(case: Case, lacuna, limit: float, clock=time.perf_counter) -> Result:
    t0 = clock()
    try:
        with time_limit(limit):
            value, text = execute(case, lacuna)
    except CaseTimeout:
        return Result(case, "timeout", clock() - t0, detail=f"over {limit} s")
    except Exception as exc:  # every program failure becomes an outcome
        return Result(case, f"error:{type(exc).__name__}", clock() - t0, detail=str(exc)[:200])
    seconds = clock() - t0
    outcome, detail = check(case, value)
    digest = hashlib.sha256(text.encode()).hexdigest() if text is not None else None
    return Result(case, outcome, seconds, digest, detail)


def case_key(case: Case) -> str:
    """Identity of a case's input, independent of the seed that made it."""
    blob = json.dumps(
        [case.kind, case.source, case.N, case.forbidden, case.options], sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


class StabilityCheck:
    """Reports must be byte-identical across runs of a case, in a process
    and across processes.

    ``known`` maps case keys to report digests from earlier runs of the
    same program; a case whose digest differs is marked ``wrong``.
    """

    def __init__(self, known: dict[str, str] | None = None):
        self.known = dict(known or {})
        self.mismatches = 0

    def apply(self, result: Result) -> None:
        if result.digest is None:
            return
        key = case_key(result.case)
        seen = self.known.setdefault(key, result.digest)
        if seen != result.digest:
            self.mismatches += 1
            result.outcome = "wrong"
            result.detail = f"report bytes changed ({seen[:12]} -> {result.digest[:12]})"


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, q in (0, 1).

    A mean of all order statistics weighted by the Beta((n+1)q, (n+1)(1-q))
    distribution.  Where cases are few and their times far apart, as in the
    tail of a fixed family, it moves smoothly when two cases swap places,
    where a single order statistic would jump from one case to the other.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    # regularized incomplete beta function at i/n, by quadrature of the density
    t = np.linspace(0.0, 1.0, 16385)[1:-1]
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ xs)


def best_of(reps: list[Result]) -> Result:
    """One case's result over its runs: the first failure if any run
    failed, else the fastest run.

    Other tenants of a shared machine slow it down for seconds at a time;
    the fastest of runs spread over a run of the benchmark is the least
    disturbed.
    """
    for r in reps:
        if r.outcome != DECIDED:
            return r
    return min(reps, key=lambda r: r.seconds)


def latency_samples(results: list[Result], limit: float) -> list[float]:
    """Per-case wall times; any case not decided correctly counts as the limit."""
    return [r.seconds if r.outcome == DECIDED else limit for r in results]


def outcome_counts(results: list[Result]) -> dict[str, int]:
    return dict(sorted(collections.Counter(r.outcome for r in results).items()))
