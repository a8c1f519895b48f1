"""Spans around the program's public functions, installed from outside.

Each traced function is replaced at every name a caller uses: a function
imported with ``from .poly_core import gcd_exact`` lives on as a global of
the importing module, so all ``lacuna`` modules binding the same object get
the wrapper.  ``restore()`` puts the originals back.

A span records its case, its parent span, the name of the calling Python
function, start, end, the exception class if one escaped, and one number
read from the result where a metric needs it.  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import sys
import time
from contextlib import contextmanager

# (module, function) pairs at the layer boundaries of the pipeline
TARGETS = (
    ("poly_core", "parse_poly"),
    ("poly_core", "gcd_exact"),
    ("poly_core", "square_free_decomposition"),
    ("circle_analysis", "l1_norm"),
    ("circle_analysis", "find_zeros"),
    ("factorization", "canonical_factorization"),
    ("factorization", "tilde_factorization"),
    ("matrix_builder", "build_matrix"),
    ("matrix_builder", "rank_and_kernel"),
    ("plus_cone", "plus_dimension"),
    ("plus_cone", "find_plus_in_slice"),
    ("plus_cone", "is_plus"),
    ("plus_cone", "certify_nonneg_exact"),
    ("classifier", "classify"),
    ("classifier", "make_non_extreme_witness"),
    ("classifier", "make_non_exposed_witness"),
    ("classifier", "symbol_to_poly"),
    ("cli_reports", "report_to_dict"),
)

WITNESS_BUILDERS = ("make_non_extreme_witness", "make_non_exposed_witness")
WITNESS_SPANS = tuple(f"classifier.{n}" for n in WITNESS_BUILDERS)
ROOT = "case"


def _panels(result):
    return result.panels


def _hit(result):
    return 0 if result is None else 1


# functions whose result carries a number a metric needs
_EXTRACT = {
    "circle_analysis.l1_norm": _panels,
    "plus_cone.find_plus_in_slice": _hit,
}


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    case: str
    name: str
    caller: str
    start: float
    end: float = 0.0
    error: str | None = None
    value: float | None = None


class Tracer:
    def __init__(self, package, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._case = ""
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for n, m in sorted(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]

    def install(self, targets=TARGETS) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for mod_name, fn_name in targets:
            original = getattr(getattr(self.package, mod_name), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self, targets=TARGETS):
        self.install(targets)
        try:
            yield self
        finally:
            self.restore()

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, caller: str) -> Span:
        span = Span(
            len(self.spans), self._stack[-1] if self._stack else None, self._case, name, caller, self.clock()
        )
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        extract = _EXTRACT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, sys._getframe(1).f_code.co_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if extract is not None:
                span.value = extract(result)
            return result

        return wrapper

    @contextmanager
    def case(self, case_id: str):
        """Root span of one case; every span opened inside carries its id."""
        self._case = case_id
        span = self._open(ROOT, "")
        try:
            yield span
        finally:
            self._close(span)
            self._case = ""


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: self seconds, calls, errors by class, extracted values."""
    out: dict[str, dict[str, float]] = collections.defaultdict(lambda: collections.defaultdict(float))
    for s, own in zip(spans, self_times(spans)):
        agg = out[s.name]
        agg["s"] += own
        agg["calls"] += 1
        if s.error is not None:
            agg[f"error:{s.error}"] += 1
        if s.value is not None:
            agg["value"] += s.value
    # witness candidates: kernel vectors a witness builder turns into perturbations
    cand = sum(1 for s in spans if s.name == "classifier.symbol_to_poly" and s.caller in WITNESS_BUILDERS)
    accepted = sum(1 for s in spans if s.name in WITNESS_SPANS and s.error is None)
    out["classifier.witness"]["candidates"] = cand
    out["classifier.witness"]["accepted"] = accepted
    return {k: dict(v) for k, v in out.items()}


def family(case_id: str) -> str:
    return case_id.split("-", 1)[0]


def layer_shares(spans: list[Span]) -> dict:
    """Self time by function and by module as shares of all traced case time,
    and call counts split by case family."""
    own = self_times(spans)
    total = sum(s.end - s.start for s in spans if s.parent is None)
    by_fn: dict[str, float] = collections.defaultdict(float)
    calls: dict[str, dict[str, int]] = collections.defaultdict(lambda: collections.defaultdict(int))
    for s, o in zip(spans, own):
        by_fn[s.name] += o
        calls[family(s.case)][s.name] += 1
    by_mod: dict[str, float] = collections.defaultdict(float)
    for name, v in by_fn.items():
        by_mod[name.split(".")[0]] += v
    return {
        "traced_case_s": total,
        "functions": {k: v / total for k, v in sorted(by_fn.items())} if total else {},
        "modules": {k: v / total for k, v in sorted(by_mod.items())} if total else {},
        "calls_by_family": {f: dict(sorted(c.items())) for f, c in sorted(calls.items())},
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], n_cases: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, normalized per traced case where they are rates."""
    t = layer_totals(spans)

    def get(name, key):
        return t.get(name, {}).get(key, 0.0)

    per = max(n_cases, 1)
    m: dict[str, tuple[float, str]] = {}
    for mod_fn in (
        "poly_core.gcd_exact", "poly_core.square_free_decomposition", "poly_core.parse_poly",
        "circle_analysis.find_zeros", "circle_analysis.l1_norm",
        "factorization.canonical_factorization", "factorization.tilde_factorization",
        "matrix_builder.build_matrix", "matrix_builder.rank_and_kernel",
        "plus_cone.plus_dimension", "plus_cone.find_plus_in_slice", "plus_cone.is_plus",
        "plus_cone.certify_nonneg_exact", "classifier.classify",
        "classifier.make_non_extreme_witness", "classifier.make_non_exposed_witness",
        "cli_reports.report_to_dict",
    ):
        m[f"{mod_fn}.s"] = (get(mod_fn, "s") / per, "s/case")
    for mod_fn in (
        "poly_core.gcd_exact", "poly_core.square_free_decomposition", "circle_analysis.find_zeros",
        "plus_cone.plus_dimension", "plus_cone.find_plus_in_slice", "plus_cone.is_plus",
        "plus_cone.certify_nonneg_exact",
    ):
        m[f"{mod_fn}.calls"] = (get(mod_fn, "calls") / per, "1/case")
    m["circle_analysis.l1_norm.panels"] = (get("circle_analysis.l1_norm", "value") / per, "1/case")
    slice_calls = get("plus_cone.find_plus_in_slice", "calls")
    m["plus_cone.find_plus_in_slice.hit_frac"] = (_ratio(get("plus_cone.find_plus_in_slice", "value"), slice_calls), "ratio")
    m["plus_cone.find_plus_in_slice.stalled"] = (get("plus_cone.find_plus_in_slice", "error:SolverStalled"), "count")
    m["classifier.witness.candidates"] = (get("classifier.witness", "candidates") / per, "1/case")
    m["classifier.witness.accept_frac"] = (
        _ratio(get("classifier.witness", "accepted"), get("classifier.witness", "candidates")), "ratio"
    )
    return m
