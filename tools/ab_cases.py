"""Time the benchmark cases on two checkouts in one process, alternating.

Usage::

    python3 tools/ab_cases.py PARENT CHANGE WORKLOAD [--seed S] [--runs N] [--cases K]

PARENT and CHANGE are lacuna source trees.  Each one's ``src/lacuna`` is
imported as a package of its own name (``lacuna_parent`` and
``lacuna_change``), so both sides run in one process on the same inputs.
The cases of WORKLOAD at seed S (the first K of them, if given) come from
PARENT's ``perfbench/``, which is imported and not written to.  WORKLOAD
``lacunary`` is built here instead, with no seed: q(z^k) on k Lambda for
each k in ``LACUNARY_K``, one family per k, where q(w) is ``LACUNARY_Q``
and Lambda is its full pattern of degree 7.  q(w) -> q(w^k) is an isometry of
L1 from P(Lambda) onto P(k Lambda), so each case expects the verdicts and
``dim_plus`` that PARENT gives q on Lambda.  WORKLOAD ``cyclotomic`` is
built here too, with no seed: (1 +- z^k)^j and (1 +- iz^k)^j for each k in
``CYCLOTOMIC_K`` and j in ``CYCLOTOMIC_J``, one family per k, each on its
full pattern and on the pattern that forbids every exponent off kZ, and
family ``products``, each product of two parts in ``CYCLOTOMIC_PRODUCTS``
on its full pattern, so that Yun reaches a last part after another; each
case expects the verdicts and ``dim_plus`` that PARENT gives it.  Every case
runs N times on each side, the sides alternating run by run, and counts
with its fastest run, as the benchmark counts it.  One line per family, and
one for all cases, gives each side's decided/s (decided cases over the sum
of their times) and the median and 80th percentile of case time (Harrell-
Davis, a failed case counting as the time limit), and how many cases'
report digests agree between the sides.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import sys
from pathlib import Path

LIMIT = 30.0
MODULES = ("poly_core", "plus_cone", "classifier", "cli_reports")
LACUNARY_Q = "((w - 1/2)(1 - w/2))^2 (3 + (1+2i)w - w^2 + (2-i)w^3)"
LACUNARY_K = (2, 3, 4, 6, 8, 12, 16, 24)
CYCLOTOMIC_FORMS = ("(1 + z^{k})^{j}", "(1 - z^{k})^{j}", "(1 + iz^{k})^{j}", "(1 - iz^{k})^{j}")
CYCLOTOMIC_K = (3, 6, 12, 24, 48)
CYCLOTOMIC_J = (2, 3)
CYCLOTOMIC_PRODUCTS = ("(1 + z)^2 (1 - z^3)^5", "(1 + iz)^4 (1 - z^2)")


def load(root: Path, name: str):
    """The package ``root/src/lacuna`` imported under ``name``."""
    pkg = root / "src" / "lacuna"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in MODULES:
        importlib.import_module(f"{name}.{sub}")
    return module


def _expect(lacuna, text: str, N: int, forbidden: tuple[int, ...]) -> dict:
    """The verdicts and ``dim_plus`` that ``lacuna`` gives text on (N, forbidden)."""
    pattern = lacuna.poly_core.LacunaryPattern(N, forbidden)
    rep = lacuna.classifier.classify(lacuna.poly_core.parse_poly(text), pattern)
    return {"extreme": rep.extreme, "exposed": rep.exposed, "dim_plus": rep.dim_plus}


def lacunary_cases(lacuna, Case, count: int | None = None) -> list:
    """q(z^k) on k Lambda for the first ``count`` k in ``LACUNARY_K`` (all
    when None), expecting q's verdicts on Lambda as ``lacuna`` decides them."""
    q = LACUNARY_Q.replace("w", "z")
    deg = lacuna.poly_core.parse_poly(q).deg
    expect = _expect(lacuna, q, deg, ())
    return [Case(f"lacunary-{k}", f"k={k}", "classify", LACUNARY_Q.replace("w", f"(z^{k})"),
                 deg * k, tuple(e for e in range(1, deg * k) if e % k), expect=expect)
            for k in LACUNARY_K[:count]]


def cyclotomic_cases(lacuna, Case, count: int | None = None) -> list:
    """Each form of ``CYCLOTOMIC_FORMS`` for k in ``CYCLOTOMIC_K`` and j in
    ``CYCLOTOMIC_J``, on its full pattern and on the one that forbids every
    exponent off kZ, then each product of ``CYCLOTOMIC_PRODUCTS`` on its full
    pattern, the first ``count`` of them (all when None), each expecting the
    verdicts ``lacuna`` gives it; only those are classified."""
    specs = [(f"cyclotomic-{k}-{j}-{n}-{name}", f"k={k}", form.format(k=k, j=j), j * k, forbidden)
             for k in CYCLOTOMIC_K for j in CYCLOTOMIC_J for n, form in enumerate(CYCLOTOMIC_FORMS)
             for name, forbidden in (("full", ()), ("gapped", tuple(e for e in range(1, j * k) if e % k)))]
    specs += [(f"cyclotomic-product-{n}", "products", text, lacuna.poly_core.parse_poly(text).deg, ())
              for n, text in enumerate(CYCLOTOMIC_PRODUCTS)]
    return [Case(case_id, family, "classify", text, N, forbidden, expect=_expect(lacuna, text, N, forbidden))
            for case_id, family, text, N, forbidden in specs[:count]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=8)
    ap.add_argument("--cases", type=int, default=None)
    args = ap.parse_args(argv)
    # as the benchmark does: one BLAS thread, set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(args.parent.resolve()))
    from perfbench import harness
    from perfbench.cases import Case, make_cases

    sides = {"parent": load(args.parent.resolve(), "lacuna_parent"),
             "change": load(args.change.resolve(), "lacuna_change")}
    if args.workload == "lacunary":
        cases = lacunary_cases(sides["parent"], Case, args.cases)
    elif args.workload == "cyclotomic":
        cases = cyclotomic_cases(sides["parent"], Case, args.cases)
    else:
        cases = make_cases(args.workload, args.seed, args.parent / "corpus")[: args.cases]
    best = {side: [] for side in sides}
    for case in cases:
        runs = {side: [] for side in sides}
        for _ in range(args.runs):
            for side, lacuna in sides.items():
                runs[side].append(harness.run_case(case, lacuna, LIMIT))
        for side in sides:
            best[side].append(harness.best_of(runs[side]))
    for family in list(dict.fromkeys(c.family for c in cases)) + ["all"]:
        idx = [i for i, c in enumerate(cases) if family in ("all", c.family)]
        cols = []
        for side in sides:
            res = [best[side][i] for i in idx]
            samples = harness.latency_samples(res, LIMIT)
            rate = sum(r.outcome == harness.DECIDED for r in res) / sum(r.seconds for r in res)
            cols.append(f"{side} {rate:.1f}/s p50 {harness.percentile(samples, 0.5) * 1e3:.2f} ms "
                        f"p80 {harness.percentile(samples, 0.8) * 1e3:.2f} ms")
        same = sum(best["parent"][i].digest == best["change"][i].digest for i in idx)
        print(f"{family:<11} {len(idx):3d} cases  {'  '.join(cols)}  digests agree {same}/{len(idx)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
