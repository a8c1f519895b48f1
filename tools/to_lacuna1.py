"""Rebuild the ``lacuna/1`` form of a ``lacuna/2`` document.

Usage::

    python3 tools/to_lacuna1.py [REPORT]

reads a JSON document that ``lacuna`` wrote (the file REPORT, or standard
input) and prints its ``lacuna/1`` form as ``lacuna`` printed it: sorted
keys, indent 2, a final newline.  A ``lacuna/2`` classify report leaves out
what exact arithmetic on its written facts rebuilds, and ``to_lacuna1``
writes it back:

* ``factorization.cofactor`` is ``polynomial`` / ``disk_factor``;
* ``tilde.total_factor`` is ``disk_factor`` * ``circle_factor``, and
  ``tilde.reduced_cofactor`` is the cofactor / ``circle_factor``;
* ``matrix_tilde`` written as ``{"same_as": "matrix"}`` is ``matrix`` with
  ``kind`` ``"tilde"``;
* a witness with ``same_as`` takes its ``vector``, ``perturbation`` and
  ``spectrum`` from the witness at that index;
* ``diagnostics.plus_vectors_found`` is ``dim_plus`` where that is not
  null (an older ``lacuna/2`` document that still writes it keeps its own).

The other ``lacuna/2`` documents (``plusdim`` and ``norm``) differ from
``lacuna/1`` only in their tag, and a ``lacuna/1`` document passes through
as it is.  The arithmetic is lacuna's own (``divide_exact``,
``poly_to_json``): the script imports it from this checkout's ``src/``,
and a caller of ``to_lacuna1`` from wherever it imported ``lacuna``.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path


def to_lacuna1(doc: dict) -> dict:
    """The ``lacuna/1`` form of a ``lacuna/2`` document; any other document
    as it is.  ``doc`` is not changed."""
    if doc.get("schema") != "lacuna/2":
        return doc
    from lacuna.poly_core import divide_exact, poly_from_json, poly_to_json

    out = copy.deepcopy(doc)
    out["schema"] = "lacuna/1"
    if "factorization" not in out:  # a plusdim or norm document
        return out
    fac, til = out["factorization"], out["tilde"]
    G, C = poly_from_json(fac["disk_factor"]), poly_from_json(til["circle_factor"])
    cofactor = divide_exact(poly_from_json(out["polynomial"]), G)
    fac["cofactor"] = poly_to_json(cofactor)
    til["total_factor"] = poly_to_json(G * C)
    til["reduced_cofactor"] = poly_to_json(divide_exact(cofactor, C))
    if out["matrix_tilde"] == {"same_as": "matrix"}:
        out["matrix_tilde"] = {**out["matrix"], "kind": "tilde"}
    for w in out["witnesses"]:
        if "same_as" in w:
            first = out["witnesses"][w.pop("same_as")]
            w.update({key: first[key] for key in ("vector", "perturbation", "spectrum")})
    if out["dim_plus"] is not None:
        out["diagnostics"].setdefault("plus_vectors_found", out["dim_plus"])
    return out


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python3 tools/to_lacuna1.py [REPORT]", file=sys.stderr)
        return 1
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    text = Path(argv[0]).read_text() if argv else sys.stdin.read()
    sys.stdout.write(json.dumps(to_lacuna1(json.loads(text)), indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
