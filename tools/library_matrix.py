"""The library matrix: library calls that no command makes, on the algebras
of the command matrix, for byte-identity checks between two source trees.

    python tools/library_matrix.py --manifest OUT.json
    python tools/library_matrix.py --compare A.json B.json

Each record holds the call as ``argv`` and the sha256 of its rendered result:
a report as json-lines, a matrix by its shape and rows, a record or a tuple
field by field, or the type and message of the exception it raised.  The run
exits 1 when a call raises anything but a ``DualQuasiError`` or a
``ValueError``.  ``--compare`` is the command matrix's.  The calls run with
this tree's ``src`` and ``tests/helpers.py``; to record an older tree, run
that tree's own copy of the script.

Calls, with S the solver's preantipode, or zero where H has none:
- on Ĥ of each algebra: ``structure_isomorphism``, ``coinvariant_retraction``,
  ``retraction_report`` with and without ``inverse``, ``coinvariant_comodule``
  and, with antipode data, ``check_projection_formula``;
- ``adjunction_unit`` on H as a left comodule over itself;
- ``anti_homomorphism_defect`` on the group algebras;
- ``check_antipode`` for every single-entry change of Sweedler's s, α or β to
  0, 1, 2, −1 or 3, and ``check_preantipode`` for every such change of s;
- both for every single-entry change of Sweedler's Δ to 1, −1 or 2.  Such a Δ
  is not coassociative, so these fix the order in which Δ² is expanded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback
from collections import Counter
from pathlib import Path

from command_matrix import ROOT, _bases, compare


def _render(x) -> str:
    from dualquasi import Matrix, Report, serialize_report
    from dualquasi.values import Value

    if isinstance(x, Report):
        return serialize_report(x, "json-lines")
    if isinstance(x, Matrix):
        return f"{x.rows}x{x.cols}\n{x}"
    if isinstance(x, Value):
        return f"{type(x).__name__}(" + ", ".join(_render(v) for v in x._values()) + ")"
    if isinstance(x, (tuple, list)):
        return "(" + ", ".join(map(_render, x)) + ")"
    return str(x)


def _sweedler_changes():
    """(label, algebra, antipode data, whether to check s as a preantipode)
    for the single-entry changes of Sweedler's s, α, β and Δ."""
    from helpers import sweedler_four_dim_hopf, with_entry, with_parts
    from dualquasi import AntipodeData

    H, data = sweedler_four_dim_hopf()
    num = H.field.from_fraction
    for part in ("s", "alpha", "beta"):
        m = getattr(data, part)
        for row in range(m.rows):
            for col in range(m.cols):
                for v in (0, 1, 2, -1, 3):
                    parts = {"s": data.s, "alpha": data.alpha, "beta": data.beta,
                             part: with_entry(m, row, col, num(v))}
                    yield ([part, str(row), str(col), str(v)], H,
                           AntipodeData(parts["s"], parts["alpha"], parts["beta"]), part == "s")
    for row in range(H.delta.rows):
        for col in range(H.delta.cols):
            for v in (1, -1, 2):
                K = with_parts(H, delta=with_entry(H.delta, row, col, num(v)))
                yield ["delta", str(row), str(col), str(v)], K, data, True


def run() -> list[dict]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from dualquasi import (DualQuasiError, LeftComodule, Matrix, adjunction_unit,
                           anti_homomorphism_defect, check_antipode, check_preantipode,
                           check_projection_formula, coinvariant_comodule,
                           coinvariant_retraction, hhat, retraction_report,
                           solve_preantipode, structure_isomorphism)

    records = []

    def record(argv, call, *args, **kwargs):
        crashed = False
        try:
            text, raised = _render(call(*args, **kwargs)), None
        except Exception as exc:
            text, raised = f"{type(exc).__name__}: {exc}", type(exc).__name__
            crashed = not isinstance(exc, (DualQuasiError, ValueError))
            if crashed:
                traceback.print_exc()
        records.append({"argv": argv, "result": hashlib.sha256(text.encode()).hexdigest(),
                        "raised": raised, "crashed": crashed})

    for name, H, data, group in _bases():
        family = solve_preantipode(H)
        S = family.particular if family else Matrix.zeros(H.field, H.dim, H.dim)
        for call, kwargs in ((structure_isomorphism, {}), (coinvariant_retraction, {}),
                             (retraction_report, {}), (retraction_report, {"inverse": True})):
            record([name, call.__name__, *kwargs], call, H, S, hhat(H), **kwargs)
        record([name, "coinvariant_comodule"], coinvariant_comodule, H, hhat(H))
        if data is not None:
            record([name, "check_projection_formula"], check_projection_formula, H, data,
                   hhat(H))
        record([name, "adjunction_unit"], adjunction_unit, H, LeftComodule(H.dim, H.delta))
        if group is not None:
            record([name, "anti_homomorphism_defect"], anti_homomorphism_defect, group, H, S)
    for label, K, data, preantipode in _sweedler_changes():
        record(["sweedler", "check_antipode", *label], check_antipode, K, data)
        if preantipode:
            record(["sweedler", "check_preantipode", *label], check_preantipode, K, data.s)
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--manifest", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    records = run()
    if args.manifest:
        args.manifest.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    raised = Counter(r["raised"] for r in records if r["raised"])
    print(f"{len(records)} calls; raised {dict(sorted(raised.items()))}")
    for r in records:
        if r["crashed"]:
            print("crashed:", " ".join(r["argv"]), r["raised"])
    return 1 if any(r["crashed"] for r in records) else 0


if __name__ == "__main__":
    raise SystemExit(main())
