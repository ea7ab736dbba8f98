"""Pass/fail reports for axiom suites, with first-failure witnesses, and
their rendering."""

from __future__ import annotations

import json
from itertools import product
from typing import Callable, Iterable

from .values import Value


class Check(Value):
    """Outcome of one named identity.

    A failing check records the first offending basis tuple in lexicographic
    order together with the two unequal values, rendered canonically.
    """

    __slots__ = ("axiom", "passed", "witness", "lhs", "rhs")

    def __init__(self, axiom: str, passed: bool, witness: tuple[int, ...] | None = None,
                 lhs: str | None = None, rhs: str | None = None):
        self._set(axiom, passed, witness, lhs, rhs)


class Report(Value):
    """An ordered collection of checks; the verdict is their conjunction."""

    __slots__ = ("checks",)

    def __init__(self, checks: tuple[Check, ...]):
        self._set(checks)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def __iter__(self):
        return iter(self.checks)

    def __len__(self) -> int:
        return len(self.checks)


def _add(d: dict, key, value) -> None:
    """Add ``value`` into ``d[key]`` of an accumulated sparse vector."""
    d[key] = d.get(key) + value if key in d else value


def clean_terms(terms: dict) -> dict:
    """Drop exact zeros from an accumulated sparse vector."""
    return {k: v for k, v in terms.items() if v}


def terms_equal(lhs: dict, rhs: dict) -> bool:
    return clean_terms(lhs) == clean_terms(rhs)


def format_terms(terms: dict) -> str:
    """Deterministic rendering of a sparse vector keyed by basis multi-indices.

    A coefficient of more than one term is parenthesized: ``(z + 5)*e(0)``.
    """
    nonzero = sorted(clean_terms(terms).items())
    if not nonzero:
        return "0"
    parts = []
    for key, value in nonzero:
        idx = ",".join(str(k) for k in key)
        coef = str(value)
        if " " in coef:  # scalar text joins its terms with " + " or " - "
            coef = f"({coef})"
        parts.append(f"{coef}*e({idx})")
    return " + ".join(parts)


def basis_tuples(*dims: int):
    """Index tuples over range(d) for each d, in lexicographic order."""
    return product(*(range(d) for d in dims))


def check_identity(axiom: str, witnesses: Iterable, sides: Callable,
                   values: list | None = None) -> Check:
    """Check lhs = rhs at every witness, stopping at the first that differs.

    ``sides(*witness)`` returns the two sides: sparse vectors (dicts), compared
    with ``terms_equal`` and rendered with ``format_terms``, or scalars,
    compared with ``==`` and rendered with ``str``.  A witness of None stands
    for an identity without basis arguments and calls ``sides()``.  With
    ``values`` the sparse vectors hold integer codes of canonical scalars,
    code 0 for zero, and ``values[code]`` is the scalar a failure renders.
    """
    for witness in witnesses:
        lhs, rhs = sides(*(witness or ()))
        if isinstance(lhs, dict):
            if lhs != rhs and not terms_equal(lhs, rhs):
                if values is not None:
                    lhs, rhs = ({key: values[c] for key, c in side.items()}
                                for side in (lhs, rhs))
                return Check(axiom, False, witness, format_terms(lhs), format_terms(rhs))
        elif lhs != rhs:
            return Check(axiom, False, witness, str(lhs), str(rhs))
    return Check(axiom, True)


def serialize_report(report: Report, fmt: str = "text") -> str:
    """Render a report deterministically.

    ``text``: one PASS/FAIL line per axiom plus a summary line.
    ``json-lines``: one record per axiom with keys axiom/pass/witness/lhs/rhs.
    """
    if fmt == "json-lines":
        lines = []
        for c in report:
            lines.append(json.dumps({
                "axiom": c.axiom,
                "pass": c.passed,
                "witness": list(c.witness) if c.witness is not None else None,
                "lhs": c.lhs,
                "rhs": c.rhs,
            }))
        return "\n".join(lines)
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = []
    for c in report:
        if c.passed:
            lines.append(f"PASS {c.axiom}")
        else:
            parts = [f"FAIL {c.axiom}"]
            if c.witness is not None:
                parts.append(f"witness={c.witness}")
            if c.lhs is not None:
                parts.append(f"lhs={c.lhs}")
            if c.rhs is not None:
                parts.append(f"rhs={c.rhs}")
            lines.append("  ".join(parts))
    failed = len(report.failures)
    if failed:
        lines.append(f"FAIL ({failed} of {len(report)} axioms)")
    else:
        lines.append(f"OK ({len(report)} axioms)")
    return "\n".join(lines)
