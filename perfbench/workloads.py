"""Workload inputs, command lists and reference answers.

Each workload writes its input documents in ``setup`` (the timed set-up),
computes reference answers in ``prepare`` by routes other than the commands
it times, and lists the CLI commands of one pass in ``commands``.  Every
command carries a check that compares its exit code and its
``--report json-lines`` output with the reference.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from dualquasi import (check_preantipode, cyclic_group_example, dump_bicomodule,
                       dump_dqb, hhat, load_dqb, retraction_report, validate_dqb)
from dualquasi.groups import (GroupData, canonical_group_preantipode,
                              cyclic_cocycle, idempotent_monoid_bialgebra)

import oracle

# check(exit code, stdout, stderr) -> None when the output agrees, else why not
Check = Callable[[int, str, str], "str | None"]


@dataclass
class Command:
    kind: str   # verify | solve | from_antipode | structure
    argv: list[str]
    check: Check


# -- reference axiom lists, taken from the library on the smallest example ---------

def _axiom_lists() -> dict[str, list[str]]:
    """Axiom names in report order, from library calls on cyclic n=2, r=1.

    The names do not depend on the input, so a tiny instance gives them
    without running any timed command."""
    ex = cyclic_group_example(2, 1)
    dqb = [c.axiom for c in validate_dqb(ex.dqb)]
    pre = [c.axiom for c in check_preantipode(ex.dqb, ex.preantipode)]
    retr = [c.axiom for c in retraction_report(ex.dqb, ex.preantipode, hhat(ex.dqb))]
    head = ["coinvariant-dimension", "counit-bijective"]
    tail = ["counit-after-inverse", "inverse-after-counit"]
    return {
        "verify": dqb,
        "from_antipode": pre,
        "structure_solve": head + ["preantipode-exists"] + retr + tail,
        "structure_given": head + pre + retr + tail,
        "structure_none": head + ["preantipode-exists"],
    }


# -- output checks -----------------------------------------------------------------

def _records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


ANY_WITNESS = "any witness that is not null"


def expect_report(rc_want: int, names: list[str], failing: dict | None = None,
                  extra: Callable[[list[dict]], "str | None"] | None = None) -> Check:
    """Exit code, axiom names in order, and pass verdicts.

    ``failing`` maps each axiom expected to fail to its expected witness:
    a tuple as a list, ``ANY_WITNESS``, or None for a verdict without a
    witness tuple.  Every other axiom must pass."""
    failing = failing or {}

    def check(rc, out, err):
        if rc != rc_want:
            return f"exit {rc}, want {rc_want}: {err.strip()[:200]}"
        recs = _records(out)
        got = [r["axiom"] for r in recs]
        if got != names:
            return f"axioms {got}, want {names}"
        for r in recs:
            if r["axiom"] in failing:
                want, got = failing[r["axiom"]], r["witness"]
                if r["pass"]:
                    return f"{r['axiom']} should fail: {r}"
                if got != want and not (want is ANY_WITNESS and got is not None):
                    return f"{r['axiom']} witness {got}, want {want}"
            elif not r["pass"]:
                return f"{r['axiom']} fails: {r}"
        return extra(recs) if extra else None
    return check


def _matrix_file_equals(path: Path, want: list[list[str]]) -> "str | None":
    if not path.exists():
        return f"{path.name} was not written"
    got = json.loads(path.read_text(encoding="utf-8"))["matrix"]
    return None if got == want else f"{path.name} differs from the reference"


def expect_solution(want: list[list[str]] | None, kernel_dim: int | None = None,
                    out_file: Path | None = None) -> Check:
    """``solve-preantipode``: the particular solution and kernel dimension,
    or exit 1 with a null preantipode when ``want`` is None."""
    def check(rc, out, err):
        recs = _records(out)
        if len(recs) != 1:
            return f"expected one JSON record, got {len(recs)}"
        rec = recs[0]
        if want is None:
            return None if rc == 1 and rec == {"preantipode": None} else \
                f"exit {rc} with {rec}, want exit 1 and no preantipode"
        if rc != 0:
            return f"exit {rc}, want 0"
        if rec["preantipode"] != want:
            return "particular solution differs from the reference"
        if rec["kernel_dimension"] != kernel_dim:
            return f"kernel dimension {rec['kernel_dimension']}, want {kernel_dim}"
        return _matrix_file_equals(out_file, want) if out_file else None
    return check


def expect_document_error(location: str) -> Check:
    def check(rc, out, err):
        if rc != 2:
            return f"exit {rc}, want 2"
        if not err.startswith(f"error: {location}:"):
            return f"message not located at {location}: {err.strip()[:200]}"
        return None
    return check


def _strings(matrix) -> list[list[str]]:
    return [[str(matrix[i, j]) for j in range(matrix.cols)] for i in range(matrix.rows)]


def _canonical(n: int, r: int) -> list[list[str]]:
    """The closed-form preantipode of cyclic n with cocycle exponent r."""
    return _strings(canonical_group_preantipode(GroupData.cyclic(n), cyclic_cocycle(n, r)))


def _check_then(first: Check, then: Callable[[], "str | None"]) -> Check:
    def check(rc, out, err):
        return first(rc, out, err) or then()
    return check


# -- workloads -----------------------------------------------------------------------

class Workload:
    """Inputs and commands of one workload, living in a work directory."""

    name = ""
    gens: tuple[tuple[int, int], ...] = ()

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.axioms: dict[str, list[str]] = {}

    def setup(self, cli) -> None:
        """Write every input document: ``gen`` commands plus dumps."""
        for n, r in self.gens:
            res = cli(["gen", "--cyclic", str(n), "--r", str(r), "--out", "."])
            if res.rc != 0:
                raise RuntimeError(f"gen {n} {r} exited {res.rc}: {res.err}")
        self.dump_inputs()

    def dump_inputs(self) -> None:
        pass

    def prepare(self) -> None:
        """Reference answers, computed once after set-up."""
        self.axioms = _axiom_lists()

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def path(self, name: str) -> Path:
        return self.work / name

    def _cyclic_commands(self, n: int, r: int, pipeline: bool) -> list[Command]:
        """verify, then from-antipode; with ``pipeline`` also solve-preantipode
        and both structure-theorem forms."""
        stem = f"cyclic_{n}_r{r}"
        dqb, anti = f"{stem}.dqb.json", f"{stem}.antipode.json"
        canon = _canonical(n, r)
        s_solved, s_anti = f"{stem}.S.json", f"{stem}.S_antipode.json"
        ax = self.axioms
        from_anti = Command(
            "from_antipode", ["from-antipode", dqb, anti, "--out", s_anti],
            _check_then(expect_report(0, ax["from_antipode"]),
                        lambda: _matrix_file_equals(self.path(s_anti), canon)))
        verify = Command("verify", ["verify", dqb], expect_report(0, ax["verify"]))
        if not pipeline:
            return [verify, from_anti]
        return [
            verify,
            Command("solve", ["solve-preantipode", dqb, "--out", s_solved],
                    expect_solution(canon, 0, self.path(s_solved))),
            from_anti,
            Command("structure", ["structure-theorem", dqb, "--use-hhat"],
                    expect_report(0, ax["structure_solve"],
                                  extra=_hhat_shape(n, "kernel dimension 0"))),
            Command("structure", ["structure-theorem", dqb, f"{stem}.hhat.json",
                                  "--preantipode", s_solved],
                    expect_report(0, ax["structure_given"], extra=_hhat_shape(n))),
        ]

    def _dump_hhat(self, stem: str) -> None:
        H = load_dqb(self.path(f"{stem}.dqb.json").read_text(encoding="utf-8"))
        self.path(f"{stem}.hhat.json").write_text(dump_bicomodule(hhat(H)),
                                                  encoding="utf-8")


def _hhat_shape(n: int, kernel: str | None = None):
    """On Ĥ = H⊗H the coinvariants have dimension n inside n²."""
    def extra(recs):
        by = {r["axiom"]: r for r in recs}
        dim = by["coinvariant-dimension"]
        if (dim["lhs"], dim["rhs"]) != (str(n), str(n * n)):
            return f"coinvariant dimension {dim['lhs']} of {dim['rhs']}, want {n} of {n * n}"
        if kernel is not None and by["preantipode-exists"]["lhs"] != kernel:
            return f"preantipode-exists says {by['preantipode-exists']['lhs']}, want {kernel}"
        return None
    return extra


class Zeta8Pipeline(Workload):
    """The README pipeline on cyclic n=8, r=1 over ℚ(ζ₈)."""

    name = "zeta8-pipeline"
    gens = ((8, 1),)

    def dump_inputs(self):
        self._dump_hhat("cyclic_8_r1")

    def commands(self):
        return self._cyclic_commands(8, 1, pipeline=True)


class Zeta12Checks(Workload):
    """verify and from-antipode on cyclic n=12, r=1 over ℚ(ζ₁₂)."""

    name = "zeta12-checks"
    gens = ((12, 1),)

    def commands(self):
        return self._cyclic_commands(12, 1, pipeline=False)


# Sweedler's four-dimensional Hopf algebra: basis 1, g, x, gx with g² = 1,
# x² = 0, xg = −gx, Δg = g⊗g, Δx = x⊗1 + g⊗x; ω = ε⊗ε⊗ε.
_SWEEDLER_PRODUCTS = [  # e_a·e_b = c·e_t as [a, b, t, c]
    [0, 0, 0, "1"], [0, 1, 1, "1"], [0, 2, 2, "1"], [0, 3, 3, "1"],
    [1, 0, 1, "1"], [1, 1, 0, "1"], [1, 2, 3, "1"], [1, 3, 2, "1"],
    [2, 0, 2, "1"], [2, 1, 3, "-1"], [3, 0, 3, "1"], [3, 1, 2, "-1"],
]
SWEEDLER_DQB = {
    "version": 1,
    "field": {"kind": "rationals"},
    "dim": 4,
    "delta": [[0, 0, 0, "1"], [1, 1, 1, "1"], [2, 2, 0, "1"], [2, 1, 2, "1"],
              [3, 3, 1, "1"], [3, 0, 3, "1"]],
    "counit": ["1", "1", "0", "0"],
    "mul": _SWEEDLER_PRODUCTS,
    "unit": ["1", "0", "0", "0"],
    "omega": [[i, j, k, "1"] for i in (0, 1) for j in (0, 1) for k in (0, 1)],
}
# s(g) = g, s(x) = −gx, α = β = ε.  With ω trivial, S = s is the preantipode.
SWEEDLER_S = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
              ["0", "0", "0", "1"], ["0", "0", "-1", "0"]]
SWEEDLER_ANTIPODE = {"version": 1, "dim": 4, "s": SWEEDLER_S,
                     "alpha": ["1", "1", "0", "0"], "beta": ["1", "1", "0", "0"]}
# index 4 is out of range in a 4-dimensional document
MALFORMED_ENTRY = 5


class RationalMixed(Workload):
    """The same commands over ℚ on cyclic n=8 r=0, Sweedler's algebra and the
    idempotent-monoid control, plus a corrupted and a malformed document."""

    name = "rational-mixed"
    gens = ((8, 0),)

    def dump_inputs(self):
        self._dump_hhat("cyclic_8_r0")
        self.path("sweedler.dqb.json").write_text(json.dumps(SWEEDLER_DQB), encoding="utf-8")
        self.path("sweedler.antipode.json").write_text(json.dumps(SWEEDLER_ANTIPODE),
                                                       encoding="utf-8")
        self._dump_hhat("sweedler")
        self.path("monoid.dqb.json").write_text(dump_dqb(idempotent_monoid_bialgebra()),
                                                encoding="utf-8")
        doc = json.loads(self.path("cyclic_8_r0.dqb.json").read_text(encoding="utf-8"))
        # the seed picks the corrupted ω entry; ω⁻¹ keeps the true value
        pos = random.Random(self.seed).randrange(len(doc["omega"]))
        doc["omega"][pos][3] = "2"
        self.corrupted = doc["omega"][pos][:3]
        self.path("corrupted.dqb.json").write_text(json.dumps(doc), encoding="utf-8")
        bad = json.loads(json.dumps(SWEEDLER_DQB))
        bad["mul"][MALFORMED_ENTRY][2] = 4
        self.path("malformed.dqb.json").write_text(json.dumps(bad), encoding="utf-8")

    def prepare(self):
        super().prepare()
        ours = load_dqb(self.path("sweedler.dqb.json").read_text(encoding="utf-8"))
        from helpers import sweedler_four_dim_hopf
        if dump_dqb(ours) != dump_dqb(sweedler_four_dim_hopf()[0]):
            raise RuntimeError("Sweedler document disagrees with tests/helpers.py")
        cyclic = json.loads(self.path("cyclic_8_r0.dqb.json").read_text(encoding="utf-8"))
        if oracle.preantipode_solution(cyclic) != (_canonical(8, 0), 0):
            raise RuntimeError("sympy oracle disagrees with the closed form on cyclic 8 r=0")
        sol = oracle.preantipode_solution(SWEEDLER_DQB)
        if sol != (SWEEDLER_S, 0):
            raise RuntimeError(f"sympy oracle gives {sol} on Sweedler's algebra")
        monoid = json.loads(self.path("monoid.dqb.json").read_text(encoding="utf-8"))
        if oracle.preantipode_solution(monoid) is not None:
            raise RuntimeError("sympy oracle finds a preantipode for the monoid control")
        # ω⁻¹ still holds 1 at the corrupted entry, so ω∗ω⁻¹ = 2 there and the
        # first failing tuple of reassociator-invertibility is that entry
        corrupted = json.loads(self.path("corrupted.dqb.json").read_text(encoding="utf-8"))
        omega = {tuple(e[:3]): e[3] for e in corrupted["omega"]}
        omega_inv = {tuple(e[:3]): e[3] for e in corrupted["omega_inv"]}
        key = tuple(self.corrupted)
        if (omega[key], omega_inv[key]) != ("2", "1"):
            raise RuntimeError("corrupted document was not written as intended")

    def commands(self):
        ax = self.axioms
        cmds = self._cyclic_commands(8, 0, pipeline=True)
        cmds += [
            Command("verify", ["verify", "sweedler.dqb.json"], expect_report(0, ax["verify"])),
            Command("solve", ["solve-preantipode", "sweedler.dqb.json", "--out", "sweedler.S.json"],
                    expect_solution(SWEEDLER_S, 0, self.path("sweedler.S.json"))),
            Command("from_antipode", ["from-antipode", "sweedler.dqb.json",
                                      "sweedler.antipode.json", "--out",
                                      "sweedler.S_antipode.json"],
                    _check_then(expect_report(0, ax["from_antipode"]),
                                lambda: _matrix_file_equals(
                                    self.path("sweedler.S_antipode.json"), SWEEDLER_S))),
            Command("structure", ["structure-theorem", "sweedler.dqb.json", "--use-hhat"],
                    expect_report(0, ax["structure_solve"],
                                  extra=_hhat_shape(4, "kernel dimension 0"))),
            Command("structure", ["structure-theorem", "sweedler.dqb.json", "sweedler.hhat.json",
                                  "--preantipode", "sweedler.S.json"],
                    expect_report(0, ax["structure_given"], extra=_hhat_shape(4))),
            Command("verify", ["verify", "monoid.dqb.json"], expect_report(0, ax["verify"])),
            Command("solve", ["solve-preantipode", "monoid.dqb.json"], expect_solution(None)),
            Command("structure", ["structure-theorem", "monoid.dqb.json", "--use-hhat"],
                    expect_report(1, ax["structure_none"],
                                  {"counit-bijective": None, "preantipode-exists": None})),
            Command("verify", ["verify", "corrupted.dqb.json"],
                    expect_report(1, ax["verify"], self._corrupted_failures())),
            Command("verify", ["verify", "malformed.dqb.json"],
                    expect_document_error(f"dqb.mul[{MALFORMED_ENTRY}]")),
        ]
        return cmds

    def _corrupted_failures(self) -> dict:
        """Axioms that must fail on the corrupted document, with witnesses.

        Doubling one ω entry keeps the coalgebra and product intact, breaks
        ω∗ω⁻¹ = ε exactly at that entry, and breaks the cocycle identity.
        Normalization fails as well when the entry touches the unit."""
        a, b, c = self.corrupted
        fails = {"reassociator-invertible": [a, b, c], "cocycle-identity": ANY_WITNESS}
        for slot, name in ((a, "left"), (b, "middle"), (c, "right")):
            if slot == 0:
                fails[f"cocycle-normalization-{name}"] = ANY_WITNESS
        return fails


WORKLOADS = {w.name: w for w in (Zeta8Pipeline, RationalMixed, Zeta12Checks)}
