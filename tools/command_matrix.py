"""The command matrix: every CLI command on a fixed set of inputs, for
byte-identity checks between two source trees and for crash checks.

    python tools/command_matrix.py --src SRC --work DIR --manifest OUT.json
    python tools/command_matrix.py --compare A.json B.json

The first form writes the input documents into DIR/inputs unless they are
already there, so two trees run on the same inputs when the older one runs
first.  It then runs each command as ``python -m dualquasi`` from SRC, in
both report formats, with DIR as the working directory and every written
file under DIR/out.  SRC defaults to this tree's ``src``; the inputs are built
with this tree's ``tests/helpers.py``, so to record an older tree, run that
tree's own copy of the script.  The manifest holds, per command, the argv, the exit code
and the sha256 of stdout, of stderr and of each written file.  It exits 1
when a command exits outside {0, 1, 2} or prints a Python traceback: an
uncaught exception also exits 1, so the exit code alone does not show it.

``--compare`` lists the commands whose records differ, and exits 1 if any do.

Inputs: 20 algebras (15 cyclic ones, Sweedler's algebra and a twist of it,
S₃ with the sign cocycle and with a coboundary twist of it, and the
idempotent monoid control) with their antipode data, preantipode and Ĥ
documents; seeded corruptions of algebra, antipode, Ĥ and preantipode
documents; the algebras without ``omega_inv``; ``gen`` runs; usage errors and ``--help``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CYCLIC = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2), (4, 3),
          (5, 1), (6, 5), (8, 1), (8, 3), (12, 5)]
GEN = [(1, 0), (2, 1), (3, 2), (4, 1), (5, 3), (6, 5), (7, 2), (8, 3), (9, 4), (12, 5)]
# sparse lists of [indices..., scalar], dense rows of scalars, and lists of such rows
PARTS = {"dqb": ({"delta", "mul", "omega", "omega_inv"}, {"counit", "unit"}, set()),
         "antipode": (set(), {"alpha", "beta"}, {"s"}),
         "hhat": ({"rho_l", "rho_r", "act"}, set(), set()),
         "S": (set(), set(), {"matrix"})}
COPIES = {"dqb": 3, "antipode": 2, "hhat": 3, "S": 1}  # corrupted copies of each document
KINDS = ("value",) * 4 + ("drop", "index", "scalar", "type", "missing")


def _bases():
    """(name, algebra, antipode data or None, group or None) for the 20 algebras."""
    sys.path.insert(0, str(ROOT / "tests"))
    from helpers import (control_bialgebra, sweedler_four_dim_hopf, symmetric_group_examples,
                         twisted_sweedler)
    from dualquasi import cyclic_group_example

    out = [(f"cyclic_{n}_r{r}", ex.dqb, ex.antipode, ex.group)
           for n, r in CYCLIC for ex in [cyclic_group_example(n, r)]]
    out.append(("sweedler", *sweedler_four_dim_hopf(), None))
    out.append(("twisted_sweedler", twisted_sweedler(), None, None))
    out += [(ex.name.replace(" ", "_"), ex.dqb, ex.antipode, ex.group)
            for ex in symmetric_group_examples()]
    out.append(("monoid", control_bialgebra(), None, None))
    return out


def _corrupt(doc: dict, kind: str, rng: random.Random) -> dict:
    """A copy of a document of the given kind with one seeded change: a
    value, a dropped entry, a bad index or scalar, a wrong type or a missing
    key."""
    doc = json.loads(json.dumps(doc))
    sparse, dense, rows = PARTS[kind]
    cells = [(doc[k][i], -1) for k in sorted(sparse) if k in doc for i in range(len(doc[k]))]
    cells += [(doc[k], i) for k in sorted(dense) for i in range(len(doc[k]))]
    cells += [(row, i) for k in sorted(rows) for row in doc[k] for i in range(len(row))]
    change = rng.choice(KINDS)
    if change == "drop" and any(doc.get(k) for k in sparse):
        entries = doc[rng.choice(sorted(k for k in sparse if doc.get(k)))]
        del entries[rng.randrange(len(entries))]
    elif change == "index" and any(doc.get(k) for k in sparse):
        entry = rng.choice(doc[rng.choice(sorted(k for k in sparse if doc.get(k)))])
        entry[rng.randrange(len(entry) - 1)] = rng.choice((doc["dim"], -1, 1.5, True))
    elif change == "scalar" and cells:
        cell, i = rng.choice(cells)
        cell[i] = rng.choice(("1/0", "q", "", 7, "z"))
    elif change == "type":
        doc[rng.choice(sorted(doc))] = rng.choice(("oops", [], {}, 0))
    elif change == "missing":
        del doc[rng.choice(sorted(doc))]
    elif cells:
        cell, i = rng.choice(cells)
        cell[i] = rng.choice(("0", "2", "-1", "1/2", "3"))
    return doc


def write_inputs(src: Path, inputs: Path) -> None:
    """Every input document, written with the package under ``src``."""
    sys.path.insert(0, str(src))
    from dualquasi import hhat, solve_preantipode
    from dualquasi.writers import dump_antipode, dump_bicomodule, dump_dqb, dump_preantipode

    inputs.mkdir(parents=True)
    rng = random.Random(2010)
    for name, H, data, _ in _bases():
        family = solve_preantipode(H)
        docs = {"dqb": dump_dqb(H), "hhat": dump_bicomodule(hhat(H)),
                "antipode": data and dump_antipode(data),
                "S": family and dump_preantipode(family.particular)}
        for kind, text in docs.items():
            if text is None:
                continue
            (inputs / f"{name}.{kind}.json").write_text(text, encoding="utf-8")
            for i in range(COPIES[kind]):
                bad = _corrupt(json.loads(text), kind, rng)
                (inputs / f"{name}.bad{i}.{kind}.json").write_text(
                    json.dumps(bad, indent=2), encoding="utf-8")
        doc = json.loads(docs["dqb"])
        del doc["omega_inv"]
        (inputs / f"{name}.noinv.dqb.json").write_text(json.dumps(doc, indent=2),
                                                       encoding="utf-8")
    (inputs / "complete").write_text("", encoding="utf-8")


def commands(inputs: Path) -> list[list[str]]:
    """Every command line, with paths relative to the working directory."""
    def doc(name):
        path = inputs / name
        return f"inputs/{name}" if path.exists() else None

    out = []
    for name in sorted({p.name.split(".")[0] for p in inputs.glob("*.dqb.json")}):
        dqb, hh, anti, S = (doc(f"{name}.{k}.json") for k in ("dqb", "hhat", "antipode", "S"))
        out += [["verify", dqb], ["solve-preantipode", dqb, "--out", "out/S.json"],
                ["structure-theorem", dqb, "--use-hhat"], ["structure-theorem", dqb, hh]]
        out += [["verify", doc(f"{name}.noinv.dqb.json")],
                ["solve-preantipode", doc(f"{name}.noinv.dqb.json")]]
        if anti:
            out.append(["from-antipode", dqb, anti, "--out", "out/S.json"])
        if S:
            out += [["structure-theorem", dqb, hh, "--preantipode", S],
                    ["structure-theorem", dqb, "--use-hhat", "--preantipode", S]]
        for i in range(3):
            bad = doc(f"{name}.bad{i}.dqb.json")
            out += [["verify", bad], ["solve-preantipode", bad],
                    ["structure-theorem", bad, "--use-hhat"]]
            if anti:
                out.append(["from-antipode", bad, anti])
            bad_hh = doc(f"{name}.bad{i}.hhat.json")
            out.append(["structure-theorem", dqb, bad_hh])
            if S:
                out.append(["structure-theorem", dqb, bad_hh, "--preantipode", S])
        for i in range(2 if anti else 0):
            out.append(["from-antipode", dqb, doc(f"{name}.bad{i}.antipode.json"),
                        "--out", "out/S.json"])
        if S:
            out.append(["structure-theorem", dqb, hh, "--preantipode",
                        doc(f"{name}.bad0.S.json")])
    out += [["gen", "--cyclic", str(n), "--r", str(r), "--out", "out/"] for n, r in GEN]
    out += [["verify", "inputs/missing.dqb.json"], ["gen", "--cyclic", "3", "--r", "5",
            "--out", "out/"], ["structure-theorem", "inputs/cyclic_2_r1.dqb.json"], ["verify"]]
    # usage errors, and the help text; each command line starts with a --report
    out += [["check", "inputs/cyclic_2_r1.dqb.json"],
            ["verify", "inputs/cyclic_2_r1.dqb.json", "--out", "out/S.json"],
            ["solve-preantipode", "inputs/cyclic_2_r1.dqb.json", "--out"],
            ["verify", "inputs/cyclic_2_r1.dqb.json", "inputs/cyclic_2_r1.dqb.json"],
            ["gen", "--cyclic", "x", "--r", "1", "--out", "out/"],
            ["--report", "xml", "verify", "inputs/cyclic_2_r1.dqb.json"],
            ["--help"]]
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(src: Path, work: Path) -> list[dict]:
    env = {**os.environ, "PYTHONPATH": str(src.resolve()), "PYTHONDONTWRITEBYTECODE": "1"}
    records = []
    for args in commands(work / "inputs"):
        for fmt in ("text", "json-lines"):
            shutil.rmtree(work / "out", ignore_errors=True)
            (work / "out").mkdir()
            argv = ["--report", fmt, *args]
            proc = subprocess.run([sys.executable, "-m", "dualquasi", *argv], cwd=work,
                                  env=env, capture_output=True)
            files = {str(p.relative_to(work)): _sha(p.read_bytes())
                     for p in sorted((work / "out").rglob("*")) if p.is_file()}
            records.append({"argv": argv, "exit": proc.returncode, "stdout": _sha(proc.stdout),
                            "stderr": _sha(proc.stderr), "files": files,
                            "traceback": b"Traceback (most recent call last)" in proc.stderr})
    shutil.rmtree(work / "out", ignore_errors=True)
    return records


def compare(a: Path, b: Path) -> int:
    left, right = (json.loads(p.read_text(encoding="utf-8")) for p in (a, b))
    by_argv = {tuple(r["argv"]): r for r in right}
    differ = [r["argv"] for r in left if by_argv.get(tuple(r["argv"])) != r]
    differ += [list(k) for k in by_argv.keys() - {tuple(r["argv"]) for r in left}]
    for argv in differ:
        print(" ".join(argv))
    print(f"{len(differ)} of {len(left)} commands differ")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--work", type=Path, default=ROOT / ".command_matrix")
    parser.add_argument("--manifest", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    inputs = args.work / "inputs"
    if not (inputs / "complete").exists():
        shutil.rmtree(inputs, ignore_errors=True)
        write_inputs(args.src.resolve(), inputs)
    records = run(args.src, args.work)
    if args.manifest:
        args.manifest.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    bad = [r for r in records if r["exit"] not in (0, 1, 2) or r["traceback"]]
    exits = Counter(r["exit"] for r in records)
    print(f"{len(records)} commands; exit codes {dict(sorted(exits.items()))}; "
          f"{sum(len(r['files']) for r in records)} files written")
    for r in bad:
        print("crashed:", " ".join(r["argv"]), "exit", r["exit"])
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
