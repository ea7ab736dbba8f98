"""Sets of benchmark runs: spread per metric, and agreement between sets.

    python3 perfbench/sets.py                         # every workload once
    python3 perfbench/sets.py --runs 10 --sets 2      # steadiness check
    python3 perfbench/sets.py --runs 3 --trace        # per-layer metrics

Each run is ``perfbench/run.py`` with its own seed and the ``run_seconds``
of BENCHMARK.json.  For every workload and metric the report gives the
median, the quartile spread (q3 − q1) / median over the set's runs, and the
metric's bound.  A metric fails when its spread exceeds the bound and is
marked unsteady above a third of it.  With two
sets, a metric fails when the second median is worse than the first by more
than the bound.  Traced sets check that the seed-independent call counts
and the solver shape are identical on every run.  Exit code 1 when any
check fails.  Raw results and machine info go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KINDS = ("verify", "solve", "from_antipode", "structure")
EXACT = ("comodules.coinvariants_calls", "comodules.adjunction_counit_calls",
         "preantipode.retraction_calls", "linalg.solve_affine_calls",
         "linalg.system_rows", "linalg.system_cols", "linalg.system_nnz",
         "io.load_bytes")


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  run {workload} seed {seed} exited {proc.returncode}: "
              f"{proc.stderr.strip()[-500:]}", flush=True)
        return None
    result = json.loads(lines[-1])
    if not trace:  # per-command times: reported, not gated
        record = json.loads((ROOT / ".bench_work" / "results" /
                             f"{workload}-seed{seed}-trace0.json").read_text(encoding="utf-8"))
        passes = record["detail"]["passes"]
        for kind in KINDS:
            value = statistics.median(p["by_kind"][kind] for p in passes)
            if value:
                result["metrics"][f"{kind}_s"] = {"value": value, "unit": "s"}
    return result


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def worse_by(first: float, second: float, better: str) -> float:
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=1, help="runs per workload and set")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--trace", action="store_true", help="run traced (per-layer metrics)")
    args = parser.parse_args()
    specs = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    if not args.trace:
        specs.update({f"{k}_s": {"unit": "s", "better": "lower"} for k in KINDS})

    bench_names = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    sys.path.insert(0, str(HERE))
    from run import machine_info
    machine = machine_info()
    print("machine: " + "  ".join(f"{k} {v}" for k, v in machine.items()), flush=True)

    results: dict[str, list[list[dict]]] = {}
    ok = True
    for s in range(args.sets):
        for name in args.workloads.split(","):
            runs = results.setdefault(name, [])
            runs.append([])
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                start = time.perf_counter()
                res = run_once(name, seed, bench["run_seconds"], args.trace)
                print(f"set {s + 1} {name} seed {seed}: "
                      f"{'no result' if res is None else 'correct' if res['correct'] else 'INCORRECT'}"
                      f" ({time.perf_counter() - start:.0f} s)", flush=True)
                if res is None or not res["correct"]:
                    ok = False
                if res is not None:
                    runs[-1].append(res)

    for name, sets in results.items():
        print(f"\n{name}")
        print(f"  {'metric':34} {'unit':6} " + " ".join(
            f"{'median' + str(k + 1):>12} {'spread' + str(k + 1):>8}" for k in range(len(sets)))
            + f" {'bound':>6}  verdict")
        for metric, spec in specs.items():
            columns, notes, medians = [], [], []
            for runs in sets:
                values = [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]
                if not values:
                    columns.append(f"{'-':>12} {'-':>8}")
                    notes.append("missing" if metric in bench_names else "not run")
                    continue
                med, spr = spread(values)
                medians.append(med)
                columns.append(f"{med:12.6g} {spr:8.3f}")
                bound = spec.get("bound")
                if bound is not None and med and spr > bound:
                    notes.append(f"spread {spr:.3f} > bound")
                elif bound is not None and spr > bound / 3:
                    notes.append("unsteady (spread > bound/3)")
                if args.trace and metric in EXACT and len(set(values)) > 1:
                    notes.append(f"not exact: {sorted(set(values))}")
            bound = spec.get("bound")
            if bound is not None and len(medians) == 2 and medians[0]:
                change = worse_by(medians[0], medians[1], spec["better"])
                if change > bound:
                    notes.append(f"set 2 worse by {change:.3f} > bound")
            if metric not in bench_names:
                if "not run" in notes:
                    continue
                notes.append("per-command time, not gated")
            if any(n.startswith(("spread", "not exact", "set 2", "missing")) for n in notes):
                ok = False
            print(f"  {metric:34} {spec['unit']:6} " + " ".join(columns)
                  + f" {bound if bound is not None else '-':>6}  "
                  + ("; ".join(notes) or "ok"))

    out = ROOT / ".bench_work" / f"sets-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"machine": machine, "args": vars(args), "results": results},
                              indent=1), encoding="utf-8")
    print(f"\nraw results: {out.relative_to(ROOT)}; {'all checks pass' if ok else 'CHECKS FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
