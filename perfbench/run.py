"""Benchmark of the dualquasi command line, run the way a user runs it.

    python3 perfbench/run.py --workload zeta8-pipeline --seed 1 --seconds 50 --trace 0

Load model: a closed loop with one client.  The workload's commands run one
after another, each as its own ``python -m dualquasi`` subprocess; a pass is
one run through the list.  There are at least two passes, and more while
another one fits in ``--seconds``.  Every output is checked against a
reference answer computed in set-up by another route.

``--trace 0`` prints the end-to-end metrics: the median pass time, the
set-up time (median of several set-ups), the largest child max RSS, and the
share of commands whose output agreed with the reference.  The lines above
the JSON also give every command's time and the per-pass time of each kind
of command.  ``--trace 1`` runs the pass in-process through
``dualquasi.cli.main`` four times: untraced, traced with spans around the
package's public functions, untraced again, and counting scalar operations;
it prints the per-layer metrics and writes the spans to ``.bench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 15
MIN_PASSES = 2
STARTUP_REPEATS = 5
DEADLINE_S = 170.0  # a run must end within 180 s; children are killed after this
KINDS = ("verify", "solve", "from_antipode", "structure")
STARTED = time.perf_counter()


@dataclass
class Result:
    rc: int
    out: str
    err: str
    wall: float
    rss_mb: float


class Cli:
    """Runs ``python -m dualquasi --report json-lines <argv>`` in the work
    directory through the launcher process, which measures wall time and
    peak RSS of the child."""

    def __init__(self, work: Path):
        self.work = work
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([path] if path else [])))
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def __call__(self, argv: list[str]) -> Result:
        return self.spawn([sys.executable, "-m", "dualquasi",
                           "--report", "json-lines", *argv])

    def spawn(self, cmd: list[str]) -> Result:
        remaining = DEADLINE_S - (time.perf_counter() - STARTED)
        if remaining <= 0:
            raise TimeoutError("run deadline passed")
        out_path, err_path = self.work / ".stdout", self.work / ".stderr"
        self.launcher.stdin.write(json.dumps({
            "argv": cmd, "cwd": str(self.work), "env": self.env, "timeout": remaining,
            "stdout": str(out_path), "stderr": str(err_path)}) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        if reply["rc"] < 0:
            raise TimeoutError(f"{' '.join(cmd[3:])} killed at the run deadline")
        return Result(reply["rc"], out_path.read_text(encoding="utf-8"),
                      err_path.read_text(encoding="utf-8"), reply["wall"],
                      reply["maxrss_kb"] / 1024.0)


@dataclass
class Pass:
    wall: float
    by_kind: dict[str, float]
    rss_mb: float
    attempted: int
    failures: list[str]


def clear_outputs(commands, work: Path) -> None:
    """Delete the commands' ``--out`` files: a stale one must not satisfy a check."""
    for c in commands:
        if "--out" in c.argv:
            (work / c.argv[c.argv.index("--out") + 1]).unlink(missing_ok=True)


def run_pass(commands, cli: Cli, log, between) -> Pass:
    """One run through ``commands``; ``between`` is called after each one.
    The pass time is the sum of the commands' wall times."""
    clear_outputs(commands, cli.work)
    by_kind = dict.fromkeys(KINDS, 0.0)
    failures, rss, wall = [], 0.0, 0.0
    for c in commands:
        res = cli(c.argv)
        wall += res.wall
        by_kind[c.kind] += res.wall
        rss = max(rss, res.rss_mb)
        why = c.check(res.rc, res.out, res.err)
        if why:
            failures.append(f"{' '.join(c.argv)}: {why}")
        log(f"  {'ok  ' if not why else 'FAIL'} {res.wall:8.3f} s {res.rss_mb:7.1f} MB"
            f"  exit {res.rc}  {' '.join(c.argv)}" + (f"  -- {why}" if why else ""))
        between()
    return Pass(wall, by_kind, rss, len(commands), failures)


def in_process(argv: list[str]) -> tuple[int, str, str]:
    from dualquasi.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(["--report", "json-lines", *argv])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def machine_info() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "dualquasi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "platform": platform.platform(), "git_commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def untraced(wl, cli: Cli, seconds: float, log) -> tuple[dict, int, list[str], dict]:
    """Set-ups are spread evenly over the measured time, between commands,
    so that a drift of the CPU speed moves them as it moves the passes.  A
    set-up writes the same documents each time."""
    setups = []

    def set_up() -> None:
        t = time.perf_counter()
        wl.setup(cli)
        setups.append(time.perf_counter() - t)

    def set_up_when_due() -> None:
        due = 1 + int((time.perf_counter() - start) * (SETUP_REPEATS - 1) / seconds)
        while len(setups) < min(due, SETUP_REPEATS):
            set_up()

    set_up()
    wl.prepare()
    commands = wl.commands()
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        log(f"pass {len(passes) + 1}")
        passes.append(run_pass(commands, cli, log, set_up_when_due))
        if len(passes) >= MIN_PASSES and \
                time.perf_counter() - start + max(p.wall for p in passes) > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        set_up()
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    samples = {k: [p.by_kind[k] for p in passes] for k in KINDS}
    samples["pipeline"] = [p.wall for p in passes]
    metrics = {
        "pipeline_s": (statistics.median(samples["pipeline"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(p.rss_mb for p in passes), "MB"),
        "verified_frac": ((attempted - len(failures)) / attempted, "1"),
    }
    log(f"{len(passes)} pass(es); setup samples {', '.join(f'{s:.3f}' for s in setups)} s")
    for k in KINDS + ("pipeline",):
        if any(samples[k]):
            log(f"  {k + '_s':16} median {statistics.median(samples[k]):9.3f} s"
                f"  n={len(samples[k])}  samples {' '.join(f'{v:.3f}' for v in samples[k])}")
    log(f"  failed_frac      {len(failures)} of {attempted}")
    return metrics, attempted, failures, {"passes": [p.__dict__ for p in passes],
                                          "setup_samples": setups}


def log_calls(tracer, listed, log) -> None:
    """Per command: calls of the functions whose seed counts must repeat."""
    watched = ("comodules.coinvariants", "comodules.adjunction_counit",
               "preantipode.retraction_report", "preantipode.coinvariant_retraction",
               "linalg.solve_affine")
    for i, (_, argv) in enumerate(listed):
        mine = [s for s in tracer.spans if s.command == i]
        calls = Counter(s.name for s in mine if s.name in watched)
        shapes = Counter(f"{s.size['rows']}x{s.size['cols']}" for s in mine
                         if s.name == "linalg.solve_affine")
        log(f"  calls in {' '.join(argv)}: "
            + (", ".join(f"{k.split('.')[1]} {v}" for k, v in calls.items()) or "-")
            + ("; solve_affine shapes " + ", ".join(f"{k} ({v})" for k, v in shapes.items())
               if shapes else ""))


def traced(wl, cli: Cli, log) -> tuple[dict, int, list[str], dict]:
    """In-process passes: untraced, traced (with the ``gen`` commands),
    untraced again, and one counting scalar operations."""
    import tracing
    import dualquasi.cli  # noqa: F401  (its namespace must exist before wrapping)
    from dualquasi.scalars import Scalar
    from workloads import Command

    wl.setup(cli)
    wl.prepare()
    commands = wl.commands()
    failures: list[str] = []
    gens = [Command("gen", ["gen", "--cyclic", str(n), "--r", str(r), "--out", "traced-gen"],
                    lambda rc, out, err: rc and f"exit {rc}") for n, r in wl.gens]
    listed = gens + commands

    def in_process_pass(label: str, cmds, tracer=None) -> float:
        """Runs and checks ``cmds``; returns the time of those other than ``gen``."""
        log(label)
        clear_outputs(cmds, wl.work)
        total = 0.0
        for i, c in enumerate(cmds):
            start = time.perf_counter()
            if tracer is None:
                rc, out, err = in_process(c.argv)
            else:
                tracer.command = i
                with tracer.span(f"cli.{c.kind}"):
                    rc, out, err = in_process(c.argv)
            wall = time.perf_counter() - start
            if c.kind != "gen":
                total += wall
            why = c.check(rc, out, err)
            if why:
                failures.append(f"{label}: {' '.join(c.argv)}: {why}")
            log(f"  {'ok  ' if not why else 'FAIL'} {wall:8.3f} s"
                f"  exit {rc}  {' '.join(c.argv)}")
        return total

    tracer, counter = tracing.Tracer(), tracing.ScalarCounter()
    cwd = os.getcwd()
    os.chdir(wl.work)
    gc.freeze()  # keep the bench's own objects out of the commands' collections
    try:
        untraced_walls = [in_process_pass("untraced pass (in-process)", commands)]
        tracer.install()
        try:
            traced_wall = in_process_pass("traced pass (in-process)", listed, tracer)
        finally:
            tracer.uninstall()
        untraced_walls.append(in_process_pass("second untraced pass (in-process)", commands))
        counter.install(Scalar)
        try:
            in_process_pass("scalar counting pass (in-process)", commands)
        finally:
            counter.uninstall()
    finally:
        gc.unfreeze()
        os.chdir(cwd)
    listed_argv = [(c.kind, c.argv) for c in listed]
    metrics = tracing.layer_metrics(tracer.spans, listed_argv)
    metrics.update(counter.metrics())
    metrics.update(counter.op_costs())
    startup = [cli.spawn([sys.executable, "-c", "import dualquasi"]).wall
               for _ in range(STARTUP_REPEATS)]
    metrics["cli.startup_s"] = (statistics.median(startup), "s")
    # the traced pass sits between the untraced ones, so a steady drift of the
    # CPU speed and the first pass's warm-up cancel in the mean
    metrics["cli.trace_overhead"] = (traced_wall / statistics.mean(untraced_walls), "ratio")

    span_file = WORK / f"spans-{wl.name}-seed{wl.seed}.json"
    span_file.write_text(json.dumps({"commands": listed_argv, "spans": tracer.dump()}),
                         encoding="utf-8")
    log(f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
    log_calls(tracer, listed_argv, log)
    attempted = len(commands) * 4 + len(gens)
    return metrics, attempted, failures, {"untraced_pipeline_s": untraced_walls,
                                          "traced_pipeline_s": traced_wall,
                                          "startup_samples": startup}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dualquasi" / "__init__.py").is_file():
        print(f"error: no package source at {SRC.relative_to(ROOT)}/dualquasi; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    machine = machine_info()
    log(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        + "  ".join(f"{k} {v}" for k, v in machine.items()))
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl, cli = WORKLOADS[args.workload](work, args.seed), Cli(work)
    try:
        if args.trace:
            metrics, attempted, failures, detail = traced(wl, cli, log)
        else:
            metrics, attempted, failures, detail = untraced(wl, cli, args.seconds, log)
    finally:
        cli.close()
    for f in failures:
        log(f"FAILED {f}")
    for key, (value, unit) in metrics.items():
        log(f"  {key:34} {value:14.6g} {unit}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"machine": machine, "workload": args.workload,
                                  "seed": args.seed, "seconds": args.seconds,
                                  "failures": failures, "detail": detail, **result},
                                 indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
