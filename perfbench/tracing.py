"""Span recorder, per-layer extraction and scalar instrumentation.

The recorder wraps the package's public functions from outside: each
wrapper is installed in every ``dualquasi`` module namespace that binds the
function (``coinvariants``, for one, is bound in ``comodules``,
``preantipode`` and ``cli``), and methods are patched on their class.  A span
holds a name, start and end times, its parent span and the command it
belongs to.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import defaultdict

# layer -> (module, attribute) pairs; "Class.method" patches the class
TARGETS = {
    "linalg": ["solve_affine", "kernel", "rank", "inverse",
               "Matrix.__matmul__", "Matrix.kron"],
    "dqb": ["validate_dqb", "convolution", "convolution_inverse",
            "DualQuasiBialgebra.__init__"],
    "comodules": ["hhat", "coinvariants", "adjunction_counit", "validate_bicomodule"],
    "preantipode": ["solve_preantipode", "check_preantipode", "check_antipode",
                    "preantipode_from_antipode", "retraction_report",
                    "coinvariant_retraction"],
    "io": ["load_dqb", "load_bicomodule", "load_antipode", "load_preantipode",
           "dump_dqb", "dump_bicomodule", "dump_antipode", "dump_preantipode"],
    "groups": ["validate_cocycle", "cyclic_cocycle", "group_dqb", "group_antipode_data"],
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "command", "size")

    def __init__(self, name, start, parent, command):
        self.name, self.start, self.end = name, start, start
        self.parent, self.command, self.size = parent, command, None


class Tracer:
    """Records spans around the wrapped calls; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.command: int | None = None
        self.skew = 0.0  # time spent sizing arguments, removed from every span
        self._undo: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return time.perf_counter() - self.skew

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block (used for whole commands)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.now(), parent, self.command))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = self.now()
        self.stack.pop()

    def _wrap(self, name: str, fn, sizer=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if sizer is not None:
                    start = time.perf_counter()
                    tracer.spans[idx].size = sizer(*args, **kwargs)
                    tracer.skew += time.perf_counter() - start
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "dualquasi" or k.startswith("dualquasi.")]
        for layer, attrs in TARGETS.items():
            home = sys.modules[f"dualquasi.{layer}"]
            for attr in attrs:
                owner_name, _, member = attr.rpartition(".")
                if owner_name:
                    owner = getattr(home, owner_name, None)
                    if owner is None or member not in vars(owner):
                        continue
                    original = vars(owner)[member]
                    self._set(owner, member, self._wrap(f"{layer}.{attr}", original))
                    continue
                original = getattr(home, attr, None)
                if original is None:  # removed by a later version: reads as 0
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", original, _SIZERS.get(attr))
                for mod in modules:
                    if vars(mod).get(attr) is original:
                        self._set(mod, attr, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self) -> list[dict]:
        return [{"id": i, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "command": s.command, "size": s.size}
                for i, s in enumerate(self.spans)]


def _system_size(A, b=None):
    nnz = sum(1 for i in range(A.rows) for j in range(A.cols) if A[i, j])
    return {"rows": A.rows, "cols": A.cols, "nnz": nnz}


def _text_size(text, *args):
    return {"bytes": len(text.encode("utf-8"))}


_SIZERS = {"solve_affine": _system_size, "load_dqb": _text_size,
           "load_bicomodule": _text_size, "load_antipode": _text_size,
           "load_preantipode": _text_size}


# -- per-layer extraction ---------------------------------------------------------

def layer_metrics(spans: list[Span], commands: list[tuple[str, list[str]]]) -> dict:
    """Per-layer numbers of one traced pass.

    ``commands[i]`` is (kind, argv) of the command whose spans carry id i.
    Times add up the outermost span of each name, so a recursive or nested
    call of the same function is not counted twice; ``_calls`` counts every
    call.  Call counts and the solver shape are taken on the first
    ``structure-theorem --use-hhat`` and first ``solve-preantipode`` command."""
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.end - s.start

    def outermost(s):
        p = s.parent
        while p is not None:
            if spans[p].name == s.name:
                return False
            p = spans[p].parent
        return True

    total = defaultdict(float)
    self_time = defaultdict(float)
    for i, s in enumerate(spans):
        if outermost(s):
            total[s.name] += s.end - s.start
        self_time[s.name] += s.end - s.start - children[i]

    def first(pred):
        return next((i for i, (kind, argv) in enumerate(commands) if pred(kind, argv)), None)

    hhat_cmd = first(lambda k, a: k == "structure" and "--use-hhat" in a)
    solve_cmd = first(lambda k, a: k == "solve")

    def calls(name, cmd):
        return sum(1 for s in spans if s.name == name and s.command == cmd) \
            if cmd is not None else 0

    systems = [s.size for s in spans if s.name == "linalg.solve_affine"
               and s.command == solve_cmd and solve_cmd is not None]
    system = max(systems, key=lambda z: z["rows"] * z["cols"],
                 default={"rows": 0, "cols": 0, "nnz": 0})

    def group(names):
        return sum(total[n] for n in names)

    gen_ids = {i for i, (kind, _) in enumerate(commands) if kind == "gen"}
    groups_gen = sum(s.end - s.start for s in spans
                     if s.name.startswith("groups.") and s.command in gen_ids
                     and s.parent is not None and spans[s.parent].name == "cli.gen")
    loads = [n for n in total if n.startswith("io.load_")]
    cli = {kind: sum(s.end - s.start for s in spans
                     if s.name == f"cli.{kind}") for kind in
           ("verify", "solve", "from_antipode", "structure")}
    return {
        "linalg.solve_affine_s": (total["linalg.solve_affine"], "s"),
        "linalg.solve_affine_calls": (calls("linalg.solve_affine", solve_cmd), "count"),
        "linalg.system_rows": (system["rows"], "count"),
        "linalg.system_cols": (system["cols"], "count"),
        "linalg.system_nnz": (system["nnz"], "count"),
        "linalg.matmul_s": (total["linalg.Matrix.__matmul__"], "s"),
        "linalg.matmul_calls": (sum(1 for s in spans
                                    if s.name == "linalg.Matrix.__matmul__"), "count"),
        "linalg.kron_s": (total["linalg.Matrix.kron"], "s"),
        "linalg.kernel_s": (total["linalg.kernel"], "s"),
        "linalg.rank_s": (total["linalg.rank"], "s"),
        "dqb.validate_s": (total["dqb.validate_dqb"], "s"),
        "dqb.construct_s": (total["dqb.DualQuasiBialgebra.__init__"], "s"),
        "dqb.convolution_s": (total["dqb.convolution"], "s"),
        "comodules.hhat_s": (total["comodules.hhat"], "s"),
        "comodules.coinvariants_s": (total["comodules.coinvariants"], "s"),
        "comodules.coinvariants_calls": (calls("comodules.coinvariants", hhat_cmd), "count"),
        "comodules.adjunction_counit_s": (total["comodules.adjunction_counit"], "s"),
        "comodules.adjunction_counit_calls": (
            calls("comodules.adjunction_counit", hhat_cmd), "count"),
        "comodules.validate_bicomodule_s": (total["comodules.validate_bicomodule"], "s"),
        "preantipode.solve_s": (self_time["preantipode.solve_preantipode"], "s"),
        "preantipode.check_s": (total["preantipode.check_preantipode"], "s"),
        "preantipode.check_antipode_s": (total["preantipode.check_antipode"], "s"),
        "preantipode.from_antipode_s": (total["preantipode.preantipode_from_antipode"], "s"),
        "preantipode.retraction_s": (group(["preantipode.retraction_report",
                                            "preantipode.coinvariant_retraction"]), "s"),
        "preantipode.retraction_calls": (
            calls("preantipode.retraction_report", hhat_cmd)
            + calls("preantipode.coinvariant_retraction", hhat_cmd), "count"),
        "io.load_s": (group(loads), "s"),
        "io.load_bytes": (sum(s.size["bytes"] for s in spans
                              if s.name.startswith("io.load_") and s.size), "bytes"),
        "io.dump_s": (group([n for n in total if n.startswith("io.dump_")]), "s"),
        "groups.gen_s": (groups_gen, "s"),
        "cli.verify_s": (cli["verify"], "s"),
        "cli.solve_s": (cli["solve"], "s"),
        "cli.from_antipode_s": (cli["from_antipode"], "s"),
        "cli.structure_s": (cli["structure"], "s"),
    }


# -- scalar layer -----------------------------------------------------------------

_COUNTED = {"__mul__": "mul", "__rmul__": "mul", "__add__": "addsub",
            "__radd__": "addsub", "__sub__": "addsub", "__rsub__": "addsub",
            "inverse": "inverse", "__bool__": "bool"}
# operations whose operands are sampled for the per-op timing
_SAMPLED = {"__mul__": "mul", "__sub__": "sub", "inverse": "inverse"}
SAMPLE_CAP = 2048


class _Sample:
    """Operands of every k-th call, k doubling whenever the sample fills up,
    so the kept calls spread evenly over the whole pass."""

    def __init__(self, cap: int = SAMPLE_CAP):
        self.items: list[tuple] = []
        self.every, self.seen, self.cap = 1, 0, cap

    def offer(self, item: tuple) -> None:
        self.seen += 1
        if self.seen % self.every == 0:
            self.items.append(item)
            if len(self.items) == self.cap:
                self.items = self.items[1::2]
                self.every *= 2


class ScalarCounter:
    """Counts Scalar operations by patching the class, and samples the
    operands of scalar-by-scalar mul, sub and inverse.  Wrapper cost is
    large, so this runs in its own pass and is never timed."""

    def __init__(self):
        self.counts = dict.fromkeys(set(_COUNTED.values()), 0)
        self.samples = {op: _Sample() for op in _SAMPLED.values()}
        self._undo: list[tuple[str, object]] = []

    def install(self, scalar_cls) -> None:
        self._cls = scalar_cls
        counts = self.counts
        for attr, key in _COUNTED.items():
            original = vars(scalar_cls)[attr]
            sample = self.samples.get(_SAMPLED.get(attr))

            def counted(*args, _f=original, _k=key, _s=sample):
                counts[_k] += 1
                result = _f(*args)
                if _s is not None and (len(args) == 1 or type(args[1]) is scalar_cls):
                    _s.offer(args)
                return result
            self._undo.append((attr, original))
            setattr(scalar_cls, attr, counted)

    def uninstall(self) -> None:
        for attr, original in self._undo:
            setattr(self._cls, attr, original)
        self._undo.clear()

    def metrics(self) -> dict:
        return {f"scalars.{k}_count": (v, "count") for k, v in sorted(self.counts.items())}

    def op_costs(self, repeats: int = 5, target_ops: int = 5000) -> dict:
        """Median ns per mul, sub and inverse on the sampled operands, less
        the cost of the bare loop; 0 for an operation the pass never made."""

        def per_op(body, items):
            if not items:
                return 0.0
            items = items * max(1, target_ops // len(items))
            samples = []
            for _ in range(repeats):
                t = time.perf_counter_ns()
                body(items)
                samples.append((time.perf_counter_ns() - t) / len(items))
            return statistics.median(samples)

        def loop2(items):
            for _a, _b in items:
                pass

        def mul(items):
            for a, b in items:
                a * b

        def sub(items):
            for a, b in items:
                a - b

        def loop1(items):
            for (_a,) in items:
                pass

        def inv(items):
            for (a,) in items:
                a.inverse()

        s = {op: sample.items for op, sample in self.samples.items()}
        return {
            "scalars.mul_ns": (per_op(mul, s["mul"]) - per_op(loop2, s["mul"]), "ns"),
            "scalars.sub_ns": (per_op(sub, s["sub"]) - per_op(loop2, s["sub"]), "ns"),
            "scalars.inverse_ns": (per_op(inv, s["inverse"]) - per_op(loop1, s["inverse"]),
                                   "ns"),
        }
