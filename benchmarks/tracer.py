"""Per-layer tracing of qwalkspec from outside the program.

``Tracer.install()`` replaces every public function of each qwalkspec module
with a timing shim, at every import site: the defining module, each module
that imported the name, and the package namespace.  Calls the program makes
internally (``profile`` -> ``char_poly`` -> ``modular_charpoly``, the
``batch_compare`` thread pool, ``cli.main``) therefore pass through the
shims, and ``src/`` stays untouched.  ``uninstall()`` restores the originals,
so untraced passes run the program exactly as shipped.

Each shim records a span on a per-thread stack.  A layer's self time is the
span's duration minus the time of the spans nested in it.  Spans are folded
into per-layer sums as they close; nothing is kept per call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import weakref
from collections import defaultdict
from time import perf_counter, thread_time

MODULES = (
    "graph6",
    "generators",
    "graphs",
    "arcspace",
    "intmat",
    "supports",
    "polynomials",
    "jacobi",
    "invariants",
    "cli",
)

# Functions whose layer is not simply their module's name.
_LAYERS = {
    "intmat.mat_mul": "intmat.mat_mul",
    "intmat.mat_pow": "intmat.mat_pow",
    "intmat.positive_support": "intmat.positive_support",
    "intmat.char_poly": "intmat.charpoly",
    "intmat.berkowitz_charpoly": "intmat.charpoly.berkowitz",
    "intmat.modular_charpoly": "intmat.charpoly.modular",
    "intmat.bareiss_determinant": "intmat.bareiss",
    "supports.build_support_set": "supports.support_set",
    "supports.support_u": "supports.support_set",
    "supports.support_u_power": "supports.support_set",
    "supports.su2_via_identity": "supports.support_set",
    "supports.identity_suite": "supports.identity_suite",
    "supports.closed_form_charpoly_su": "supports.closed_form",
    "supports.closed_form_charpoly_su2": "supports.closed_form",
    "supports.closed_form_spectrum_su": "supports.closed_form",
    "supports.closed_form_spectrum_su2": "supports.closed_form",
    "supports.ihara_style_charpoly": "supports.closed_form",
    "supports.char_poly_identity_check": "supports.closed_form",
    "invariants.profile": "invariants.profile",
    "invariants.compare": "invariants.compare",
    "invariants.batch_compare": "invariants.batch",
    "graph6.parse_graph6": "graph6.parse",
    "graph6.parse_graph6_file": "graph6.parse",
    "graph6.read_graph6_file": "graph6.parse",
    "graph6.write_graph6": "graph6.write",
    "graph6.write_graph6_file": "graph6.write",
}
# Layer of any other public function, by module.
_MODULE_LAYERS = {"intmat": "intmat.misc", "supports": "supports.other", "invariants": "invariants.output"}

# Functions whose calls feed the counters in Tracer._after.
_HOOKED = frozenset(
    {
        "intmat.mat_mul",
        "intmat.positive_support",
        "intmat.modular_charpoly",
        "intmat.char_poly",
        "graphs.adjacency_matrix",
        "supports.build_support_set",
        "supports.support_u",
        "supports.support_u_power",
        "supports.su2_via_identity",
        "invariants.profile",
        "invariants.batch_compare",
    }
)

# Per-layer metrics, in the order BENCHMARK.json lists them: (name, unit, better).
PER_LAYER = (
    ("intmat.charpoly.modular.self_s", "s", "lower"),
    ("intmat.charpoly.modular.calls", "count", "lower"),
    ("intmat.charpoly.modular.dim3", "count", "lower"),
    ("intmat.charpoly.a.s", "s", "lower"),
    ("intmat.charpoly.s1.s", "s", "lower"),
    ("intmat.charpoly.s2.s", "s", "lower"),
    ("intmat.charpoly.s3.s", "s", "lower"),
    ("intmat.charpoly.berkowitz.self_s", "s", "lower"),
    ("intmat.charpoly.berkowitz.calls", "count", "lower"),
    ("intmat.charpoly.coeff_bits", "bits", "lower"),
    ("intmat.mat_mul.self_s", "s", "lower"),
    ("intmat.mat_mul.calls", "count", "lower"),
    ("intmat.mat_mul.ops", "count", "lower"),
    ("intmat.positive_support.self_s", "s", "lower"),
    ("intmat.positive_support.entries", "count", "lower"),
    ("arcspace.self_s", "s", "lower"),
    ("arcspace.calls", "count", "lower"),
    ("supports.support_set.self_s", "s", "lower"),
    ("supports.identity_suite.self_s", "s", "lower"),
    ("supports.closed_form.self_s", "s", "lower"),
    ("supports.closed_form.calls", "count", "lower"),
    ("polynomials.self_s", "s", "lower"),
    ("polynomials.calls", "count", "lower"),
    ("jacobi.self_s", "s", "lower"),
    ("jacobi.calls", "count", "lower"),
    ("graph6.parse.self_s", "s", "lower"),
    ("invariants.compare.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("invariants.batch.parallel_eff", "ratio", "higher"),
    ("invariants.batch.useful_ratio", "ratio", "higher"),
    ("invariants.profile.self_s", "s", "lower"),
    ("generators.self_s", "s", "lower"),
    ("graphs.self_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)

# Which end-to-end metric each per-layer metric is predicted to move, on
# which workload, and where it must not move.  Written before any
# optimisation; a change claiming a gain is judged against it.
PREDICTIONS = (
    {
        "layer": ["intmat.charpoly.modular.self_s", "intmat.charpoly.modular.calls",
                  "intmat.charpoly.modular.dim3", "intmat.charpoly.{a,s1,s2,s3}.s"],
        "moves": {"srg_ladder": ["wall_s", "op_tail_s"], "relabel_small": ["wall_s", "op_tail_s"]},
        "must_not_move": {"relabel_small": ["op_p50_s"]},
        "note": "about 95% of srg_ladder and, measured at the seed, about 70% of relabel_small,"
                " whose graphs with nk 30-64 take the modular path; the median relabel_small op"
                " (nk <= 24) runs Berkowitz only",
    },
    {
        "layer": ["intmat.charpoly.berkowitz.self_s", "intmat.charpoly.berkowitz.calls"],
        "moves": {"relabel_small": ["op_p50_s"]},
        "must_not_move": {"srg_ladder": ["wall_s"]},
        "note": "Berkowitz runs only for nk <= 24; about 0 on srg_ladder",
    },
    {
        "layer": ["intmat.charpoly.coeff_bits"],
        "moves": {},
        "must_not_move": {},
        "note": "actual coefficient bits: the base for a later traced prime count",
    },
    {
        "layer": ["intmat.mat_mul.self_s", "intmat.mat_mul.calls", "intmat.mat_mul.ops",
                  "intmat.positive_support.self_s", "intmat.positive_support.entries",
                  "arcspace.self_s", "arcspace.calls"],
        "moves": {"relabel_small": ["ops_per_s"], "verify_cli": ["ops_per_s"]},
        "must_not_move": {"srg_ladder": ["wall_s"]},
        "note": "under 3% of srg_ladder",
    },
    {
        "layer": ["supports.support_set.self_s"],
        "moves": {"relabel_small": ["ops_per_s", "op_p50_s"]},
        "must_not_move": {},
        "note": "",
    },
    {
        "layer": ["supports.identity_suite.self_s", "supports.closed_form.self_s",
                  "supports.closed_form.calls", "polynomials.self_s", "polynomials.calls",
                  "jacobi.self_s", "jacobi.calls"],
        "moves": {"verify_cli": ["wall_s", "op_tail_s"]},
        "must_not_move": {},
        "note": "once closed forms enter profile, polynomials appears on srg_ladder"
                " and modular.calls falls there",
    },
    {
        "layer": ["graph6.parse.self_s", "invariants.compare.self_s", "cli.self_s"],
        "moves": {"batch_cli": ["wall_s", "ops_per_s"]},
        "must_not_move": {},
        "note": "",
    },
    {
        "layer": ["invariants.batch.parallel_eff"],
        "moves": {"batch_cli": ["ops_per_s"]},
        "must_not_move": {"srg_ladder": ["wall_s", "op_tail_s"]},
        "note": "profile thread CPU time / (batch wall x 2 workers)",
    },
    {
        "layer": ["invariants.batch.useful_ratio"],
        "moves": {"batch_cli": ["ops_per_s", "wall_s"]},
        "must_not_move": {"srg_ladder": ["wall_s"], "relabel_small": ["ops_per_s"]},
        "note": "the waste fingerprint-first batch_compare removes",
    },
)


class _Stat:
    __slots__ = ("self_s", "calls")

    def __init__(self):
        self.self_s = 0.0
        self.calls = 0


class Tracer:
    """Timing shims over qwalkspec, plus the counters the per-layer metrics need."""

    def __init__(self, batch_workers: int):
        self.batch_workers = batch_workers
        self._modules = [importlib.import_module(f"qwalkspec.{m}") for m in MODULES]
        self._package = importlib.import_module("qwalkspec")
        self._patched: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self.reset()

    # -- counters ---------------------------------------------------------

    def reset(self) -> None:
        self.stats = defaultdict(_Stat)
        self.counts = defaultdict(float)
        self.coeff_bits = 0
        self.main_self_s = 0.0
        self._batch_active = 0
        self._origin: dict = {}  # id(matrix) -> (weakref, invariant label)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _label(self, matrix, label: str) -> None:
        self._origin[id(matrix)] = (weakref.ref(matrix), label)

    def _label_of(self, matrix) -> str:
        entry = self._origin.get(id(matrix))
        if entry is not None and entry[0]() is matrix:
            return entry[1]
        return "other"

    # -- hooks: run after a span closes, with the call's arguments --------

    def _after(self, key, args, kwargs, result, dur, cpu) -> None:
        c = self.counts
        if key == "intmat.mat_mul":
            a, b = args[0], args[1]
            c["mat_mul.ops"] += 2 * a.shape[0] * a.shape[1] * b.shape[1]
        elif key == "intmat.positive_support":
            c["positive_support.entries"] += args[0].size
        elif key == "intmat.modular_charpoly":
            c["modular.dim3"] += args[0].shape[0] ** 3
        elif key == "intmat.char_poly":
            c[f"charpoly.{self._label_of(args[0])}.s"] += dur
            bits = max(abs(x).bit_length() for x in result.coeffs)
            self.coeff_bits = max(self.coeff_bits, bits)
        elif key == "graphs.adjacency_matrix":
            self._label(result, "a")
        elif key == "supports.build_support_set":
            for field in ("s1", "s2", "s3"):
                self._label(getattr(result, field), field)
        elif key == "supports.support_u":
            self._label(result, "s1")
        elif key == "supports.support_u_power":
            power = args[1] if len(args) > 1 else kwargs["m"]
            self._label(result, f"s{power}")
        elif key == "supports.su2_via_identity":
            self._label(result, "s2")
        elif key == "invariants.profile" and self._batch_active:
            # CPU time of the worker thread: its wall time would count waits for
            # the interpreter lock as work and put GIL-bound threads near 1.
            c["batch.profile_cpu_s"] += cpu
            c["batch.profiled"] += 1
        elif key == "invariants.batch_compare":
            c["batch.wall_s"] += dur
            decided_by_s = set()
            for report in result.pairs:
                if report.verdicts["a"] == "cospectral":
                    decided_by_s.update(report.pair)
            c["batch.useful"] += len(decided_by_s)

    # -- shims ------------------------------------------------------------

    def _shim(self, fn, key: str, layer: str):
        tracer = self
        hooked = key in _HOOKED
        timed_cpu = key == "invariants.profile"

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            if key == "invariants.batch_compare":
                tracer._batch_active += 1
            cpu = thread_time() if timed_cpu else 0.0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                cpu = thread_time() - cpu if timed_cpu else 0.0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                own = dur - frame[0]
                with tracer._lock:
                    stat = tracer.stats[layer]
                    stat.self_s += own
                    stat.calls += 1
                    if threading.get_ident() == tracer._main:
                        tracer.main_self_s += own
                if key == "invariants.batch_compare":
                    tracer._batch_active -= 1
            if hooked:
                with tracer._lock:
                    tracer._after(key, args, kwargs, result, dur, cpu)
            return result

        return shim

    def install(self) -> None:
        shims = {}
        for mod in self._modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                key = f"{short}.{name}"
                layer = _LAYERS.get(key, _MODULE_LAYERS.get(short, short))
                shims[obj] = self._shim(obj, key, layer)
        for mod in self._modules + [self._package]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in shims:
                    setattr(mod, name, shims[obj])
                    self._patched.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in self._patched:
            setattr(mod, name, obj)
        self._patched = []
        self._origin = {}

    # -- report -----------------------------------------------------------

    def metrics(self, passes: int, traced_wall_s: float, overhead_s: float) -> dict:
        """Per-layer metrics, each per traced pass; ratios are over the whole run."""
        s, c = self.stats, self.counts

        def self_s(layer):
            return s[layer].self_s / passes if layer in s else 0.0

        def calls(layer):
            return s[layer].calls / passes if layer in s else 0.0

        batch_wall = c["batch.wall_s"]
        values = {
            "intmat.charpoly.modular.self_s": self_s("intmat.charpoly.modular"),
            "intmat.charpoly.modular.calls": calls("intmat.charpoly.modular"),
            "intmat.charpoly.modular.dim3": c["modular.dim3"] / passes,
            "intmat.charpoly.berkowitz.self_s": self_s("intmat.charpoly.berkowitz"),
            "intmat.charpoly.berkowitz.calls": calls("intmat.charpoly.berkowitz"),
            "intmat.charpoly.coeff_bits": float(self.coeff_bits),
            "intmat.mat_mul.self_s": self_s("intmat.mat_mul"),
            "intmat.mat_mul.calls": calls("intmat.mat_mul"),
            "intmat.mat_mul.ops": c["mat_mul.ops"] / passes,
            "intmat.positive_support.self_s": self_s("intmat.positive_support"),
            "intmat.positive_support.entries": c["positive_support.entries"] / passes,
            "arcspace.self_s": self_s("arcspace"),
            "arcspace.calls": calls("arcspace"),
            "supports.support_set.self_s": self_s("supports.support_set"),
            "supports.identity_suite.self_s": self_s("supports.identity_suite"),
            "supports.closed_form.self_s": self_s("supports.closed_form"),
            "supports.closed_form.calls": calls("supports.closed_form"),
            "polynomials.self_s": self_s("polynomials"),
            "polynomials.calls": calls("polynomials"),
            "jacobi.self_s": self_s("jacobi"),
            "jacobi.calls": calls("jacobi"),
            "graph6.parse.self_s": self_s("graph6.parse"),
            "invariants.compare.self_s": self_s("invariants.compare"),
            "cli.self_s": self_s("cli"),
            "invariants.batch.parallel_eff": (
                c["batch.profile_cpu_s"] / (batch_wall * self.batch_workers) if batch_wall else 0.0
            ),
            "invariants.batch.useful_ratio": (
                c["batch.useful"] / c["batch.profiled"] if c["batch.profiled"] else 0.0
            ),
            "invariants.profile.self_s": self_s("invariants.profile"),
            "generators.self_s": self_s("generators"),
            "graphs.self_s": self_s("graphs"),
            "trace.coverage": self.main_self_s / traced_wall_s if traced_wall_s else 0.0,
            "trace.overhead_s": overhead_s,
        }
        for label in ("a", "s1", "s2", "s3"):
            values[f"intmat.charpoly.{label}.s"] = c[f"charpoly.{label}.s"] / passes
        return {name: values[name] for name, _, _ in PER_LAYER}

    def layer_table(self, passes: int) -> list:
        """[(layer, self seconds per pass, calls per pass)], largest self time first."""
        rows = [(name, st.self_s / passes, st.calls / passes) for name, st in self.stats.items()]
        return sorted(rows, key=lambda r: -r[1])

