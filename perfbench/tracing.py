"""In-memory spans around the calls between gibbsfields layers.

Spans are recorded only from the benchmark's own files: at install time
the tracer replaces, in the module namespaces, every public function that
one gibbsfields module imports by name from another, plus a fixed list of
cross-layer methods. The defining module's own binding is replaced too,
so calls through a function-local import are seen. ``__hash__`` and
``__eq__`` of ``Volume`` and ``Configuration`` are not wrapped; their
cost lands in the self time of the calling layer.

A span holds name, module, start, end, parent and operation id. Each
function keeps its first SPAN_CAP spans; later calls are aggregated per
(function, parent) with count and summed duration, so memory stays
bounded on leaf calls such as ``concat`` and ``restrict``. Self time
(duration minus the time covered by child spans) is summed per module
as the calls end, so it does not depend on the cap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import weakref
from time import perf_counter

MODULES = ("lattice", "fields", "conditionals", "energy", "specifications",
           "models", "diagnostics", "cli", "_parallel")
METHODS = {
    "conditionals.KernelCache": ("__call__",),
    "specifications.OnePointTEF": ("ratio",),
    "specifications.OnePointSpec": ("table",),
    "specifications.Specification": ("kernel",),
    "diagnostics.BoundaryGenerator": ("configs",),
    "energy.TransitionEnergy": ("ratio",),
}
SPAN_CAP = 1000


def layer_of(fn) -> str:
    """Layer (module short name) that owns a function's code."""
    fn = getattr(fn, "__func__", fn)
    module = getattr(fn, "__module__", None) or ""
    if not module.startswith("gibbsfields"):
        return "harness"
    return module.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    def __init__(self):
        self._targets: list = []   # (owner, attribute, original, wrapper)
        self._installed = False
        self._stack: list = []
        self.spans: list = []
        self._kept: dict = {}      # name -> spans kept, over the whole run
        self.op_id = 0
        self._next_id = 0
        self.reset()

    # -- counters --------------------------------------------------------

    def reset(self) -> None:
        """Clear every counter; spans already kept are not touched."""
        self.calls: dict = {}
        self.edges: dict = {}      # (name, parent name) -> [count, inclusive s, self s]
        self.self_s: dict = {}     # layer -> s
        self.work = {"enumerate.configs": 0, "marginalize.entries": 0,
                     "largest_table": 0, "marginal.built": 0,
                     "finite_volume_gibbs.configs": 0, "parallel_map.items": 0}
        self._seen_tables = weakref.WeakValueDictionary()  # id -> table
        self._root = [0.0, "harness", 0]
        self._stack[:] = [self._root]

    def _record(self, name, layer, start, end, frame, parent) -> None:
        dur = end - start
        own = dur - frame[0]
        parent[0] += dur
        self.self_s[layer] = self.self_s.get(layer, 0.0) + own
        self.calls[name] = self.calls.get(name, 0) + 1
        key = (name, parent[1])
        edge = self.edges.get(key)
        if edge is None:
            self.edges[key] = [1, dur, own]
        else:
            edge[0] += 1
            edge[1] += dur
            edge[2] += own
        kept = self._kept.get(name, 0)
        if kept < SPAN_CAP:
            self._kept[name] = kept + 1
            self.spans.append((frame[2], name, layer, start, end, parent[2], self.op_id))

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, name: str, post=None):
        stack = self._stack
        layer = layer_of(fn)
        record = self._record

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            self._next_id += 1
            frame = [0.0, name, self._next_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record(name, layer, start, end, frame, parent)
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def op(self, fn, args, kwargs):
        """One benchmark operation: a span credited to the callee's layer.

        Operation spans are kept but not counted as calls, so call counts
        stay those of the library itself.
        """
        self.op_id += 1
        parent = self._root
        frame = [0.0, "op", -self.op_id]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - start
            parent[0] += dur
            layer = layer_of(fn)
            self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - frame[0]
            self.spans.append((-self.op_id, "op:" + getattr(fn, "__qualname__", "?"),
                               layer, start, end, 0, self.op_id))

    def _with_callback_spans(self, parallel_map):
        """parallel_map calls back into its caller's layer, through a
        closure no namespace binds: give each callback a span of the
        layer that defined it, so its work is not counted as _parallel's."""

        @functools.wraps(parallel_map)
        def spanned(fn, items, *args, **kwargs):
            name = f"{fn.__module__.split('.', 1)[-1]}.{fn.__qualname__}"
            return parallel_map(self._wrap(fn, name), items, *args, **kwargs)

        return spanned

    def _posts(self) -> dict:
        """Hooks that count the work done by a call, from its arguments and result."""

        def add(key, n):
            self.work[key] += n

        def table_size(size):
            self.work["largest_table"] = max(self.work["largest_table"], size)

        def marginal_post(args, result):
            # a table object not returned before was built by this call
            if self._seen_tables.get(id(result)) is not result:
                self._seen_tables[id(result)] = result
                add("marginal.built", 1)
            table_size(len(result))

        def marginalize_post(args, result):
            add("marginalize.entries", len(args[0]))
            table_size(len(result))

        def gibbs_post(args, result):
            add("finite_volume_gibbs.configs", len(result))
            table_size(len(result))

        return {"lattice.enumerate_configurations":
                    lambda args, result: add("enumerate.configs", len(result)),
                "fields.marginalize": marginalize_post,
                "specifications.finite_volume_gibbs": gibbs_post,
                "_parallel.parallel_map":
                    lambda args, result: add("parallel_map.items", len(result)),
                "marginal": marginal_post}

    def install(self) -> None:
        """Replace every traced binding with its wrapper."""
        if self._installed:
            return
        if not self._targets:
            self._build_wrappers()
        for owner, attr, _original, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        """Put every original binding back."""
        if self._installed:
            for owner, attr, original, _wrapper in self._targets:
                setattr(owner, attr, original)
        self._installed = False

    def _build_wrappers(self) -> None:
        import gibbsfields

        modules = {m: importlib.import_module(f"gibbsfields.{m}") for m in MODULES}
        namespaces = [gibbsfields, *modules.values()]
        posts = self._posts()
        # functions one gibbsfields module imports by name from another
        crossing = {}
        for ns in namespaces:
            for attr, obj in vars(ns).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith("gibbsfields.")
                        and obj.__module__ != ns.__name__):
                    crossing[obj] = f"{obj.__module__.split('.', 1)[1]}.{obj.__name__}"
        crossing[modules["cli"].main] = "cli.main"
        targets = []
        for fn, name in crossing.items():
            inner = self._with_callback_spans(fn) if name == "_parallel.parallel_map" else fn
            wrapper = self._wrap(inner, name, posts.get(name))
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    if obj is fn:
                        targets.append((ns, attr, fn, wrapper))
        # cross-layer methods, and marginal/prob of every model class
        classes = []
        for dotted, attrs in METHODS.items():
            mod, cls = dotted.split(".")
            classes.append((getattr(modules[mod], cls), attrs))
        model_base = modules["fields"].RandomFieldModel
        for ns in modules.values():
            for obj in vars(ns).values():
                if inspect.isclass(obj) and issubclass(obj, model_base) \
                        and obj.__module__ == ns.__name__:
                    classes.append((obj, ("marginal", "prob")))
        for cls, attrs in classes:
            for attr in attrs:
                fn = cls.__dict__.get(attr)
                if fn is None:
                    continue
                name = f"{cls.__module__.split('.', 1)[1]}.{cls.__qualname__}.{attr}"
                wrapper = self._wrap(fn, name, posts.get(attr))
                targets.append((cls, attr, fn, wrapper))
        self._targets = targets

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters since the last reset, as plain data."""
        return {"calls": dict(self.calls),
                "edges": {f"{n} <- {p}": v for (n, p), v in self.edges.items()},
                "self_s": dict(self.self_s), "work": dict(self.work)}


def _sum_calls(calls: dict, suffix: str) -> int:
    return sum(n for name, n in calls.items() if name.endswith(suffix))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


REPORTS = ("diagnostics.uniform_convergence_report", "diagnostics.quasilocality_report",
           "diagnostics.energy_criterion_report",
           "diagnostics.filtration_independence_check", "diagnostics.non_gibbs_witness")
BUILDERS = ("models.example1_pair", "models.example2_model", "models.ising_demo",
            "models.bernoulli_product", "fields.seeded_positive_table", "fields.table_field")
LAYERS = ("lattice", "fields", "conditionals", "energy", "specifications", "models",
          "diagnostics", "cli", "parallel")


def build_seconds(snap: dict) -> float:
    """Wall time of outermost model and table construction calls."""
    total = 0.0
    for key, (_count, incl, _own) in snap["edges"].items():
        name, parent = key.split(" <- ")
        if name in BUILDERS and parent not in BUILDERS:
            total += incl
    return total


def layer_metrics(snap: dict) -> dict:
    """Per-layer metric values (no units) from one traced pass."""
    calls, work, self_s = snap["calls"], snap["work"], snap["self_s"]
    edges = snap["edges"]

    def edge(name, parent):
        return edges.get(f"{name} <- {parent}", [0, 0.0, 0.0])[0]

    marginal_calls = _sum_calls(calls, ".marginal")
    kc_calls = calls.get("conditionals.KernelCache.__call__", 0)
    kc_miss = edge("conditionals.finite_conditional", "conditionals.KernelCache.__call__")
    tef_calls = calls.get("specifications.OnePointTEF.ratio", 0)
    tef_miss = edge("specifications.hamiltonian_from_potential",
                    "specifications.OnePointTEF.ratio")
    out = {
        "lattice.concat.calls": calls.get("lattice.concat", 0),
        "lattice.restrict.calls": calls.get("lattice.restrict", 0),
        "lattice.enumerate.calls": calls.get("lattice.enumerate_configurations", 0),
        "lattice.enumerate.configs": work["enumerate.configs"],
        "fields.marginalize.calls": calls.get("fields.marginalize", 0),
        "fields.marginalize.entries": work["marginalize.entries"],
        "fields.marginal.calls": marginal_calls,
        "fields.marginal.build_ratio": _ratio(work["marginal.built"], marginal_calls),
        "fields.largest_table": work["largest_table"],
        "conditionals.finite_conditional.calls": calls.get("conditionals.finite_conditional", 0),
        "conditionals.kernel_cache.calls": kc_calls,
        "conditionals.kernel_cache.hit_ratio": _ratio(kc_calls - kc_miss, kc_calls),
        "conditionals.reconstruct.calls": calls.get("conditionals.reconstruct_from_one_point", 0),
        "energy.transition_energy.calls": calls.get("energy.transition_energy", 0),
        "energy.ratio.calls": calls.get("energy.TransitionEnergy.ratio", 0),
        "specifications.tef_ratio.calls": tef_calls,
        "specifications.hamiltonian.calls":
            calls.get("specifications.hamiltonian_from_potential", 0),
        "specifications.tef_cache.hit_ratio": _ratio(tef_calls - tef_miss, tef_calls),
        "specifications.finite_volume_gibbs.configs": work["finite_volume_gibbs.configs"],
        "models.prob.calls": _sum_calls(calls, ".prob"),
        "diagnostics.reports.calls": sum(calls.get(n, 0) for n in REPORTS),
        "diagnostics.generator_configs.calls":
            calls.get("diagnostics.BoundaryGenerator.configs", 0),
        "cli.commands.calls": calls.get("cli.main", 0),
        "parallel.parallel_map.calls": calls.get("_parallel.parallel_map", 0),
        "parallel.parallel_map.items": work["parallel_map.items"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return out
