"""Layer-crossing spans for the traced benchmark run.

The seven layers are the modules ``orbits``, ``covers``, ``algebra``,
``potentials``, ``exceptional``, ``config`` and ``cli`` of ``localsft``.
``install()`` rebinds, in every layer module, each name that module imported
from another layer: a function becomes a recording wrapper and an imported
module (``cli`` uses ``cv``, ``pt`` and ``ex``) becomes a proxy whose
functions are wrapped.  Calls that reach a layer through an instance rather
than an imported name are caught by wrapping the few methods listed in
``METHODS`` on their classes.  The benchmark's own calls go through
``client()``, the same proxies over each layer module.  ``uninstall()``
restores every binding, so untraced passes run the unmodified program.

A wrapper records a span (id, parent, operation id, layer, name, start,
end, raised) only when the call crosses from one layer into another: when
the innermost open span already belongs to the callee's layer, the call
passes through unrecorded.  Constructors of classes other than
``CountTable`` are not wrapped; their (small) cost counts toward the
calling layer.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import importlib
import time
import types
from pathlib import Path

from workloads import hurwitz_tuples

LAYERS = ("orbits", "covers", "algebra", "potentials", "exceptional", "config", "cli")

# Methods that other layers reach through instances, wrapped on the class.
METHODS = {
    "algebra": {"GradedSeries": ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                                 "__eq__", "scale", "render", "terms", "by_degree",
                                 "degree", "variables")},
    "potentials": {"CountTable": ("__init__", "__eq__", "sorted_entries"),
                   "Potential": ("render",)},
    "covers": {"StrataGraph": ("render_adjacency", "render_edge_lines")},
    "exceptional": {"DerivationStep": ("render", "records"), "Verdict": ("render",),
                    "SplittingEquations": ("render",), "PipelineResult": ("render",),
                    "GateVerdict": ("render",)},
    "config": {"ConfigDocument": ("__eq__",)},
}


def _layer_named(module_name: str) -> str | None:
    head, _, tail = module_name.partition(".")
    return tail if head == "localsft" and tail in LAYERS else None


def _layer_of(fn) -> str | None:
    return _layer_named(getattr(fn, "__module__", None) or "")


class Tracer:
    """Span recorder plus the exact work counts taken at layer boundaries."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"localsft.{name}") for name in LAYERS}
        self.active = False
        self.op_id = -1
        self.stack: list[tuple[int, str]] = []
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}
        self._proxies = {name: self._proxy(name) for name in LAYERS}

    # -- wrapping ----------------------------------------------------------

    def _count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _hook(self, hook, *args):
        # counting may call wrapped methods (``terms``); record no spans for it
        self.active = False
        try:
            hook(*args)
        finally:
            self.active = True

    def _before(self, layer, name, args, kwargs):
        if (layer, name) == ("algebra", "multiply"):
            nf, ng = len(args[0].terms()), len(args[1].terms())
            self._count("algebra.multiply.pairs", nf * ng)
            self._count("algebra.multiply.terms_in", nf + ng)
        elif (layer, name) == ("covers", "hurwitz_count"):
            self._count("covers.hurwitz_tuples", hurwitz_tuples(*args, **kwargs))
        elif (layer, name) == ("config", "parse_config"):
            self._count("config.bytes_parsed", len(args[0].encode()))

    def _after(self, layer, name, result):
        if (layer, name) == ("algebra", "multiply"):
            self._count("algebra.multiply.terms_out", len(result.terms()))
        elif (layer, name) == ("covers", "boundary_strata"):
            self._count("covers.strata_nodes", len(result.nodes))
            self._count("covers.strata_edges", len(result.edges))
        elif layer == "exceptional" and name in ("elliptic_necessity", "lagrangian_genus_gate"):
            self._count("exceptional.trace_steps", len(result.derivation))
        elif (layer, name) == ("exceptional", "recursion_pipeline"):
            self._count("exceptional.trace_steps", len(result.trace))

    def wrap(self, layer: str, name: str, fn):
        key = id(fn)
        if key in self._wrapped:
            return self._wrapped[key]
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if not tracer.active or (stack and stack[-1][1] == layer):
                return fn(*args, **kwargs)
            tracer._hook(tracer._before, layer, name, args, kwargs)
            span_id = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            tracer.spans.append(None)
            stack.append((span_id, layer))
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[span_id] = (span_id, parent, tracer.op_id, layer, name,
                                         start, end, raised)
            tracer._hook(tracer._after, layer, name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        self._wrapped[key] = traced
        return traced

    def _proxy(self, layer: str):
        module = self.modules[layer]
        proxy = types.SimpleNamespace()
        for attr, value in vars(module).items():
            target = _layer_of(value)
            if isinstance(value, types.FunctionType) and target:
                value = self.wrap(target, attr, value)
            setattr(proxy, attr, value)
        return proxy

    def client(self):
        """The layer proxies the benchmark calls through in traced passes."""
        return dict(self._proxies)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for name, module in self.modules.items():
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.ModuleType):
                    target = _layer_named(value.__name__)
                    if target and target != name:
                        self._set(module, attr, self._proxies[target])
                elif isinstance(value, types.FunctionType):
                    target = _layer_of(value)
                    if target and target != name:
                        self._set(module, attr, self.wrap(target, attr, value))
        for layer, classes in METHODS.items():
            module = self.modules[layer]
            for cls_name, methods in classes.items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._set(cls, meth, self.wrap(layer, f"{cls_name}.{meth}", fn))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- passes ------------------------------------------------------------

    def start_pass(self):
        self.spans = []
        self.counts = {}
        self.stack = []

    def summary(self) -> dict[str, float]:
        """Per-layer calls, self time and failures of the spans of one pass."""
        child_time = [0.0] * len(self.spans)
        for span_id, parent, _, _, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        compose_ids = set()
        for span_id, parent, _, layer, name, start, end, raised in self.spans:
            own = (end - start) - child_time[span_id]
            add(f"{layer}.calls", 1)
            add(f"{layer}.self_s", own)
            add(f"{layer}.fail", int(raised))
            add(f"{layer}.{name}.calls", 1)
            add(f"{layer}.{name}.self_s", own)
            if (layer, name) == ("potentials", "compose_sharp"):
                compose_ids.add(span_id)
        # algebra spans below a compose_sharp span, per compose_sharp call
        under = 0
        for _, parent, _, layer, _, _, _, _ in self.spans:
            if layer != "algebra":
                continue
            while parent >= 0 and parent not in compose_ids:
                parent = self.spans[parent][1]
            under += parent >= 0
        out["potentials.algebra_calls_per_compose"] = (
            under / len(compose_ids) if compose_ids else 0.0)
        out.update(self.counts)
        return out

    def write(self, path: Path):
        """Write the spans of the current pass, one tab-separated line each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id\tparent\top\tlayer\tname\tstart\tend\traised\n")
            for span in self.spans:
                fh.write("\t".join(str(x) for x in span) + "\n")
