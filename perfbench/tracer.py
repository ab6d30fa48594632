"""Outside-in tracer for the irrtop layers.

The tracer changes nothing under ``src/``. While installed it rebinds every
public function of each layer module in every ``irrtop`` namespace that holds
it (so ``irrtop.meataxe.kernel`` is traced as well as
``irrtop.linalg.kernel``), and wraps a few hot methods on their classes.
Each call opens a span; spans are kept in memory as (name, start, end,
parent) and written out once the run ends. ``uninstall`` restores every
binding it replaced.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

PACKAGE = "irrtop"
LAYERS = ("linalg", "algebra", "modules", "meataxe", "presets", "topology", "pointclosure", "embeddings", "docs", "cli")
METHODS = {
    "linalg": {"Subspace": ("intersect", "add", "reduce", "from_rows")},
    "algebra": {"Algebra": ("multiply",)},
    "pointclosure": {"FiniteSpace": ("validate",)},
}
LATTICE_SPAN = "topology.semiprimitive_subspaces"


def _rref_cells(tracer: "Tracer", args, result) -> None:
    shape = getattr(args[0], "shape", ())
    if len(shape) == 2:
        tracer.counts["linalg.rref.cells"] += shape[0] * shape[1]


def _intersect(tracer: "Tracer", args, result) -> None:
    if tracer.active[LATTICE_SPAN]:
        tracer.counts["topology.lattice.intersects"] += 1


def _factors_out(tracer: "Tracer", args, result) -> None:
    tracer.counts["meataxe.factors_out"] += len(result)


def _iso_hit(tracer: "Tracer", args, result) -> None:
    tracer.counts["meataxe.iso.hits"] += result is not None


def _lattice_members(tracer: "Tracer", args, result) -> None:
    tracer.counts["topology.lattice.members"] += len(result)


def _pairs_out(tracer: "Tracer", args, result) -> None:
    tracer.counts["pointclosure.pairs_out"] += len(result.pairs)


def _find_outcome(tracer: "Tracer", args, result) -> None:
    tracer.counts["embeddings.find.candidates"] += result.tried
    tracer.counts["embeddings.find.witnesses"] += result.status == "found"


def _stability(tracer: "Tracer", args, result) -> None:
    tracer.counts["embeddings.stability.subfamilies"] += result.checked


# Work counts read from a call's arguments or result, keyed by span name.
OBSERVERS = {
    "linalg.rref": _rref_cells,
    "linalg.Subspace.intersect": _intersect,
    "meataxe.composition_factors": _factors_out,
    "meataxe.is_isomorphic_simple": _iso_hit,
    LATTICE_SPAN: _lattice_members,
    "pointclosure.point_closure": _pairs_out,
    "embeddings.find_embedding": _find_outcome,
    "embeddings.deletion_stability": _stability,
}


class Tracer:
    """Span recorder for one run. Single-threaded: spans nest strictly."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self.origin = 0.0

    # --- spans ---------------------------------------------------------------

    def _open(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(len(self.span_start))
        self._child_time.append(0.0)
        self.calls[name] += 1
        self.active[name] += 1
        self.span_start.append(time.perf_counter())

    def _close(self, name: str) -> None:
        end = time.perf_counter()
        idx = self._stack.pop()
        child = self._child_time.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.self_s[name] += dur - child
        if self._child_time:
            self._child_time[-1] += dur
        self.active[name] -= 1

    def _wrap(self, name: str, fn):
        tracer = self
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name)
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function and method."""
        self.origin = time.perf_counter()
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._restore.append((ns, key, fn))
                            setattr(ns, key, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    self._restore.append((cls, meth, raw))
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, staticmethod):
                        setattr(cls, meth, staticmethod(self._wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self._wrap(name, raw))

    def uninstall(self) -> None:
        """Put back every binding ``install`` replaced."""
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- output --------------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write every span as a gzip'd TSV (id, parent, name, start_s, end_s),
        times relative to installation; returns the span count."""
        origin = self.origin
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - origin:.9f}\t{self.span_end[i] - origin:.9f}\n"
                )
        return len(self.span_start)
