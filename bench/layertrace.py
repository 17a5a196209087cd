"""Per-layer tracing of the engine from outside.

:class:`Tracer` replaces public functions and methods of ``starq``
modules with wrappers kept here; nothing in ``src/starq`` knows about
it.  A method is patched on its class, under every alias the class
binds it to (``__add__`` and ``__radd__``).  A function is patched in
every namespace that bound it by name, because ``from .products import
check_axioms`` copies the reference into ``starq.cli``,
``starq.equivalence`` and ``starq`` itself, and a call through an
unpatched copy would go missing.

Span wrappers record ``(name, start, end, parent, job)`` in flat arrays
kept in memory, with the time the run's host clock spent probing inside
the span, which is left out of every self time; :meth:`Tracer.write`
saves them when the run ends.
Counter wrappers, used on the hottest scalar and constructor calls,
only count.  Self times, the two ratios and the ``trace.*`` metrics are
computed from the spans by :func:`layer_metrics`.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# Span-wrapped functions: module -> names; "Class.method" names a method.
SPANS = {
    "poly": ["Poly.diff", "Poly.mul", "Poly.add"],
    "series": ["HbarSeries.add", "HbarSeries.sub", "HbarSeries.neg", "HbarSeries.mul",
               "HbarSeries.eq", "HbarSeries.scale", "HbarSeries.map", "HbarSeries.shift_down",
               "HbarSeries.truncate", "HbarSeries.is_zero", "HbarSeries.from_constant"],
    "operators": ["BiDiffOp.apply", "DiffOp.apply", "DiffOp.compose"],
    "geometry": ["covariant_jet_ops"],
    "products": ["moyal_product", "vector_field_product", "natural_cotangent_product",
                 "truncated_symplectic_product", "check_axioms", "StarProduct.apply",
                 "quantum_canonicity_check"],
    "equivalence": ["flat_cotangent_order4", "verify_intertwining", "derive_equivalence",
                    "commutator_solution_direct", "commutator_solution_nested"],
    "exprparse": ["parse_poly"],
    "cli": ["load_problem", "build_product", "emit"],
}
# Count-only wrappers: too many calls for a span each.
COUNTS = {
    "scalars": ["GaussianRational.mul", "GaussianRational.add"],
    "poly": ["Poly.init"],
}
# Short method names -> the attributes that carry them.
_ALIASES = {
    "add": ("__add__", "__radd__"),
    "sub": ("__sub__",),
    "neg": ("__neg__",),
    "mul": ("__mul__", "__rmul__"),
    "eq": ("__eq__",),
    "init": ("__init__",),
}
_BUILDERS = ("moyal_product", "vector_field_product", "natural_cotangent_product",
             "truncated_symplectic_product")


class Tracer:
    """Installs the wrappers and holds the spans of one traced pass."""

    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.jobs: list = []
        self.job_id = -1
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self.hidden = array("d")  # observer time spent directly under each span
        self.probed = array("d")  # host-clock probe time inside each span
        self.clock = None
        self.stack: list = []
        self.counts: Counter = Counter()
        self.distinct_apply: set = set()
        self._keep_alive: list = []
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def install(self, clock, extra_namespaces=()):
        """Patch the engine; ``clock`` is the HostClock timing the traced
        pass, whose probe time is taken out of every span."""
        self.clock = clock
        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("starq.") and mod is not None
        }
        namespaces = [m for name, m in sys.modules.items()
                      if (name == "starq" or name.startswith("starq.")) and m is not None]
        namespaces += list(extra_namespaces)
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for modname, entries in table.items():
                mod = modules[modname]
                for entry in entries:
                    label = f"{modname}.{entry}"
                    if "." in entry:
                        cls_name, meth = entry.split(".")
                        self._patch_method(getattr(mod, cls_name), meth, label, make)
                    else:
                        self._patch_function(mod, entry, label, make, namespaces)

    def _patch_method(self, cls, meth, label, make):
        attrs = [a for a in _ALIASES.get(meth, (meth,)) if a in cls.__dict__]
        if not attrs:
            raise AttributeError(f"{cls.__name__} has no method {meth!r}")
        for attr in attrs:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(label, raw.__func__))
            else:
                wrapped = make(label, raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def _patch_function(self, mod, name, label, make, namespaces):
        original = getattr(mod, name)
        wrapped = make(label, original)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._undo.append((ns, attr, value))
                    setattr(ns, attr, wrapped)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- wrappers -------------------------------------------------------------

    def _label_id(self, label):
        if label not in self.name_ids:
            self.name_ids[label] = len(self.names)
            self.names.append(label)
        return self.name_ids[label]

    def _count_wrapper(self, label, fn):
        counts = self.counts
        key = label + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, label, fn):
        nid = self._label_id(label)
        name_of, start, end, parent, job_of, hidden, probed = (
            self.name_of, self.start, self.end, self.parent, self.job_of, self.hidden,
            self.probed)
        stack, clock = self.stack, self.clock
        observe = self._observer(label)

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            job_of.append(self.job_id)
            start.append(0.0)
            end.append(0.0)
            hidden.append(0.0)
            probed.append(0.0)
            stack.append(idx)
            p0 = clock.probe_s
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                probed[idx] = clock.probe_s - p0
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                q0 = clock.probe_s
                observe(args, result)
                if stack:
                    hidden[stack[-1]] += perf_counter() - t1 - (clock.probe_s - q0)
            return result

        return wrapper

    def _observer(self, label):
        """Counts taken where the work happens, outside the timed interval."""
        counts = self.counts
        if label == "poly.Poly.diff":
            def observe(args, result):
                if result:
                    counts["poly.Poly.diff.nonzero"] += 1
            return observe
        if label == "operators.BiDiffOp.apply":
            seen, keep = self.distinct_apply, self._keep_alive

            def observe(args, result):
                op, f, g = args
                key = (id(op), f, g)
                if key not in seen:
                    seen.add(key)
                    keep.append(op)  # the id stays unique while the op lives
            return observe
        if label == "geometry.covariant_jet_ops":
            def observe(args, result):
                counts["geometry.covariant_jet_ops.jets"] += len(result)
            return observe
        if label.split(".", 1)[1] in _BUILDERS:
            def observe(args, result):
                counts["products.operator_terms"] += sum(op.term_count() for op in result.C)
            return observe
        return None

    # -- jobs and output ------------------------------------------------------

    def begin_job(self, name: str):
        self.jobs.append(name)
        self.job_id = len(self.jobs) - 1

    def write(self, prefix: str):
        """Save the spans as ``<prefix>.json`` (names, jobs, layout) plus
        ``<prefix>.bin``, the columns one after another in native byte order."""
        columns = [("name", self.name_of), ("start_s", self.start), ("end_s", self.end),
                   ("parent", self.parent), ("job", self.job_of), ("observer_s", self.hidden),
                   ("probe_s", self.probed)]
        header = {
            "spans": len(self.start),
            "names": self.names,
            "jobs": self.jobs,
            "columns": [[name, col.typecode, col.itemsize] for name, col in columns],
            "byteorder": sys.byteorder,
        }
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
        with open(prefix + ".bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)


def _layer(label: str) -> str:
    """Metric prefix of a span label; the series methods share one."""
    return "series.HbarSeries" if label.startswith("series.") else label


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  overhead: float) -> dict:
    """Per-layer values, keyed by metric name, from one traced pass.

    ``traced_wall`` is the sum of the traced job times without the host
    clock's probes.  The self times of all spans, ``trace.observer_s``
    (time the wrappers spent taking counts inside a span) and
    ``trace.unattributed_s`` (time outside every span) add up to it.
    """
    n = len(tracer.start)
    # a span's duration and probe time, less those of its children
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    own = list(dur)
    own_probe = list(tracer.probed)
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            own[p] -= dur[i]
            own_probe[p] -= tracer.probed[i]
    self_s: Counter = Counter()
    calls: Counter = Counter()
    covered = 0.0
    for i in range(n):
        label = _layer(tracer.names[tracer.name_of[i]])
        self_s[label] += own[i] - own_probe[i] - tracer.hidden[i]
        calls[label] += 1
        if tracer.parent[i] < 0:
            covered += dur[i] - tracer.probed[i]

    out = {}
    for modname, entries in SPANS.items():
        for entry in entries:
            label = _layer(f"{modname}.{entry}")
            out[f"{label}.self_s"] = float(self_s[label])
            out[f"{label}.calls"] = calls[label]
    out.update(tracer.counts)
    for modname, entries in COUNTS.items():
        for entry in entries:
            out.setdefault(f"{modname}.{entry}.calls", 0)
    diffs = calls["poly.Poly.diff"]
    out["poly.Poly.diff.nonzero_frac"] = (
        tracer.counts["poly.Poly.diff.nonzero"] / diffs if diffs else 0.0)
    applies = calls["operators.BiDiffOp.apply"]
    out["operators.BiDiffOp.apply.distinct_frac"] = (
        len(tracer.distinct_apply) / applies if applies else 0.0)
    for key in ("geometry.covariant_jet_ops.jets", "products.operator_terms"):
        out.setdefault(key, 0)
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.observer_s"] = sum(tracer.hidden)
    out["trace.unattributed_s"] = traced_wall - covered
    out["trace.overhead_frac"] = overhead
    return out
