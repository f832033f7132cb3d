"""Spans and counters recorded from outside the library.

Every layer named in :data:`LAYERS` is timed by replacing the function
at each place it is bound: the defining module, every module that
imported it by name, and the package re-exports.  Methods are replaced
on their class.  A replaced function records one span per call (name,
parent span, start and end in ``perf_counter_ns``) and adds its
duration, minus the time of its child spans, to the layer's self time.
Spans stay in memory until :meth:`Tracer.write_spans`.

Untraced runs never install the wrappers, so they time the library
as it is.
"""

import json
import time

# (metric name, module, attribute path); a dotted attribute is a method
LAYERS = (
    ("census.enumerate_fat_graphs", "fatcob.census", "enumerate_fat_graphs"),
    ("census.involutions", "fatcob.census", "_involutions"),
    ("census.build_graph", "fatcob.census", "_build_graph"),
    ("census.admissible_decorations", "fatcob.census",
     "admissible_decorations"),
    ("kernel.census_code", "fatcob._canon", "census_code"),
    ("kernel.min_code", "fatcob._canon", "min_code"),
    ("graphs.new_fat_graph", "fatcob.graphs", "new_fat_graph"),
    ("graphs.surface_invariants", "fatcob.graphs",
     "FatGraph.surface_invariants"),
    ("graphs.subdivide_edge", "fatcob.graphs", "FatGraph.subdivide_edge"),
    ("graphs.boundary_cycles", "fatcob.graphs", "FatGraph.boundary_cycles"),
    ("openclosed.is_admissible", "fatcob.openclosed", "is_admissible"),
    ("openclosed.incoming_partition", "fatcob.openclosed",
     "incoming_partition"),
    ("openclosed.cobordism_signature", "fatcob.openclosed",
     "cobordism_signature"),
    ("morphisms.canonical_form", "fatcob.morphisms", "canonical_form"),
    ("morphisms.collapse_edges", "fatcob.morphisms", "collapse_edges"),
    ("morphisms.compose", "fatcob.morphisms", "compose"),
    ("morphisms.validate_morphism", "fatcob.morphisms", "validate_morphism"),
    ("gluing.subdivision_match", "fatcob.gluing", "subdivision_match"),
    ("gluing.glue", "fatcob.gluing", "glue"),
    ("homology.relative_chain_complex", "fatcob.homology",
     "relative_chain_complex"),
    ("homology.chain_map_of_morphism", "fatcob.homology",
     "chain_map_of_morphism"),
    ("homology.morphism_det_sign", "fatcob.homology", "morphism_det_sign"),
    ("homology.gluing_det_iso", "fatcob.homology", "gluing_det_iso"),
    ("linalg.rref", "fatcob.linalg", "rref"),
    ("linalg.det", "fatcob.linalg", "det"),
    ("linalg.solve", "fatcob.linalg", "solve"),
    ("fgformat.serialize", "fatcob.fgformat", "serialize"),
    ("fgformat.parse_graph", "fatcob.fgformat", "parse_graph"),
)

# names that are private to the library and may be renamed; a missing
# one is reported, any other missing name is an error
PRIVATE = {"census.involutions", "census.build_graph", "kernel.census_code",
           "kernel.min_code"}

COUNTERS = (
    ("census.classes", "count"),
    ("census.candidates", "count"),
    ("census.class_ratio", "ratio"),
    ("homology.complexes_built", "count"),
    ("homology.cells_max", "count"),
    ("linalg.rref.entries", "count"),
    ("linalg.rref_per_gluing", "ratio"),
)


def per_layer_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = [("import.fatcob_s", "s")]
    for name, _, _ in LAYERS:
        out.append((name + ".calls", "count"))
        out.append((name + ".self_s", "s"))
    out.extend(COUNTERS)
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    """Span recorder; :meth:`install` swaps the wrappers in."""

    def __init__(self):
        self.workload = None
        self.spans = []
        self.calls = {}      # (workload, layer) -> calls
        self.self_ns = {}    # (workload, layer) -> ns
        self.counts = {}     # (workload, counter) -> number
        self.missing = []
        self._stack = []     # [span id, child ns] per open span
        self._active = {}    # layer -> open spans of it
        self._next_id = 0
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _count(self, name, n=1):
        key = (self.workload, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name, fn, before=None, after=None):
        stack = self._stack
        active = self._active
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[name] -= 1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                key = (tracer.workload, name)
                tracer.calls[key] = tracer.calls.get(key, 0) + 1
                tracer.self_ns[key] = \
                    tracer.self_ns.get(key, 0) + dur - frame[1]
                tracer.spans.append((sid, parent, tracer.workload, name,
                                     t0, t1))
            if after is not None:
                after(result)
            return result

        return traced

    def _hooks(self, name):
        """Counters measured where the layer's work happens."""
        if name == "census.enumerate_fat_graphs":
            return None, lambda out: self._count("census.classes", len(out))
        if name == "linalg.rref":
            def rref_in(args):
                m = args[0]
                self._count("linalg.rref.entries",
                            len(m) * (len(m[0]) if m else 0))
                if self._active.get("homology.gluing_det_iso"):
                    self._count("linalg.rref_in_gluing")
            return rref_in, None
        return None, None

    # -- installing --------------------------------------------------------

    def install(self, modules):
        """Replace every binding of every layer in ``modules``.

        ``modules`` maps module names to the loaded ``fatcob`` modules.
        """
        self.missing = []
        for name, modname, attr in LAYERS:
            mod = modules.get(modname)
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, meth, None) if owner is not None else None
            if orig is None:
                if name not in PRIVATE:
                    raise LookupError("layer %s: %s.%s is gone"
                                      % (name, modname, attr))
                self.missing.append(name)
                continue
            before, after = self._hooks(name)
            wrapped = self._wrap(name, orig, before, after)
            if owner_name:
                self._swap(owner, meth, wrapped)
                continue
            for m in modules.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._swap(m, key, wrapped)
        cls = getattr(modules["fatcob.homology"], "ChainComplexPair")
        init = cls.__init__

        def counted_init(cc, basis1, basis0, *rest, **kw):
            self._count("homology.complexes_built")
            key = (self.workload, "homology.cells_max")
            cells = len(basis1) + len(basis0)
            if cells > self.counts.get(key, 0):
                self.counts[key] = cells
            return init(cc, basis1, basis0, *rest, **kw)

        self._swap(cls, "__init__", counted_init)

    def _swap(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reporting ---------------------------------------------------------

    def layer_totals(self, workloads=None):
        """Per-layer calls, self seconds and counters, summed over the
        given workloads (all when ``None``)."""
        def pick(table, name):
            return sum(v for (w, n), v in table.items()
                       if n == name and (workloads is None or w in workloads))

        out = {}
        for name, _, _ in LAYERS:
            if name in self.missing:
                continue
            out[name + ".calls"] = pick(self.calls, name)
            out[name + ".self_s"] = pick(self.self_ns, name) / 1e9
        classes = pick(self.counts, "census.classes")
        cands = pick(self.calls, "kernel.census_code")
        out["census.classes"] = classes
        out["census.candidates"] = cands
        out["census.class_ratio"] = classes / cands if cands else 0.0
        out["homology.complexes_built"] = pick(self.counts,
                                               "homology.complexes_built")
        out["homology.cells_max"] = max(
            [v for (w, n), v in self.counts.items()
             if n == "homology.cells_max"
             and (workloads is None or w in workloads)] or [0])
        out["linalg.rref.entries"] = pick(self.counts, "linalg.rref.entries")
        gluings = pick(self.calls, "homology.gluing_det_iso")
        in_gluing = pick(self.counts, "linalg.rref_in_gluing")
        out["linalg.rref_per_gluing"] = in_gluing / gluings if gluings else 0.0
        return out

    def write_spans(self, path):
        """One JSON object per line and span: id, parent (-1 for none),
        workload, layer, start and end in nanoseconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, workload, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "workload": workload, "layer": name,
                                     "start_ns": t0, "end_ns": t1}) + "\n")
