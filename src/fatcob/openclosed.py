"""Leaf decorations: open-closed structure on a fat graph.

A valence-1 vertex is a leaf.  Marking ordered lists of incoming and
outgoing leaves, and flagging some of them as *closed*, turns the
thickened surface of a fat graph into an open-closed cobordism: a
closed special leaf marks a whole boundary circle as incoming or
outgoing, an open special leaf marks an interval on its boundary
component.  The graph is *admissible* when every closed incoming leaf
sits on a boundary cycle of the form ``(h hbar A1 ... Ak)`` whose
``A``-part traces an embedded circle, and these circles are pairwise
disjoint.  Admissibility is what makes gluing and the relative chain
complex work.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    ClosedNotSpecial,
    ClosedSharesCycle,
    InOutOverlap,
    InvariantViolation,
    NotAdmissible,
    NotALeaf,
)


class OpenClosedFatGraph:
    """A fat graph with ordered In/Out leaf lists and a Closed subset.

    The graph is immutable.  ``_cc`` holds its relative chain complex
    once :func:`fatcob.homology.relative_chain_complex` has built it.
    """

    __slots__ = ("_base", "_in", "_out", "_closed", "_cc")

    def __init__(self, base, in_leaves, out_leaves, closed=()):
        self._base = base
        self._in = tuple(in_leaves)
        self._out = tuple(out_leaves)
        self._closed = frozenset(closed)
        self._cc = None
        self._validate()

    def _validate(self):
        ins, outs, closed = self._in, self._out, self._closed
        special = set(ins) | set(outs)
        if len(special) != len(ins) + len(outs):
            if len(set(ins)) != len(ins) or len(set(outs)) != len(outs):
                raise InOutOverlap("a leaf is listed twice")
            raise InOutOverlap(
                "leaves %s are both incoming and outgoing"
                % sorted(set(ins) & set(outs)))
        # the fan table: a name that is no vertex has no fan
        fans = self._base._fans
        for v in ins + outs:
            if len(fans.get(v, ())) != 1:
                raise NotALeaf("%r is not a valence-1 vertex" % v)
        if not closed <= special:
            raise ClosedNotSpecial(
                "closed leaves %s are not special" % sorted(closed - special))
        if not closed:
            return
        # each closed leaf must own its boundary cycle
        h2c = self._base.boundary_cycles().half_edge_to_cycle
        cyc_of = {v: h2c[fans[v][0]] for v in special}
        for v in sorted(closed):
            others = [w for w in special if w != v and cyc_of[w] == cyc_of[v]]
            if others:
                raise ClosedSharesCycle(
                    "closed leaf %r shares its boundary cycle with %s"
                    % (v, sorted(others)))

    # -- accessors ---------------------------------------------------------

    @property
    def base(self):
        return self._base

    @property
    def in_leaves(self):
        return self._in

    @property
    def out_leaves(self):
        return self._out

    @property
    def closed(self):
        return self._closed

    @property
    def special(self):
        return tuple(self._in) + tuple(self._out)

    @property
    def open_leaves(self):
        return tuple(v for v in self.special if v not in self._closed)

    def leaf_cycle_index(self, v):
        """Index of the boundary cycle the leaf ``v`` sits on."""
        h = self._base.leaf_half(v)
        return self._base.boundary_cycles().half_edge_to_cycle[h]

    def leaf_cycle_normal_form(self, v):
        """The cycle of the leaf ``v`` rotated to ``(h, hbar, A1..Ak)``;
        see :meth:`FatGraph.leaf_cycle_normal_form`."""
        return self._base.leaf_cycle_normal_form(v)

    def circle_edges(self, v):
        """Edge sequence ``A1..Ak`` of the cycle of the closed leaf ``v``
        (as half-edges, in walk order)."""
        return self.leaf_cycle_normal_form(v)[2:]

    def __eq__(self, other):
        if not isinstance(other, OpenClosedFatGraph):
            return NotImplemented
        return (self._base == other._base and self._in == other._in
                and self._out == other._out and self._closed == other._closed)

    def __hash__(self):
        return hash((self._base, self._in, self._out, self._closed))

    def __repr__(self):
        return "OpenClosedFatGraph(%r, in=%s, out=%s, closed=%s)" % (
            self._base, list(self._in), list(self._out), sorted(self._closed))

    # -- convenience passthroughs ------------------------------------------

    def boundary_cycles(self):
        return self._base.boundary_cycles()

    def surface_invariants(self):
        return self._base.surface_invariants()

    def with_base(self, base):
        """Same decoration on a different underlying graph."""
        return OpenClosedFatGraph(base, self._in, self._out, self._closed)

    def reorder_inputs(self, order):
        """Permute the incoming list; ``order`` gives the new sequence."""
        if sorted(order) != sorted(self._in):
            raise InOutOverlap("reordering must permute the incoming leaves")
        return OpenClosedFatGraph(self._base, order, self._out, self._closed)


def decorate(g, in_leaves, out_leaves, closed=()):
    """Attach validated In/Out/Closed decorations to ``g``."""
    return OpenClosedFatGraph(g, in_leaves, out_leaves, closed)


class AdmissibilityWitness(namedtuple("AdmissibilityWitness",
                                       "leaf reason cell")):
    """Why a graph failed the embedded-circle test."""
    __slots__ = ()

    def __str__(self):
        return "leaf %s: %s (%s)" % (self.leaf, self.reason, self.cell)


def _require_decorated(g):
    """Raise :class:`NotAdmissible` unless ``g`` is a decorated graph:
    a bare fat graph has no incoming boundary to be admissible over."""
    if not isinstance(g, OpenClosedFatGraph):
        raise NotAdmissible("a %s has no In/Out leaf decorations"
                            % type(g).__name__)


def _incoming_circles(g):
    """``(circles, witness)``: the vertex and edge sets of each closed
    incoming leaf's circle, keyed by leaf, or ``None`` and the first
    :class:`AdmissibilityWitness` found; one walk of each circle."""
    _require_decorated(g)
    base = g.base
    circles = {}
    for v in g.in_leaves:
        if v not in g.closed:
            continue
        walk = g.circle_edges(v)
        if not walk:
            return None, AdmissibilityWitness(
                v, "incoming cycle has no circle part", g.base.leaf_half(v))
        edges = [base.edge_of(h) for h in walk]
        if len(set(edges)) != len(edges):
            dup = sorted(e for e in edges if edges.count(e) > 1)[0]
            return None, AdmissibilityWitness(
                v, "incoming cycle repeats an edge", dup)
        verts = [base.source(h) for h in walk]
        if len(set(verts)) != len(verts):
            dup = sorted(w for w in verts if verts.count(w) > 1)[0]
            return None, AdmissibilityWitness(
                v, "incoming cycle repeats a vertex", dup)
        circles[v] = (set(verts), set(edges))
    leaves = sorted(circles)
    for i, v in enumerate(leaves):
        for w in leaves[i + 1:]:
            shared = (circles[v][0] & circles[w][0]) \
                | (circles[v][1] & circles[w][1])
            if shared:
                return None, AdmissibilityWitness(
                    v, "incoming circles of %s and %s intersect" % (v, w),
                    sorted(shared)[0])
    return circles, None


def is_admissible(g):
    """Check that the incoming boundary cycles are embedded circles.

    Returns ``(True, None)`` or ``(False, witness)``.  For each closed
    incoming leaf, the non-leaf part ``A1..Ak`` of its cycle must
    traverse ``k`` distinct edges through ``k`` distinct vertices, and
    the circles of distinct closed incoming leaves must be disjoint in
    vertices and edges.  The leaf edge itself is exempt: the walk
    always crosses it twice.  A bare fat graph raises
    :class:`NotAdmissible`.
    """
    _, witness = _incoming_circles(g)
    return (True, None) if witness is None else (False, witness)


def require_admissible(g):
    ok, witness = is_admissible(g)
    if not ok:
        raise NotAdmissible(str(witness))


class IncomingPartition(namedtuple("IncomingPartition",
                                    "v_in e_in h_in e_v e_e e_h")):
    """Cells on the incoming boundary versus the extra cells.

    The incoming part of a closed incoming leaf is its embedded circle
    together with the leaf edge and the leaf vertex; for an open
    incoming leaf it is the leaf vertex alone.  With this choice the
    count ``|eV| - |eE|`` equals the Euler characteristic of the
    surface relative to its incoming boundary, which is what the
    degree bookkeeping needs.
    """
    __slots__ = ()

    @property
    def euler_difference(self):
        return len(self.e_v) - len(self.e_e)


def incoming_partition(g):
    """Classify every cell of ``g`` as incoming or extra."""
    circles, witness = _incoming_circles(g)
    if witness is not None:
        raise NotAdmissible(str(witness))
    base = g.base
    v_in, e_in = set(g.in_leaves), set()
    for v, (verts, edges) in circles.items():
        e_in.add(base.edge_of(base.leaf_half(v)))
        e_in.update(edges)
        v_in.update(verts)
    # the graph keeps its cells sorted, so one filtering pass each
    # splits them in order
    vs, es, hs = ([], []), ([], []), ([], [])
    for v in base.vertices:
        vs[v in v_in].append(v)
    for e in base.edges():
        es[e in e_in].append(e)
    edge_of = base.edge_map
    for h in base.half_edges:
        hs[edge_of[h] in e_in].append(h)
    part = IncomingPartition(
        v_in=tuple(vs[1]), e_in=tuple(es[1]), h_in=tuple(hs[1]),
        e_v=tuple(vs[0]), e_e=tuple(es[0]), e_h=tuple(hs[0]))
    n_open_in = sum(1 for v in g.in_leaves if v not in g.closed)
    if part.euler_difference != base.euler_characteristic() - n_open_in:
        raise InvariantViolation("incoming partition out of balance")
    return part


CIRCLE = "circle"
INTERVAL = "interval"


class BoundaryCycleClass(namedtuple(
        "BoundaryCycleClass", "index kind closed_leaf open_in open_out",
        defaults=(None, (), ()))):
    """How one boundary cycle of the surface decomposes.  ``kind`` is
    'incoming_circle', 'outgoing_circle', 'open' or 'free'."""
    __slots__ = ()


class ComponentCobordism(namedtuple(
        "ComponentCobordism",
        "genus euler_characteristic incoming_circles incoming_intervals "
        "outgoing_circles outgoing_intervals free_cycles boundary_count")):
    __slots__ = ()


class CobordismSignature(namedtuple(
        "CobordismSignature", "components source target cycle_classes")):
    """The cobordism type of a decorated graph.

    ``source`` and ``target`` list one entry (``'circle'`` or
    ``'interval'``) per special leaf, in the In/Out orderings; the
    per-component data records genus and boundary classification.
    """
    __slots__ = ()

    @property
    def total_euler_characteristic(self):
        return sum(c.euler_characteristic for c in self.components)


def _cycle_classes(g):
    """The surface invariants of ``g`` and the class of each of its
    boundary cycles, in cycle order."""
    _require_decorated(g)
    base = g.base
    surf = base.surface_invariants()
    h2c = base.boundary_cycles().half_edge_to_cycle
    # a closed leaf owns its cycle; open ones are kept in In/Out order
    closed_at, open_at = {}, {}
    for side, leaves in enumerate((g.in_leaves, g.out_leaves)):
        kind = ("incoming_circle", "outgoing_circle")[side]
        for v in leaves:
            i = h2c[base.leaf_half(v)]
            if v in g.closed:
                closed_at[i] = BoundaryCycleClass(i, kind, closed_leaf=v)
            else:
                open_at.setdefault(i, ([], []))[side].append(v)
    classes = []
    for i in range(len(base.boundary_cycles())):
        if i in closed_at:
            classes.append(closed_at[i])
        elif i in open_at:
            open_in, open_out = open_at[i]
            classes.append(BoundaryCycleClass(
                i, "open", open_in=tuple(open_in), open_out=tuple(open_out)))
        else:
            classes.append(BoundaryCycleClass(i, "free"))
    owned = sorted(i for comp in surf.components for i in comp.cycles)
    if owned != list(range(len(classes))):
        raise InvariantViolation(
            "the components' boundary cycles do not partition the %d "
            "cycles of the graph" % len(classes))
    return surf, classes


def cobordism_signature(g):
    """Classify every boundary cycle and assemble the cobordism type."""
    surf, classes = _cycle_classes(g)
    comps = []
    for comp in surf.components:
        local = [classes[i] for i in comp.cycles]
        kinds = [c.kind for c in local]
        comps.append(ComponentCobordism(
            genus=comp.genus,
            euler_characteristic=comp.euler_characteristic,
            incoming_circles=kinds.count("incoming_circle"),
            incoming_intervals=sum(len(c.open_in) for c in local),
            outgoing_circles=kinds.count("outgoing_circle"),
            outgoing_intervals=sum(len(c.open_out) for c in local),
            free_cycles=kinds.count("free"),
            boundary_count=comp.boundary_count,
        ))
    source = tuple(CIRCLE if v in g.closed else INTERVAL for v in g.in_leaves)
    target = tuple(CIRCLE if v in g.closed else INTERVAL for v in g.out_leaves)
    return CobordismSignature(
        components=tuple(comps), source=source, target=target,
        cycle_classes=tuple(classes))


def smooth_undecorated_bivalent(g):
    """Smooth the bivalent vertices of a decorated graph.

    Decorations sit on valence-1 leaves, which smoothing never touches,
    so every bivalent vertex is undecorated; embedded incoming circles
    just lose subdivision points.  Returns ``(graph, correspondence)``
    and the result is revalidated.  A bare fat graph raises
    :class:`NotAdmissible`.
    """
    _require_decorated(g)
    base, corr = g.base.smooth_bivalent()
    out = OpenClosedFatGraph(base, g.in_leaves, g.out_leaves, g.closed)
    return out, corr


def check_positive_boundary(g):
    """No component's boundary may lie entirely on the incoming side.

    A boundary cycle is completely incoming when it is an incoming
    circle, or when every edge it traverses joins two open incoming
    leaves (the boundary of an interval whose endpoints are both
    inputs).  Each component needs at least one cycle that is not of
    this kind.
    """
    surf, classes = _cycle_classes(g)
    base = g.base
    bc = base.boundary_cycles()
    open_in = {v for v in g.in_leaves if v not in g.closed}

    def completely_incoming(cls):
        if cls.kind == "incoming_circle":
            return True
        cyc = bc.cycles[cls.index]
        return all(base.source(h) in open_in
                   and base.source(base.partner(h)) in open_in
                   for h in cyc)

    return not any(all(completely_incoming(classes[i]) for i in comp.cycles)
                   for comp in surf.components)
