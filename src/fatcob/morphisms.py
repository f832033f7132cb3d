"""Morphisms of fat graphs: forest collapses, composition, isomorphism.

A morphism sends cells to cells: vertices to vertices, and each
half-edge either to a half-edge or (when its edge is collapsed) to a
vertex.  The defining conditions: it commutes with the source and
involution maps, every target half-edge has exactly one half-edge
preimage, the preimage of every target vertex is a tree, and the
boundary walk of the target is the boundary walk of the source with
the collapsed half-edges deleted.  Decorated graphs additionally
require order-preserving bijections on the In/Out lists and a
bijection on the closed subset, and map only to decorated graphs.

Every morphism the library returns is checked once, when it is made,
by :func:`require_valid`, and then marked checked: its ``vertex_map``
and ``half_map`` become read-only views, so their entries cannot
change after the check and nothing downstream validates it again.
There is one check, :func:`validate_morphism`, for collapses,
composites, isomorphisms and gluings alike.  It has two branches: when
the surviving half-edges keep their names, as in
:func:`collapse_edges`, their partners need no check, since a
half-edge's partner is named by its id; otherwise the survivors must
map one-to-one onto the target's half-edges and partners onto
partners.  Only the entries are frozen: reassigning ``source``,
``target`` or a whole map of a checked morphism leaves the mark set,
so build a new ``Morphism`` instead.  A morphism built directly with
``Morphism(...)`` or :func:`identity_morphism`, or copied with
:mod:`copy` or :mod:`pickle`, is unchecked and keeps plain dicts.

A collapse's target is built from its source's tables by
``FatGraph._derived``, which keeps the source's names, edges and
partners and makes the one fan walk of every graph,
``FatGraph._validate``; its decoration is built and checked as any
other, by ``OpenClosedFatGraph(...)``.

Canonical forms are computed per connected component by one call of
the canonical-labelling kernel (:mod:`fatcob._canon`), kept on the
graph, so all the decorations of one graph share those calls
(:func:`_kernel_runs`); a graph with no isolated vertex is split into
its components only when the kernel finds it disconnected.  A decorated
component's code is the kernel code, ``|``, and the smallest decoration
string over the kernel's winning starts, which are its automorphisms;
two graphs are isomorphic exactly when their canonical byte strings
agree.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import (
    DecorationDestroyed,
    DisconnectedGraph,
    ForestContainsCycle,
    InvalidMorphism,
    Mismatch,
)
from .graphs import FatGraph, _find
from .openclosed import OpenClosedFatGraph
from . import _canon


def base_of(g):
    return g.base if isinstance(g, OpenClosedFatGraph) else g


class Morphism:
    """A cell map between (possibly decorated) fat graphs.

    ``half_map[h]`` is the image half-edge, or ``None`` when the edge
    of ``h`` is collapsed; the image of a collapsed half-edge is then
    the image vertex of its source.  Isomorphisms are the morphisms
    with no ``None`` values and bijective maps.  ``_checked`` is set
    by :func:`require_valid`, which also freezes the two maps; a copy
    starts unchecked.
    """

    __slots__ = ("source", "target", "vertex_map", "half_map", "_checked")

    def __init__(self, source, target, vertex_map, half_map):
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        self.half_map = dict(half_map)
        self._checked = False

    def __reduce__(self):
        # read-only views do not pickle: a copy gets plain dicts and is
        # validated on first use
        return Morphism, (self.source, self.target, dict(self.vertex_map),
                          dict(self.half_map))

    def collapsed_halves(self):
        return {h for h, img in self.half_map.items() if img is None}

    def collapsed_edges(self):
        b = base_of(self.source)
        return sorted({b.edge_of(h) for h in self.collapsed_halves()})

    def is_identity(self):
        return (self.source == self.target
                and all(v == w for v, w in self.vertex_map.items())
                and all(h == i for h, i in self.half_map.items()))

    def __repr__(self):
        return "Morphism(collapsing %s)" % (self.collapsed_edges(),)


def identity_morphism(g):
    b = base_of(g)
    return Morphism(g, g, {v: v for v in b.vertices},
                    {h: h for h in b.half_edges})


def validate_morphism(m):
    """Check all morphism conditions; returns ``(ok, witness)``.

    One check, with two branches chosen from the input.  When every
    target half-edge is its own image and every other source half-edge
    maps to ``None``, as in :func:`collapse_edges`, the survivors keep
    their names.  A half-edge's partner is the other half of the edge
    its id names, in both graphs, so then each survivor keeps its
    partner and has one preimage, and the collapsed halves make whole
    edges.  Otherwise the survivors must map one-to-one onto the
    target's half-edges, and partners onto partners.  Both branches
    then check the trees, the sources, the boundary walk and the
    decorations.
    """
    s, t = m.source, m.target
    decorated = isinstance(s, OpenClosedFatGraph)
    if decorated != isinstance(t, OpenClosedFatGraph):
        return False, "one graph is decorated and the other is not"
    src, tgt = (s.base, t.base) if decorated else (s, t)
    vmap, hmap = m.vertex_map, m.half_map
    if vmap.keys() != set(src.vertices):
        return False, "vertex map is not total"
    if hmap.keys() != set(src.half_edges):
        return False, "half-edge map is not total"
    halves = tgt.half_edges
    collapsed = [h for h in src.half_edges if hmap[h] is None]
    if tuple(map(hmap.get, halves)) == halves \
            and len(collapsed) + len(halves) == len(src.half_edges):
        kept = images = halves
    else:
        kept = [h for h in src.half_edges if hmap[h] is not None]
        images = [hmap[h] for h in kept]
        if len(images) != len(halves) or set(images) != set(halves):
            return False, ("the surviving half-edges do not map one-to-one "
                           "onto the target's")
        for h in kept:
            if hmap[src.partner(h)] != tgt.partner(hmap[h]):
                return False, "involution broken at %s" % h
    # the collapsed edges lie each in one preimage and make a forest, so
    # |V| - |F| images make every preimage one of its trees
    edges = dict.fromkeys(map(src.edge_of, collapsed))
    parent = {}
    for e in edges:
        a, b = src.edge_ends(e)
        if vmap[a] != vmap[b]:
            return False, ("collapsed edge %s has endpoints with different "
                           "images" % e)
        a = _find(parent, parent.setdefault(a, a))
        b = _find(parent, parent.setdefault(b, b))
        if a == b:
            return False, "preimage of %s contains a loop at %s" % (vmap[a], a)
        parent[a] = b
    vimages = set(vmap.values())
    if len(vimages) != len(src.vertices) - len(edges):
        return False, ("vertex preimages are not trees: %d vertices, %d "
                       "collapsed edges, %d images"
                       % (len(src.vertices), len(edges), len(vimages)))
    if vimages != set(tgt.vertices):
        lost = set(tgt.vertices) - vimages
        return False, ("target vertex %s has no preimage" % min(lost) if lost
                       else "a vertex maps outside the target")
    starts = list(map(vmap.get, map(src.source_map.get, kept)))
    ends = list(map(tgt.source_map.get, images))
    if starts != ends:
        h = next(h for h, a, b in zip(kept, starts, ends) if a != b)
        return False, "source map broken at %s" % h
    # each boundary cycle of the source, without its collapsed
    # half-edges, is one of the target's
    cycles = tgt.boundary_cycles()
    for cyc in src.boundary_cycles().cycles:
        walk = tuple([x for x in map(hmap.get, cyc) if x is not None])
        if walk:
            c = cycles.cycle_of(walk[0])
            i = c.index(walk[0])
            if c[i:] + c[:i] != walk:
                return False, "boundary walk broken along %s" % cyc[0]
    if decorated:
        if tuple(map(vmap.get, s.in_leaves)) != t.in_leaves:
            return False, "incoming leaf order not preserved"
        if tuple(map(vmap.get, s.out_leaves)) != t.out_leaves:
            return False, "outgoing leaf order not preserved"
        if set(map(vmap.get, s.closed)) != t.closed \
                or len(s.closed) != len(t.closed):
            return False, "closed subset not preserved"
    return True, None


def require_valid(m):
    """Validate ``m`` once, then mark it checked, its two maps made
    read-only views."""
    if not m._checked:
        ok, why = validate_morphism(m)
        if not ok:
            raise InvalidMorphism(why)
        m.vertex_map = MappingProxyType(m.vertex_map)
        m.half_map = MappingProxyType(m.half_map)
        m._checked = True
    return m


def _forest_representatives(base, forest):
    """Each vertex of ``base`` mapped to the least vertex of its tree in
    ``forest``, a set of edge names.

    Raises :class:`UnknownEdge` for a name that is not an edge, and
    :class:`ForestContainsCycle` at the first edge, in name order, that
    closes a cycle.
    """
    for e in forest:
        base.edge_halves(e)  # raises UnknownEdge
    # acyclicity via union-find
    parent = {v: v for v in base.vertices}
    for e in sorted(forest):
        a, b = (_find(parent, x) for x in base.edge_ends(e))
        if a == b:
            raise ForestContainsCycle("collapsing %r closes a cycle" % e)
        parent[a] = b
    classes = {}
    for v in base.vertices:
        classes.setdefault(_find(parent, v), []).append(v)
    rep = {}
    for vs in classes.values():
        r = min(vs)
        for v in vs:
            rep[v] = r
    return rep


def collapse_edges(g, forest):
    """Collapse a cycle-free set of edges; returns ``(graph, morphism)``.

    The cyclic order at a merged vertex is the corner walk around the
    collapsed tree: from a surviving half-edge, keep skipping collapsed
    fans until the next survivor.  Each surviving half-edge keeps its
    name, and the morphism comes back checked by :func:`require_valid`.
    The target is built from ``g``'s tables by ``FatGraph._derived``,
    with the same check of the fans as any graph, and decorated by
    ``OpenClosedFatGraph(...)``.
    """
    base = base_of(g)
    forest = set(forest)
    rep = _forest_representatives(base, forest)
    if isinstance(g, OpenClosedFatGraph):
        special = set(g.special)
        for e in sorted(forest):
            if special.intersection(base.edge_ends(e)):
                raise DecorationDestroyed(
                    "collapsing %r removes a special leaf" % e)
    collapsed = {h for e in forest for h in base.edge_halves(e)}

    def skip(h):
        x = base.next_at_vertex(h)
        while x in collapsed:
            x = base.next_at_vertex(base.partner(x))
        return x

    source = {}
    sigma = {}
    hmap = {}
    for h in base.half_edges:
        if h in collapsed:
            hmap[h] = None
            continue
        hmap[h] = h
        source[h] = rep[base.source(h)]
        sigma[h] = skip(h)
    # a tree or isolated vertex that carries no surviving half-edge
    # survives as a point
    out = FatGraph._derived(
        base, source, sigma,
        frozenset(rep.values()) - set(source.values()), forest)
    if isinstance(g, OpenClosedFatGraph):
        out = OpenClosedFatGraph(
            out, [rep[v] for v in g.in_leaves],
            [rep[v] for v in g.out_leaves],
            {rep[v] for v in g.closed})
    return out, require_valid(Morphism(g, out, rep, hmap))


def compose(m2, m1):
    """The composite ``m2 . m1``; middle graphs must coincide."""
    if m1.target != m2.source:
        raise Mismatch("middle graphs differ")
    vmap = {v: m2.vertex_map[w] for v, w in m1.vertex_map.items()}
    hmap = {}
    for h, img in m1.half_map.items():
        hmap[h] = None if img is None else m2.half_map[img]
    return require_valid(Morphism(m1.source, m2.target, vmap, hmap))


# ---------------------------------------------------------------------------
# canonical forms


def _dense(base, halves):
    idx = {h: i for i, h in enumerate(halves)}
    sigma = [idx[base.next_at_vertex(h)] for h in halves]
    inv = [idx[base.partner(h)] for h in halves]
    return idx, sigma, inv


def _special_leaves(g):
    """Each special leaf of ``g`` with its (kind, global index, closed
    flag)."""
    return {v: (kind, i, 1 if v in g.closed else 0)
            for kind, leaves in ((0, g.in_leaves), (1, g.out_leaves))
            for i, v in enumerate(leaves)}


def _decoration_entries(g, comp_halves, special):
    """(kind, global index, leaf half, closed flag) for special leaves
    whose edge lies in this component, in (kind, index) order, from
    :func:`_special_leaves`."""
    source = g.base.source
    entries = []
    # a special leaf carries one half-edge, so this is its leaf half
    for h in comp_halves:
        dec = special.get(source(h))
        if dec is not None:
            kind, i, flag = dec
            entries.append((kind, i, h, flag))
    entries.sort()
    return entries


def _kernel_runs(base):
    """Each connected component of ``base`` as ``(half-edges, positions,
    kernel code, winners)`` from one kernel run, or ``None`` for an
    isolated vertex.  They are made once and kept on ``base``, which is
    immutable, so all its decorations share them.  A graph with no
    isolated vertex is first run whole, and split into its components
    only when the kernel finds it disconnected."""

    def run(hs):
        idx, sigma, inv = _dense(base, hs)
        return (hs, idx) + _canon.min_code(sigma, inv, len(hs))

    if base._runs is None:
        if not base.isolated_vertices:
            try:
                base._runs = (run(base.half_edges),)
            except DisconnectedGraph:
                pass
        if base._runs is None:
            base._runs = tuple(run(hs) if hs else None
                               for _, hs in base.connected_components())
    return base._runs


def _component_codes(g):
    """Per-component (code, relabelling) pairs, unsorted.

    The relabelling maps each half-edge of the component to its
    canonical integer label; isolated vertices yield a bare marker
    code.
    """
    decorated = isinstance(g, OpenClosedFatGraph)
    special = _special_leaves(g) if decorated else None
    out = []
    for run in _kernel_runs(base_of(g)):
        if run is None:
            out.append((b"\x00|", {}))
            continue
        hs, idx, code, winners = run
        n = len(hs)
        code += b"|"
        nl = winners[0][1]
        if decorated:
            entries = _decoration_entries(g, hs, special)
            # every winner has the kernel code, so the decoration
            # decides; a narrow entry string has 4k bytes and a wide
            # one 2 mod 4, so the two never coincide
            top = max([n - 1] + [gi for _, gi, _, _ in entries])
            decs = [_canon.encode([x for kind, gi, h, fl in entries
                                   for x in (kind, gi, lab[idx[h]], fl)],
                                  top)
                    for _, lab in winners]
            # the first winner takes a tie
            best = min(decs)
            nl = winners[decs.index(best)][1]
            code += best
        out.append((code, dict(zip(hs, nl))))
    return out


def canonical_form(g):
    """Canonical byte string; equal strings mean isomorphic graphs.

    Isomorphism preserves the cyclic orders, the involution, sources,
    and for decorated graphs the ordered In/Out lists and the closed
    subset.  Component codes are sorted and length-prefixed, so the
    concatenation is unambiguous.
    """
    codes = sorted(code for code, _ in _component_codes(g))
    return b"".join(_length_prefix(len(c)) + c for c in codes)


def _length_prefix(k):
    # two bytes; 0xffff escapes to eight, for codes of 64 KiB and more
    if k < 0xFFFF:
        return k.to_bytes(2, "big")
    return b"\xff\xff" + k.to_bytes(8, "big")


def is_isomorphic(g1, g2):
    if isinstance(g1, OpenClosedFatGraph) != isinstance(g2, OpenClosedFatGraph):
        return False
    return canonical_form(g1) == canonical_form(g2)


def find_isomorphism(g1, g2):
    """An explicit isomorphism ``g1 -> g2``, or ``None``.

    Components with equal canonical codes are matched up in sorted
    order and the two canonical relabellings are composed.
    """
    if isinstance(g1, OpenClosedFatGraph) != isinstance(g2, OpenClosedFatGraph):
        return None
    c1 = sorted(_component_codes(g1), key=lambda p: p[0])
    c2 = sorted(_component_codes(g2), key=lambda p: p[0])
    if [c for c, _ in c1] != [c for c, _ in c2]:
        return None
    b1, b2 = base_of(g1), base_of(g2)
    hmap = {}
    for (_, r1), (_, r2) in zip(c1, c2):
        back = {lab: h for h, lab in r2.items()}
        for h, lab in r1.items():
            hmap[h] = back[lab]
    vmap = {}
    for h, h2 in hmap.items():
        vmap[b1.source(h)] = b2.source(h2)
    # isolated vertices: match leftover singleton components in name order
    iso1 = sorted(set(b1.vertices) - set(vmap))
    iso2 = sorted(set(b2.vertices) - set(vmap.values()))
    for v, w in zip(iso1, iso2):
        vmap[v] = w
    return require_valid(Morphism(g1, g2, vmap, hmap))
