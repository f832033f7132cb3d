"""Morphisms of fat graphs: forest collapses, composition, isomorphism.

A morphism sends cells to cells: vertices to vertices, and each
half-edge either to a half-edge or (when its edge is collapsed) to a
vertex.  The defining conditions: it commutes with the source and
involution maps, every target half-edge has exactly one half-edge
preimage, the preimage of every target vertex is a tree, and the
boundary walk of the target is the boundary walk of the source with
the collapsed half-edges deleted.  Decorated graphs additionally
require order-preserving bijections on the In/Out lists and a
bijection on the closed subset.

Every morphism the library returns is checked once, when it is made,
and then marked checked: its ``vertex_map`` and ``half_map`` become
read-only views, so their entries cannot change after the check and
nothing downstream validates it again.  :func:`compose`,
:func:`find_isomorphism` and the gluing of :mod:`fatcob.gluing` run
the full :func:`validate_morphism` scan through :func:`require_valid`.
:func:`collapse_edges` builds its target itself, each surviving
half-edge keeping its name, so its local check :func:`_check_collapse`
reads only what can be wrong: the forest's images, the trees, the
survivors' sources and the fans, by the boundary walk.  Only
the entries are frozen: reassigning ``source``, ``target`` or a whole
map of a checked morphism leaves the mark set, so build a new
``Morphism`` instead.  A morphism built directly with ``Morphism(...)``
or :func:`identity_morphism`, or copied with :mod:`copy` or
:mod:`pickle`, is unchecked and keeps plain dicts.

Canonical forms are computed per connected component by one call of
the canonical-labelling kernel (:mod:`fatcob._canon`), kept on the
graph, so all the decorations of one graph share those calls
(:func:`_kernel_runs`).  A decorated
component's code is the kernel code, ``|``, and the smallest decoration
string over the kernel's winning starts, which are its automorphisms;
two graphs are isomorphic exactly when their canonical byte strings
agree.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import (
    DecorationDestroyed,
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
    by :func:`require_valid` and by :func:`collapse_edges`' local
    check, which also freeze the two maps; a copy starts unchecked.
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
    """Check all morphism conditions; returns (ok, witness)."""
    src, tgt = base_of(m.source), base_of(m.target)
    vmap, hmap = m.vertex_map, m.half_map
    if set(vmap) != set(src.vertices):
        return False, "vertex map is not total"
    if set(hmap) != set(src.half_edges):
        return False, "half-edge map is not total"
    tverts, thalves = set(tgt.vertices), set(tgt.half_edges)
    for v, w in vmap.items():
        if w not in tverts:
            return False, "vertex %s maps outside the target" % v
    for h, img in hmap.items():
        hbar = src.partner(h)
        if img is None:
            if hmap[hbar] is not None:
                return False, "edge of %s is half collapsed" % h
            if vmap[src.source(h)] != vmap[src.source(hbar)]:
                return False, ("collapsed edge of %s has endpoints with "
                               "different images" % h)
        else:
            if img not in thalves:
                return False, "half-edge %s maps outside the target" % h
            if hmap[hbar] != tgt.partner(img):
                return False, "involution broken at %s" % h
            if vmap[src.source(h)] != tgt.source(img):
                return False, "source map broken at %s" % h
    # every target half-edge hit exactly once
    hits = {}
    for h, img in hmap.items():
        if img is not None:
            hits[img] = hits.get(img, 0) + 1
    for h1 in thalves:
        if hits.get(h1, 0) != 1:
            return False, ("target half-edge %s has %d preimages"
                           % (h1, hits.get(h1, 0)))
    # vertex preimages are trees: with one edge fewer than vertices and
    # no loop, a preimage is connected
    pre_v, pre_e = {}, {}
    for v in src.vertices:
        pre_v.setdefault(vmap[v], []).append(v)
    for h, img in hmap.items():
        if img is None:
            pre_e.setdefault(vmap[src.source(h)], set()).add(src.edge_of(h))
    parent = {v: v for v in src.vertices}
    for v1 in tgt.vertices:
        verts = pre_v.get(v1, [])
        if not verts:
            return False, "target vertex %s has no preimage" % v1
        edges = sorted(pre_e.get(v1, ()))
        if len(edges) != len(verts) - 1:
            return False, ("preimage of %s is not a tree: %d vertices, "
                           "%d collapsed edges" % (v1, len(verts), len(edges)))
        for e in edges:
            a, b = (_find(parent, x) for x in src.edge_ends(e))
            if a == b:
                return False, "preimage of %s contains a loop at %s" % (v1, a)
            parent[a] = b
    # boundary cycles: target walk = source walk minus collapsed cells
    for h in src.half_edges:
        if hmap[h] is None:
            continue
        cur = src.omega(h)
        while hmap[cur] is None:
            cur = src.omega(cur)
        if tgt.omega(hmap[h]) != hmap[cur]:
            return False, "boundary walk broken at %s" % h
    # decorations
    if isinstance(m.source, OpenClosedFatGraph) \
            and isinstance(m.target, OpenClosedFatGraph):
        s, t = m.source, m.target
        if len(s.in_leaves) != len(t.in_leaves) or any(
                vmap[a] != b for a, b in zip(s.in_leaves, t.in_leaves)):
            return False, "incoming leaf order not preserved"
        if len(s.out_leaves) != len(t.out_leaves) or any(
                vmap[a] != b for a, b in zip(s.out_leaves, t.out_leaves)):
            return False, "outgoing leaf order not preserved"
        if {vmap[v] for v in s.closed} != set(t.closed) \
                or len(s.closed) != len(t.closed):
            return False, "closed subset not preserved"
    return True, None


def require_valid(m):
    """Validate ``m`` once, then mark it checked with read-only maps."""
    if not m._checked:
        ok, why = validate_morphism(m)
        if not ok:
            raise InvalidMorphism(why)
        _mark_checked(m)
    return m


def _mark_checked(m):
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
    fans until the next survivor.  The morphism comes back checked by
    :func:`_check_collapse`, not by the full :func:`validate_morphism`
    scan.
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
    out = FatGraph(source, sigma,
                   isolated=frozenset(rep.values()) - set(source.values()))
    if isinstance(g, OpenClosedFatGraph):
        out = OpenClosedFatGraph(
            out, [rep[v] for v in g.in_leaves],
            [rep[v] for v in g.out_leaves],
            {rep[v] for v in g.closed})
    morph = Morphism(g, out, rep, hmap)
    _check_collapse(morph, forest)
    return out, _mark_checked(morph)


def _check_collapse(m, forest):
    """Check the collapse ``m`` of the edge set ``forest``, made by
    :func:`collapse_edges`; raise :class:`InvalidMorphism` if it is not
    a morphism.

    Each surviving half-edge must be its own image, so it has one
    preimage and keeps its partner, and the decorations are images of
    the source's.  What is left is checked: the forest's images, the
    trees, the survivors' sources, and the fans, merged or not, by
    stepping the target's boundary walk along the source's.
    """
    src, tgt = base_of(m.source), base_of(m.target)
    vmap, hmap = m.vertex_map, m.half_map
    if vmap.keys() != set(src.vertices) \
            or hmap.keys() != set(src.half_edges):
        raise InvalidMorphism("a map is not total")
    forest = sorted(forest)
    source = src.source_map
    collapsed = set()
    for e in forest:
        h0, h1 = src.edge_halves(e)
        if hmap[h0] is not None or hmap[h1] is not None:
            raise InvalidMorphism("forest edge %s is not collapsed" % e)
        if vmap[source[h0]] != vmap[source[h1]]:
            raise InvalidMorphism("collapsed edge of %s has endpoints with "
                                  "different images" % h0)
        collapsed.update((h0, h1))
    # every forest edge lies in one preimage, so |V| - |F| images make
    # the forest acyclic and each preimage one of its trees
    images = set(vmap.values())
    if len(images) != len(src.vertices) - len(forest) \
            or len(images) != len(tgt.vertices) \
            or not images.issuperset(tgt.vertices):
        raise InvalidMorphism("the vertex preimages are not the trees of "
                              "the forest")
    halves = tgt.half_edges
    if len(halves) != len(src.half_edges) - len(collapsed) \
            or tuple(map(hmap.get, halves)) != halves:
        raise InvalidMorphism("a surviving half-edge is not its own image")
    # each survivor starts at the image of its source
    if list(map(tgt.source_map.get, halves)) \
            != list(map(vmap.get, map(source.get, halves))):
        raise InvalidMorphism("a surviving half-edge moved off the image "
                              "of its source")
    # the target's boundary walk is the source's without the collapsed
    # half-edges: this fixes every fan, merged or not
    step = tgt.omega
    for cyc in src.boundary_cycles().cycles:
        kept = [h for h in cyc if h not in collapsed]
        for h, nxt in zip(kept, kept[1:] + kept[:1]):
            if step(h) != nxt:
                raise InvalidMorphism("boundary walk broken at %s" % h)


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
    immutable, so all its decorations share them."""
    if base._runs is None:
        runs = []
        for _, hs in base.connected_components():
            if not hs:
                runs.append(None)
                continue
            idx, sigma, inv = _dense(base, hs)
            runs.append((hs, idx) + _canon.min_code(sigma, inv, len(hs)))
        base._runs = tuple(runs)
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
