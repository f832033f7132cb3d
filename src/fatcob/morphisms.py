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

Canonical forms are computed per connected component by breadth-first
relabelling from every start at a vertex of minimum valence (see
:mod:`fatcob._canon`); two graphs are isomorphic exactly when their
canonical byte strings agree.
"""

from __future__ import annotations

from .errors import (
    DecorationDestroyed,
    ForestContainsCycle,
    InvalidMorphism,
    Mismatch,
)
from .graphs import FatGraph
from .openclosed import OpenClosedFatGraph
from . import _canon


def base_of(g):
    return g.base if isinstance(g, OpenClosedFatGraph) else g


class Morphism:
    """A cell map between (possibly decorated) fat graphs.

    ``half_map[h]`` is the image half-edge, or ``None`` when the edge
    of ``h`` is collapsed; the image of a collapsed half-edge is then
    the image vertex of its source.  Isomorphisms are the morphisms
    with no ``None`` values and bijective maps.
    """

    __slots__ = ("source", "target", "vertex_map", "half_map")

    def __init__(self, source, target, vertex_map, half_map):
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        self.half_map = dict(half_map)

    def __call__(self, cell):
        if cell in self.vertex_map:
            return self.vertex_map[cell]
        img = self.half_map[cell]
        if img is None:
            return self.vertex_map[base_of(self.source).source(cell)]
        return img

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
    # vertex preimages are trees
    for v1 in tgt.vertices:
        pre_v = [v for v in src.vertices if vmap[v] == v1]
        if not pre_v:
            return False, "target vertex %s has no preimage" % v1
        pre_e = {src.edge_of(h) for h, img in hmap.items() if img is None
                 and vmap[src.source(h)] == v1}
        if len(pre_e) != len(pre_v) - 1:
            return False, ("preimage of %s is not a tree: %d vertices, "
                           "%d collapsed edges" % (v1, len(pre_v), len(pre_e)))
        parent = {v: v for v in pre_v}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in pre_e:
            a, b = (find(x) for x in src.edge_ends(e))
            if a == b:
                return False, "preimage of %s contains a loop at %s" % (v1, a)
            parent[a] = b
        if len({find(v) for v in pre_v}) != 1:
            return False, "preimage of %s is disconnected" % v1
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
    ok, why = validate_morphism(m)
    if not ok:
        raise InvalidMorphism(why)
    return m


def collapse_edges(g, forest):
    """Collapse a cycle-free set of edges; returns ``(graph, morphism)``.

    The cyclic order at a merged vertex is the corner walk around the
    collapsed tree: from a surviving half-edge, keep skipping collapsed
    fans until the next survivor.
    """
    base = base_of(g)
    forest = set(forest)
    for e in forest:
        base.edge_halves(e)  # raises UnknownEdge
    # acyclicity via union-find
    parent = {v: v for v in base.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in sorted(forest):
        a, b = (find(x) for x in base.edge_ends(e))
        if a == b:
            raise ForestContainsCycle("collapsing %r closes a cycle" % e)
        parent[a] = b
    classes = {}
    for v in base.vertices:
        classes.setdefault(find(v), []).append(v)
    rep = {}
    for vs in classes.values():
        r = min(vs)
        for v in vs:
            rep[v] = r
    collapsed = {h for h in base.half_edges if base.edge_of(h) in forest}

    def skip(h):
        x = base.next_at_vertex(h)
        while x in collapsed:
            x = base.next_at_vertex(base.partner(x))
        return x

    source = {}
    involution = {}
    sigma = {}
    for h in base.half_edges:
        if h in collapsed:
            continue
        source[h] = rep[base.source(h)]
        involution[h] = base.partner(h)
        sigma[h] = skip(h)
    # a component whose edges were all collapsed survives as a point
    isolated = {rep[v] for v in base.isolated_vertices}
    isolated |= {r for r in set(rep.values())
                 if r not in set(source.values())}
    out = FatGraph(source, involution, sigma, isolated=frozenset(isolated))
    vmap = dict(rep)
    hmap = {h: (None if h in collapsed else h) for h in base.half_edges}
    if isinstance(g, OpenClosedFatGraph):
        special = set(g.special)
        for e in forest:
            u, w = base.edge_ends(e)
            if u in special or w in special:
                raise DecorationDestroyed(
                    "collapsing %r removes a special leaf" % e)
        try:
            out = OpenClosedFatGraph(
                out, [vmap[v] for v in g.in_leaves],
                [vmap[v] for v in g.out_leaves],
                {vmap[v] for v in g.closed})
        except Exception as exc:
            raise DecorationDestroyed(str(exc)) from exc
    morph = Morphism(g, out, vmap, hmap)
    return out, require_valid(morph)


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


def _decoration_entries(g, comp_halves):
    """(kind, global index, leaf half, closed flag) for special leaves
    whose edge lies in this component."""
    base = g.base
    # a special leaf carries one half-edge, so this is its leaf half
    half_at = {base.source(h): h for h in comp_halves}
    entries = []
    for kind, leaves in ((0, g.in_leaves), (1, g.out_leaves)):
        for i, v in enumerate(leaves):
            h = half_at.get(v)
            if h is not None:
                entries.append((kind, i, h, 1 if v in g.closed else 0))
    return entries


def _component_codes(g):
    """Per-component (code, relabelling) pairs, unsorted.

    The relabelling maps each half-edge of the component to its
    canonical integer label; isolated vertices yield a bare marker
    code.
    """
    base = base_of(g)
    decorated = isinstance(g, OpenClosedFatGraph)
    out = []
    for vs, hs in base.connected_components():
        if not hs:
            out.append((b"\x00|", {}))
            continue
        idx, sigma, inv = _dense(base, hs)
        n = len(hs)
        if not decorated:
            code, _aut, start = _canon.min_code(sigma, inv, n)
            nl, _, _ = _canon.relabel_from(sigma, inv, n, start)
            out.append((code + b"|", {h: nl[idx[h]] for h in hs}))
            continue
        entries = _decoration_entries(g, hs)
        # a narrow entry string has 4k bytes and a wide one 2 mod 4, so
        # the two never coincide
        top = max([n - 1] + [gi for _, gi, _, _ in entries])
        best = None
        # the undecorated prefix decides first, so other starts lose
        for h0 in _canon.min_valence_starts(sigma, n):
            nl, order, valences = _canon.relabel_from(sigma, inv, n, h0)
            dec = _canon.encode(
                [x for kind, gi, h, fl in entries
                 for x in (kind, gi, nl[idx[h]], fl)], top)
            cand = _canon.code_of(inv, nl, order, valences) + b"|" + dec
            if best is None or cand < best[0]:
                best = (cand, {h: nl[idx[h]] for h in hs})
        out.append(best)
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
