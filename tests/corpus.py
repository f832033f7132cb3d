"""The census corpora and gluing cases that several test modules share.

A test module imports these from here, never from another test module.
"""

import random
from itertools import islice

from fatcob import fixtures as fx
from fatcob.census import admissible_decorations, enumerate_fat_graphs
from fatcob.errors import ForestContainsCycle
from fatcob.gluing import subdivision_match
from fatcob.graphs import new_fat_graph
from fatcob.morphisms import _forest_representatives, collapse_edges, compose
from fatcob.openclosed import OpenClosedFatGraph, decorate, is_admissible


def relabel(g, vmap, emap):
    """``g``, bare or decorated, with its cells renamed through ``vmap``
    and ``emap``; a decorated graph's leaves follow their vertices."""
    if not isinstance(g, OpenClosedFatGraph):
        return g.relabel(vmap, emap)
    return type(g)(g.base.relabel(vmap, emap),
                   [vmap[v] for v in g.in_leaves],
                   [vmap[v] for v in g.out_leaves],
                   {vmap[v] for v in g.closed})


def random_relabel(g, rng):
    """``g``, bare or decorated, with its vertices and edges renamed in a
    random order drawn from ``rng``."""
    base = g.base if isinstance(g, OpenClosedFatGraph) else g
    vmap = {v: "rv%03d" % i for i, v in
            enumerate(rng.sample(list(base.vertices), len(base.vertices)))}
    edges = list(base.edges())
    emap = {e: "re%03d" % i for i, e in
            enumerate(rng.sample(edges, len(edges)))}
    return relabel(g, vmap, emap)


def admissible_census_decorations(max_edges):
    """Admissible decorations of every census graph's leaves, through
    ``max_edges`` edges: 106 through 3 edges and 688 through 4."""
    out = []
    for entry in enumerate_fat_graphs(max_edges):
        out.extend(admissible_decorations(entry.graph))
    return out


def forests(g):
    """Acyclic edge subsets of the bare graph ``g`` that leave every
    component some edge, each a sorted list, the empty one first.

    Each subset is one edge larger than a subset listed before it, and
    acyclicity is the union-find check that :func:`collapse_edges` runs
    first, so no collapse is built.
    """
    comp_edges = [{g.edge_of(h) for h in hs}
                  for _, hs in g.connected_components() if hs]
    out = [frozenset()]
    for e in sorted(g.edges()):
        grown = []
        for f in out:
            cand = f | {e}
            if any(cand >= es for es in comp_edges):
                continue
            try:
                _forest_representatives(g, cand)
            except ForestContainsCycle:
                continue
            grown.append(cand)
        out.extend(grown)
    return [sorted(f) for f in out]


def single_edges(g):
    """The one-edge forests of :func:`forests`, in its order, without
    building the others: each edge that is no loop and not the only edge
    of its component."""
    alone = {g.edge_of(hs[0]) for _, hs in g.connected_components()
             if len(hs) == 2}
    return [[e] for e in sorted(g.edges())
            if e not in alone and len(set(g.edge_ends(e))) == 2]


def collapses_off_leaves(oc, forest_list):
    """``(graph, morphism)`` of collapsing ``oc`` along each forest of
    ``forest_list`` that avoids its special-leaf edges, in order and
    lazily, so a caller that takes a few collapses builds only those."""
    special = {oc.base.edge_of(oc.base.leaf_half(v)) for v in oc.special}
    for f in forest_list:
        if not special.intersection(f):
            yield collapse_edges(oc, f)


def census_collapses(max_edges):
    """Every admissible collapse of a nonempty forest off the special
    leaves, on the admissible census decorations with at most
    ``max_edges`` edges, and every composite of two such collapses."""
    singles, pairs = census_collapse_pairs(max_edges)
    return singles, [compose(m2, m1) for m2, m1 in pairs]


def census_collapse_pairs(max_edges):
    """The single collapses of :func:`census_collapses` and the pairs
    ``(m2, m1)`` of collapses behind its composites, in the same order."""

    def collapses(oc):
        for out, m in collapses_off_leaves(oc, forests(oc.base)[1:]):
            if is_admissible(out)[0]:
                yield out, m

    singles, pairs = [], []
    for oc in admissible_census_decorations(max_edges):
        for mid, m1 in collapses(oc):
            singles.append(m1)
            pairs.extend((m2, m1) for _, m2 in collapses(mid))
    return singles, pairs


def census_morphism_pairs(max_edges=3):
    """Composable admissible collapse pairs from decorated census graphs
    with some special leaf: of each graph's first six collapses (the
    empty forest's among them) the admissible ones, and for each of
    those, the admissible collapses along its first three nonempty
    forests."""
    singles, pairs = [], []
    for oc in admissible_census_decorations(max_edges):
        if not oc.special:
            continue
        firsts = collapses_off_leaves(oc, forests(oc.base))
        for mid, m1 in islice(firsts, 6):
            if not is_admissible(mid)[0]:
                continue
            singles.append(m1)
            for end, m2 in collapses_off_leaves(mid, forests(mid.base)[1:4]):
                if is_admissible(end)[0]:
                    pairs.append((m2, m1))
    return singles, pairs


def cap():
    """A disk with one closed outgoing circle: a bare leaf edge, so the
    outgoing cycle has no circle edge."""
    g = new_fat_graph(["p", "q"], [("e", "p", "q")],
                      {"p": ["e.0"], "q": ["e.1"]})
    return decorate(g, [], ["q"], {"q"})


def composed_signature_oracle(g1, g2, match):
    """Composite surface data from the two signatures alone.

    Components merge along matched pairs, Euler characteristics add
    with one unit lost per interval gluing, matched circle cycles
    disappear in pairs, and open matches merge their two boundary
    cycles; genus then follows from the classification of surfaces.
    Nothing here looks at the glued graph.
    """
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    comp_of, chi = {}, {}
    for side, g in ((1, g1), (2, g2)):
        for idx, comp in enumerate(g.base.surface_invariants().components):
            chi[(side, idx)] = comp.euler_characteristic
            comp_of.update(((side, v), (side, idx)) for v in comp.vertices)
    dead = set()
    for pair in match.pairs:
        a = comp_of[(1, pair.out_leaf)]
        parent[find(a)] = find(comp_of[(2, pair.in_leaf)])
        c1 = ("cycle", 1, g1.leaf_cycle_index(pair.out_leaf))
        c2 = ("cycle", 2, g2.leaf_cycle_index(pair.in_leaf))
        if pair.kind == "circle":
            dead.update((c1, c2))
        else:
            chi[a] -= 1
            parent[find(c1)] = find(c2)
    # surviving boundary cycles, up to merging, by merged component
    cycles = {}
    for side, g in ((1, g1), (2, g2)):
        for i, cyc in enumerate(g.base.boundary_cycles().cycles):
            if ("cycle", side, i) not in dead:
                comp = find(comp_of[(side, g.base.source(cyc[0]))])
                cycles.setdefault(comp, set()).add(find(("cycle", side, i)))
    total = {}
    for k, x in chi.items():
        total[find(k)] = total.get(find(k), 0) + x
    data = []
    for k, c in total.items():
        b = len(cycles.get(k, ()))
        two_g = 2 - c - b
        assert two_g >= 0 and two_g % 2 == 0
        data.append((two_g // 2, b, c))
    return sorted(data)


def glued_component_data(g):
    return sorted((c.genus, c.boundary_count, c.euler_characteristic)
                  for c in g.base.surface_invariants().components)


def composition_cases():
    """The 22 fixture gluings as matched ``(g1, g2, match)`` triples: 12
    along every outgoing leaf, then 10 along given pairs."""
    cyl, pants, mouth = fx.cylinder(), fx.pants(), fx.mouthpiece()
    flaps, seg, oc6 = fx.flaps(), fx.interval(), fx.open_closed_example()
    union = fx.oc_disjoint_union
    cases = [
        (cyl, cyl, None), (fx.subdivided_incoming(cyl, 3), cyl, None),
        (pants, cyl, None), (mouth, cyl, None), (seg, seg, None),
        (seg, mouth, None), (oc6, flaps, None),
        (union(cyl, cyl), pants, None), (union(mouth, mouth), pants, None),
        (union(cyl, mouth), pants, None), (union(seg, seg), flaps, None),
        (union(flaps, cyl), union(seg, cyl), None),
        (pants, pants, [(0, 0)]), (pants, pants, [(0, 1)]),
        (seg, flaps, [(0, 0)]), (seg, flaps, [(0, 1)]),
        (mouth, pants, [(0, 1)]), (cyl, pants, [(0, 0)]),
        (flaps, flaps, [(0, 1)]),
        (union(pants, cyl), pants, [(0, 0), (1, 1)]),
        (oc6, flaps, [(0, 0)]), (pants, oc6, [(0, 0)])]
    return [subdivision_match(g1, g2, pairs) for g1, g2, pairs in cases]


def strip_names(oc):
    """Rename cells canonically so nesting prefixes do not matter."""
    base = oc.base
    vmap = {v: "v%03d" % i for i, v in enumerate(base.vertices)}
    emap = {e: "e%03d" % i for i, e in enumerate(base.edges())}
    return relabel(oc, vmap, emap)


def fuzz_compositions(count=60, seed=424242):
    """Seeded random single-pair compositions of decorated census graphs,
    as ``(g1, g2, pairs)`` with matching leaf kinds."""
    rng = random.Random(seed)
    pool = admissible_census_decorations(3)
    with_out = [g for g in pool if g.out_leaves]
    with_in = [g for g in pool if g.in_leaves]
    out = []
    while len(out) < count:
        g1 = rng.choice(with_out)
        g2 = rng.choice(with_in)
        oi = rng.randrange(len(g1.out_leaves))
        ii = rng.randrange(len(g2.in_leaves))
        if (g1.out_leaves[oi] in g1.closed) != \
                (g2.in_leaves[ii] in g2.closed):
            continue
        out.append((g1, g2, [(oi, ii)]))
    return out
