"""Ready-made graphs used across the test-suite, the CLI and the
associativity check.

The closed-boundary fixtures follow one building pattern: an incoming
or outgoing circle is a loop edge at a vertex, with the marking leaf
hanging off that vertex, and the remaining structure attached so that
the loop's two sides land on the intended boundary cycles.
"""

from .graphs import _circle_growth, _grow_circle, new_fat_graph
from .openclosed import OpenClosedFatGraph, decorate


def figure4():
    """Two 4-valent vertices joined by four parallel edges; a torus
    with two boundary components."""
    return new_fat_graph(
        ["u", "v"],
        [("A", "u", "v"), ("B", "u", "v"), ("C", "u", "v"), ("D", "u", "v")],
        {"u": ["A.0", "B.0", "C.0", "D.0"],
         "v": ["A.1", "B.1", "C.1", "D.1"]})


def single_loop():
    return new_fat_graph(["u"], [("a", "u", "u")], {"u": ["a.0", "a.1"]})


def two_loops_torus():
    """One vertex, two interleaved loops: genus one, one boundary cycle."""
    return new_fat_graph(["u"], [("a", "u", "u"), ("b", "u", "u")],
                         {"u": ["a.0", "b.0", "a.1", "b.1"]})


def two_loops_planar():
    """One vertex, two nested loops: genus zero, three boundary cycles."""
    return new_fat_graph(["u"], [("a", "u", "u"), ("b", "u", "u")],
                         {"u": ["a.0", "a.1", "b.0", "b.1"]})


def interval():
    """A single edge between an open incoming and an open outgoing leaf."""
    g = new_fat_graph(["p", "q"], [("e", "p", "q")],
                      {"p": ["e.0"], "q": ["e.1"]})
    return decorate(g, ["p"], ["q"])


def cylinder():
    """Annulus: closed incoming circle to closed outgoing circle."""
    g = new_fat_graph(
        ["p", "q", "u"],
        [("a", "u", "u"), ("L", "p", "u"), ("M", "q", "u")],
        {"u": ["L.1", "a.0", "M.1", "a.1"], "p": ["L.0"], "q": ["M.0"]})
    return decorate(g, ["p"], ["q"], {"p", "q"})


def pants():
    """Genus-zero surface with two incoming circles and one outgoing.

    Two loop-circles joined through a middle junction that carries the
    outgoing marking; the outgoing boundary cycle runs around the whole
    graph and crosses six edges.
    """
    g = new_fat_graph(
        ["p1", "p2", "q", "u1", "u2", "w"],
        [("a1", "u1", "u1"), ("a2", "u2", "u2"),
         ("L1", "p1", "u1"), ("L2", "p2", "u2"),
         ("r1", "u1", "w"), ("r2", "w", "u2"), ("M", "q", "w")],
        {"u1": ["L1.1", "a1.0", "r1.0", "a1.1"],
         "u2": ["L2.1", "a2.0", "r2.1", "a2.1"],
         "w": ["r1.1", "r2.0", "M.1"],
         "p1": ["L1.0"], "p2": ["L2.0"], "q": ["M.0"]})
    return decorate(g, ["p1", "p2"], ["q"], {"p1", "p2", "q"})


def mouthpiece():
    """Annulus with one open incoming leaf and a closed outgoing circle."""
    g = new_fat_graph(
        ["p", "q", "u"],
        [("a", "u", "u"), ("L", "p", "u"), ("M", "q", "u")],
        {"u": ["L.1", "a.0", "M.1", "a.1"], "p": ["L.0"], "q": ["M.0"]})
    return decorate(g, ["p"], ["q"], {"q"})


def flaps():
    """Disk with two open incoming leaves and one open outgoing leaf."""
    g = new_fat_graph(
        ["p1", "p2", "q", "u"],
        [("L1", "p1", "u"), ("L2", "p2", "u"), ("M", "q", "u")],
        {"u": ["L1.1", "L2.1", "M.1"],
         "p1": ["L1.0"], "p2": ["L2.0"], "q": ["M.0"]})
    return decorate(g, ["p1", "p2"], ["q"])


def torus_with_out():
    """Genus-one surface with one closed outgoing circle and no input.

    Having no incoming boundary, its relative homology keeps a degree-0
    class; gluing it into something exercises the connecting map of the
    six-term sequence.
    """
    g = new_fat_graph(
        ["u", "q"],
        [("a", "u", "u"), ("b", "u", "u"), ("M", "q", "u")],
        {"u": ["M.1", "a.0", "b.0", "a.1", "b.1"], "q": ["M.0"]})
    return decorate(g, [], ["q"], {"q"})


def open_closed_example():
    """Five leaves, four boundary cycles, genus zero.

    One closed incoming circle (leaf ``v``), one open incoming leaf
    ``z``, open outgoing leaves ``x`` and ``y``, and an undecorated
    leaf ``u``; the cobordism runs from a circle and an interval to
    two intervals.
    """
    g = new_fat_graph(
        ["c", "u", "v", "x", "y", "z", "w1", "w2", "w3"],
        [("a1", "w1", "w1"), ("a2", "w2", "w2"), ("a3", "w3", "w3"),
         ("Lv", "v", "w1"), ("Lu", "u", "w2"), ("Ly", "y", "w3"),
         ("r1", "w1", "c"), ("r2", "w2", "c"), ("r3", "w3", "c"),
         ("Lx", "x", "c"), ("Lz", "z", "c")],
        {"w1": ["Lv.1", "a1.0", "r1.0", "a1.1"],
         "w2": ["Lu.1", "a2.0", "r2.0", "a2.1"],
         "w3": ["Ly.1", "a3.0", "r3.0", "a3.1"],
         "c": ["r1.1", "r2.1", "r3.1", "Lx.1", "Lz.1"],
         "u": ["Lu.0"], "v": ["Lv.0"], "x": ["Lx.0"],
         "y": ["Ly.0"], "z": ["Lz.0"]})
    return decorate(g, ["v", "z"], ["x", "y"], {"v"})


def embedded_circle_example():
    """Leaves ``x`` and ``y`` sit on disjoint embedded circles, leaf
    ``z`` on a cycle that revisits the core vertex; marking ``z``
    closed breaks admissibility."""
    g = new_fat_graph(
        ["c", "u1", "u2", "x", "y", "z"],
        [("a", "u1", "u1"), ("b", "u2", "u2"),
         ("Lx", "x", "u1"), ("Ly", "y", "u2"),
         ("r1", "u1", "c"), ("r2", "u2", "c"),
         ("t", "c", "c"), ("Lz", "z", "c")],
        {"u1": ["Lx.1", "a.0", "r1.0", "a.1"],
         "u2": ["Ly.1", "b.0", "r2.0", "b.1"],
         "c": ["Lz.1", "t.0", "t.1", "r1.1", "r2.1"],
         "x": ["Lx.0"], "y": ["Ly.0"], "z": ["Lz.0"]})
    return g


def disk_closed_in():
    """A single edge whose boundary cycle is one closed incoming circle;
    the smallest graph failing the positive-boundary condition."""
    g = new_fat_graph(["p", "u"], [("L", "p", "u")],
                      {"p": ["L.0"], "u": ["L.1"]})
    return decorate(g, ["p"], [], {"p"})


def interval_in_in():
    """A single edge with two open incoming leaves; its boundary is
    made entirely of incoming intervals."""
    g = new_fat_graph(["p", "q"], [("e", "p", "q")],
                      {"p": ["e.0"], "q": ["e.1"]})
    return decorate(g, ["p", "q"], [])


def subdivided_incoming(g, k):
    """Subdivide every closed incoming circle of ``g`` up to ``k`` edges.

    Each circle is grown at its first edge after the leaf anchor, in
    one run; a circle only grows, so one pass over the leaves does it.
    """
    base = g.base
    for v in g.in_leaves:
        if v in g.closed:
            c, n, step = _circle_growth(base, v)
            if n < k:
                # steps of step.count(c) edges each, rounded up
                base = _grow_circle(base, v, -((n - k) // step.count(c)))
    return g if base is g.base else g.with_base(base)


def oc_disjoint_union(g1, g2, prefix1="A:", prefix2="B:"):
    """Disjoint union of decorated graphs; In/Out lists concatenate."""
    from .graphs import disjoint_union
    base = disjoint_union(g1.base, g2.base, prefix1, prefix2)
    return OpenClosedFatGraph(
        base,
        [prefix1 + v for v in g1.in_leaves] +
        [prefix2 + v for v in g2.in_leaves],
        [prefix1 + v for v in g1.out_leaves] +
        [prefix2 + v for v in g2.out_leaves],
        {prefix1 + v for v in g1.closed} |
        {prefix2 + v for v in g2.closed})
