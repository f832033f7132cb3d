"""Gluing admissible fat graphs along outgoing/incoming boundary.

Composition of the underlying cobordisms is modelled cell by cell.  A
matched *closed* pair identifies an outgoing boundary cycle
``(m mbar A1 ... Ak)`` of the first graph with an incoming embedded
circle ``(l lbar B1 ... Bk)`` of the second: the circles are traversed
with opposite orientations, so edge ``B_i`` is identified with the
reversal of ``A_{k+1-i}`` (indices mod ``k``), both leaf edges and leaf
vertices disappear, and the cells of the second graph that hung on the
circle are reattached through ``s(B_i) -> s(reversal of A_{k+1-i})``.
A matched *open* pair simply merges the two leaf vertices into one
bivalent junction.

The boundary walk of the glued graph is assembled directly: the cycles
of the first graph survive except the matched outgoing ones, and the
cycles of the second survive except the matched incoming ones, with
each ``reversal of B_i`` replaced by ``A_{k+1-i}``; the vertex fans are
recovered from the walk.  Matching is partial: unmatched outgoing
leaves of the first graph and unmatched incoming leaves of the second
stay boundary of the composite.

A :class:`GluingMatch` is frozen and its graphs are immutable, so a
match glues once: :func:`glue` keeps the glued graph and its
:class:`GlueData` on the match, and :mod:`fatcob.homology` keeps the
d-independent part of the det-line gluing isomorphism there too.  The
check that the graphs fit the match runs on every call.
"""

from __future__ import annotations

from collections import namedtuple
from types import MappingProxyType

from ._record import FrozenRecord
from .errors import (
    EdgeCountMismatch,
    FatcobError,
    InvalidMatch,
    NotGluablePairMorphism,
    ResultInvalid,
    SignatureMismatch,
)
from .graphs import (
    FatGraph,
    _circle_growth,
    _grow_circle,
    _other_half,
)
from .morphisms import Morphism, require_valid
from .openclosed import (
    CIRCLE,
    INTERVAL,
    OpenClosedFatGraph,
    _require_decorated,
    cobordism_signature,
    require_admissible,
)


class MatchPair(namedtuple(
        "MatchPair",
        "kind out_index in_index out_leaf in_leaf a_halves b_halves")):
    """One matched (outgoing leaf of g1, incoming leaf of g2) pair.

    ``a_halves`` is the circle part of g1's outgoing cycle and
    ``b_halves`` that of g2's incoming cycle, each in walk order.
    """
    __slots__ = ()

    @property
    def k(self):
        return len(self.a_halves)

    def identified_halves(self, g1):
        """The recorded identification: ``B_i`` against the reversal of
        ``A_{k+1-i}``, indices mod ``k`` (the circles are traversed in
        opposite directions, anchored at the leaf edges)."""
        k = self.k
        return tuple(
            (self.b_halves[i], g1.base.partner(self.a_halves[(k - 1 - i) % k]))
            for i in range(k))


class GluingMatch(FrozenRecord):
    """Matched pairs of g1's outgoing and g2's incoming leaves.

    The two slots hold what a gluing along the match computed, filled
    on first success and ignored by equality, hashing and ``repr``:
    ``_glued`` is ``(glued graph, GlueData)`` from :func:`glue`, and
    ``_det_line`` is the d = 1 scalar of
    :func:`fatcob.homology._gluing_scalar`.
    """
    _fields = ("g1", "g2", "pairs")
    __slots__ = _fields + ("_glued", "_det_line")

    def __init__(self, g1, g2, pairs):
        init = object.__setattr__
        init(self, "g1", g1)
        init(self, "g2", g2)
        init(self, "pairs", pairs)
        init(self, "_glued", None)
        init(self, "_det_line", None)

    def require_graphs(self, g1, g2):
        """Raise :class:`InvalidMatch` unless the match was computed for
        ``g1`` and ``g2``."""
        if (self.g1 is not g1 and self.g1 != g1) or \
           (self.g2 is not g2 and self.g2 != g2):
            raise InvalidMatch("match was computed for different graphs")

    @property
    def closed_pairs(self):
        return tuple(p for p in self.pairs if p.kind == CIRCLE)

    @property
    def open_pairs(self):
        return tuple(p for p in self.pairs if p.kind == INTERVAL)


def _leaf_kind(g, v):
    return CIRCLE if v in g.closed else INTERVAL


def _pair_leaves(g1, g2, idx, oi, ii):
    """The leaves of pair ``idx``, whose slots are in range, and their
    common kind."""
    v_out = g1.out_leaves[oi]
    v_in = g2.in_leaves[ii]
    k_out = _leaf_kind(g1, v_out)
    k_in = _leaf_kind(g2, v_in)
    if k_out != k_in:
        raise SignatureMismatch(
            "pair %d matches a %s against a %s" % (idx, k_out, k_in))
    return v_out, v_in, k_out


def _slot_pairs(g1, g2, pairs):
    """The ``(out_index, in_index)`` pairs of a match.

    With ``pairs=None`` these are the positions of ``g1``'s outgoing
    leaves, and the ordered boundary 1-manifolds must agree.  Each
    given pair must be two ``int`` slot indices in range, and every slot
    is used at most once; otherwise :class:`InvalidMatch` is raised.
    """
    _require_decorated(g1)
    _require_decorated(g2)
    if pairs is None:
        sig1 = cobordism_signature(g1)
        sig2 = cobordism_signature(g2)
        if sig1.target != sig2.source:
            raise SignatureMismatch(
                "outgoing %s does not match incoming %s"
                % (list(sig1.target), list(sig2.source)))
        return [(i, i) for i in range(len(g1.out_leaves))]
    counts = (len(g1.out_leaves), len(g2.in_leaves))
    checked = []
    for idx, pair in enumerate(pairs):
        try:
            oi, ii = pair
        except (TypeError, ValueError):
            raise InvalidMatch(
                "pair %d is %r, not two slot indices" % (idx, pair)) from None
        for slot, count in zip((oi, ii), counts):
            if isinstance(slot, bool) or not isinstance(slot, int):
                raise InvalidMatch(
                    "pair %d holds %r, not a slot index" % (idx, slot))
            if not 0 <= slot < count:
                raise InvalidMatch("pair %d is out of range" % idx)
        checked.append((oi, ii))
    pairs = checked
    if len({o for o, _ in pairs}) != len(pairs) or \
       len({i for _, i in pairs}) != len(pairs):
        raise InvalidMatch("an outgoing or incoming slot is matched twice")
    return pairs


def gluable(g1, g2, pairs=None):
    """Match g1's outgoing leaves against g2's incoming leaves.

    With ``pairs=None`` every outgoing leaf of ``g1`` is matched
    against the incoming leaf of ``g2`` in the same position, and the
    ordered boundary 1-manifolds must agree.  Passing explicit
    ``(out_index, in_index)`` pairs composes partially: the unmatched
    boundary stays boundary.  Closed pairs must carry the same number
    of circle edges, or :class:`EdgeCountMismatch` is raised.
    """
    require_admissible(g2)
    out = []
    for idx, (oi, ii) in enumerate(_slot_pairs(g1, g2, pairs)):
        v_out, v_in, kind = _pair_leaves(g1, g2, idx, oi, ii)
        if kind == CIRCLE:
            a = g1.leaf_cycle_normal_form(v_out)[2:]
            b = g2.leaf_cycle_normal_form(v_in)[2:]
            if len(a) != len(b):
                raise EdgeCountMismatch(idx, len(a), len(b))
            out.append(MatchPair(CIRCLE, oi, ii, v_out, v_in, a, b))
        else:
            out.append(MatchPair(INTERVAL, oi, ii, v_out, v_in, (), ()))
    return GluingMatch(g1, g2, tuple(out))


def subdivision_match(g1, g2, pairs=None):
    """Subdivide circle edges until the matched cycles have equal size.

    The rule is a loop of single steps: find the first matched pair
    whose circles differ in size, subdivide the smaller side's first
    circle edge after the leaf anchor (the leaf edge itself while that
    circle has no edge), and look again from the first pair.  Any fixed
    rule gives isomorphic results.  The loop is played out on the cycle
    sizes alone (see :func:`_subdivision_runs`), then each run of steps
    on one circle is made at once on the bare fat graph, and each side
    that changed is decorated once at the end.  Returns
    ``(g1', g2', match)``; :func:`gluable` checks every pair again.
    """
    pairs = _slot_pairs(g1, g2, pairs)
    circles = []
    for idx, (oi, ii) in enumerate(pairs):
        v_out, v_in, kind = _pair_leaves(g1, g2, idx, oi, ii)
        if kind == CIRCLE:
            circles.append((idx, v_out, v_in))
    b1, b2 = g1.base, g2.base
    runs1, runs2 = _subdivision_runs(b1, b2, circles)
    for v, j in runs1:
        b1 = _grow_circle(b1, v, j)
    for v, j in runs2:
        b2 = _grow_circle(b2, v, j)
    if b1 is not g1.base:
        g1 = g1.with_base(b1)
    if b2 is not g2.base:
        g2 = g2.with_base(b2)
    return g1, g2, gluable(g1, g2, pairs)


def _subdivision_runs(b1, b2, circles):
    """The steps of the single-step loop, as ``[leaf, count]`` runs on
    each side, from one walk of each matched cycle.

    ``circles`` lists the matched circles in order, as ``(pair index,
    outgoing leaf, incoming leaf)``.  A step on a circle adds one edge
    to each of its two step cycles (:func:`fatcob.graphs._circle_growth`),
    which may be the circle itself twice or another matched circle of
    that side, so an earlier pair can fall out of balance again.

    The next step depends only on the gaps ``n1 - n2`` of the pairs.
    Each closed leaf owns its cycle and each slot is matched once, so a
    step never raises the sum of the absolute gaps: it moves its own
    gap one or two towards zero (or from 1 to -1) and at most one other
    gap by one.  So the loop either ends or comes back to gaps it has
    seen, and would then repeat them forever; that raises
    :class:`EdgeCountMismatch`.
    """
    sides = []
    for b, leaves in ((b1, [p[1] for p in circles]),
                      (b2, [p[2] for p in circles])):
        size, cycle, step = {}, [], []
        for v in leaves:
            c, n, grows = _circle_growth(b, v)
            size[c] = n
            cycle.append(c)
            step.append(grows)
        sides.append((size, cycle, step))
    (size1, cycle1, _), (size2, cycle2, _) = sides
    runs = ([], [])
    seen = set()
    while True:
        gaps = tuple(size1[c1] - size2[c2] for c1, c2 in zip(cycle1, cycle2))
        i = next((i for i, gap in enumerate(gaps) if gap), None)
        if i is None:
            return runs
        if gaps in seen:
            raise EdgeCountMismatch(circles[i][0], size1[cycle1[i]],
                                    size2[cycle2[i]])
        seen.add(gaps)
        side = 0 if gaps[i] < 0 else 1
        size, _, step = sides[side]
        for c in step[i]:
            if c in size:
                size[c] += 1
        leaf = circles[i][side + 1]
        run = runs[side]
        if run and run[-1][0] == leaf:
            run[-1][1] += 1
        else:
            run.append([leaf, 1])


class GlueData(namedtuple(
        "GlueData",
        "prefix1 prefix2 dropped_vertices1 dropped_edges1 "
        "dropped_vertices2 dropped_edges2 reattach junctions")):
    """Where the cells went: renaming prefixes, dropped cells of both
    sides, and the reattachment map for g2's matched circle vertices.

    ``reattach`` maps a g2 vertex name to its result vertex name, and
    ``junctions`` a g2 open in-leaf to its result junction vertex.  A
    match hands the same instance to every caller, so the two maps
    are read-only views."""
    __slots__ = ()

    def half_image(self, side, h):
        """Name of the result half-edge made from input half-edge ``h``
        of ``side`` (1 or 2): its edge name takes the side's prefix."""
        return (self.prefix1 if side == 1 else self.prefix2) + h

    def vertex_image(self, side, v):
        """Result vertex carrying the given input vertex, or None."""
        if side == 1:
            if v in self.dropped_vertices1:
                return None
            return self.prefix1 + v
        if v in self.reattach:
            return self.reattach[v]
        if v in self.junctions:
            return self.junctions[v]
        if v in self.dropped_vertices2:
            return None
        return self.prefix2 + v


def glue(g1, g2, match, with_data=False):
    """Compose two decorated graphs along a :class:`GluingMatch`.

    Incoming data of the result is g1's incoming list followed by the
    unmatched incoming leaves of g2; outgoing data is the unmatched
    outgoing leaves of g1 followed by g2's outgoing list.  Cells are
    renamed with ``1:``/``2:`` prefixes.  The result is validated and
    is always admissible (its incoming circles are untouched copies).

    The match glues once: the first success is kept on it and returned
    by later calls, after :class:`InvalidMatch` is checked again.  A
    gluing that raises keeps nothing.
    """
    match.require_graphs(g1, g2)
    if match._glued is None:
        object.__setattr__(match, "_glued", _glue(g1, g2, match))
    out, data = match._glued
    return (out, data) if with_data else out


def _glue(g1, g2, match):
    """The glued graph and its :class:`GlueData`, computed afresh."""
    b1, b2 = g1.base, g2.base
    p1, p2 = "1:", "2:"
    dropped_v1, dropped_e1 = set(), set()
    dropped_v2, dropped_e2 = set(), set()
    reattach = {}
    junctions = {}
    subst = {}     # g2 half -> the g1 half replacing it in the walk
    for pair in match.closed_pairs:
        dropped_v1.add(pair.out_leaf)
        dropped_e1.add(b1.edge_of(b1.leaf_half(pair.out_leaf)))
        dropped_v2.add(pair.in_leaf)
        dropped_e2.add(b2.edge_of(b2.leaf_half(pair.in_leaf)))
        for bh, ah in pair.identified_halves(g1):
            dropped_e2.add(b2.edge_of(bh))
            dropped_v2.add(b2.source(bh))
            # s(B_i) -> s(reversal of A_{k+1-i})
            reattach[b2.source(bh)] = p1 + b1.source(ah)
            # walk replacement: reversal of B_i -> A_{k+1-i}
            subst[b2.partner(bh)] = b1.partner(ah)
    for pair in match.open_pairs:
        dropped_v2.add(pair.in_leaf)
        junctions[pair.in_leaf] = p1 + pair.out_leaf
    data = GlueData(p1, p2, frozenset(dropped_v1), frozenset(dropped_e1),
                    frozenset(dropped_v2), frozenset(dropped_e2),
                    MappingProxyType(reattach), MappingProxyType(junctions))
    rh = data.half_image

    dropped_h1 = {h for h in b1.half_edges if b1.edge_of(h) in dropped_e1}
    dropped_h2 = {h for h in b2.half_edges if b2.edge_of(h) in dropped_e2}
    keep1 = [h for h in b1.half_edges if h not in dropped_h1]
    keep2 = [h for h in b2.half_edges if h not in dropped_h2]

    source = {}
    for h in keep1:
        source[rh(1, h)] = p1 + b1.source(h)
    for h in keep2:
        source[rh(2, h)] = data.vertex_image(2, b2.source(h))

    # assemble the boundary walk of the composite
    matched_out_cycles = {g1.leaf_cycle_index(p.out_leaf)
                          for p in match.closed_pairs}
    matched_in_cycles = {g2.leaf_cycle_index(p.in_leaf)
                         for p in match.closed_pairs}
    omega = {}
    for ci, cyc in enumerate(b1.boundary_cycles().cycles):
        if ci in matched_out_cycles:
            continue
        ren = [rh(1, h) for h in cyc]
        for i, h in enumerate(ren):
            omega[h] = ren[(i + 1) % len(ren)]
    for ci, cyc in enumerate(b2.boundary_cycles().cycles):
        if ci in matched_in_cycles:
            continue
        ren = [rh(1, subst[h]) if h in subst else rh(2, h) for h in cyc]
        for i, h in enumerate(ren):
            omega[h] = ren[(i + 1) % len(ren)]
    if set(omega) != set(source):
        raise ResultInvalid(
            "boundary-walk surgery lost half-edges: %s"
            % sorted(set(source) ^ set(omega))[:4])
    # sigma = omega . partner, then patch the open-pair junctions
    sigma = {h: omega[_other_half(h)] for h in source}
    for pair in match.open_pairs:
        ha = rh(1, b1.leaf_half(pair.out_leaf))
        hb = rh(2, b2.leaf_half(pair.in_leaf))
        sigma[ha] = hb
        sigma[hb] = ha
    isolated = {p1 + v for v in b1.isolated_vertices} | \
        {p2 + v for v in b2.isolated_vertices}
    try:
        base = FatGraph(source, sigma, isolated=isolated)
    except FatcobError as exc:
        raise ResultInvalid("glued graph failed validation: %s" % exc) from exc
    matched_in = {p.in_leaf for p in match.pairs}
    matched_out = {p.out_leaf for p in match.pairs}
    in_leaves = [p1 + v for v in g1.in_leaves] + \
        [p2 + v for v in g2.in_leaves if v not in matched_in]
    out_leaves = [p1 + v for v in g1.out_leaves if v not in matched_out] + \
        [p2 + v for v in g2.out_leaves]
    closed = {p1 + v for v in g1.closed if v not in matched_out} | \
        {p2 + v for v in g2.closed if v not in matched_in}
    try:
        out = OpenClosedFatGraph(base, in_leaves, out_leaves, closed)
    except FatcobError as exc:
        raise ResultInvalid("glued decorations failed: %s" % exc) from exc
    require_admissible(out)
    return out, data


def glue_morphisms(m1, m2, match):
    """Glue a pair of morphisms along matched graphs.

    ``m1`` acts on the g1 side, ``m2`` on the g2 side, and ``match``
    matches their sources.  A closed pair forces the circle edges to be
    collapsed in tandem: ``B_i`` may be collapsed exactly when the
    reversal of ``A_{k+1-i}`` is.
    """
    s1, s2 = m1.source, m2.source
    t1, t2 = m1.target, m2.target
    if match.g1 != s1 or match.g2 != s2:
        raise InvalidMatch("match does not fit the morphism sources")
    col1 = {s1.base.edge_of(h) for h in m1.collapsed_halves()}
    col2 = {s2.base.edge_of(h) for h in m2.collapsed_halves()}
    for pair in match.closed_pairs:
        for bh, ah in pair.identified_halves(s1):
            eb = s2.base.edge_of(bh)
            if (eb in col2) != (s1.base.edge_of(ah) in col1):
                raise NotGluablePairMorphism(
                    "circle edge %s collapsed on one side only" % eb)
    index_pairs = [(p.out_index, p.in_index) for p in match.pairs]
    tmatch = gluable(t1, t2, index_pairs)
    src, sdata = glue(s1, s2, match, with_data=True)
    tgt, tdata = glue(t1, t2, tmatch, with_data=True)

    def target_image(side, w):
        # image of a vertex of the side's target in the target gluing
        img = tdata.vertex_image(side, w)
        if img is None:
            raise ResultInvalid("image vertex %s vanished in the target" % w)
        return img

    vmap = {}
    for v in s1.base.vertices:
        img = sdata.vertex_image(1, v)
        if img is not None:
            vmap[img] = target_image(1, m1.vertex_map[v])
    for v in s2.base.vertices:
        img = sdata.vertex_image(2, v)
        if img is None or img in vmap:
            continue
        if img.startswith(sdata.prefix2):
            vmap[img] = target_image(2, m2.vertex_map[v])
    hmap = {}
    for side, s, m, dropped in ((1, s1, m1, sdata.dropped_edges1),
                                (2, s2, m2, sdata.dropped_edges2)):
        for h in s.base.half_edges:
            if s.base.edge_of(h) in dropped:
                continue
            img = m.half_map[h]
            hmap[sdata.half_image(side, h)] = \
                None if img is None else tdata.half_image(side, img)
    return require_valid(Morphism(src, tgt, vmap, hmap))
