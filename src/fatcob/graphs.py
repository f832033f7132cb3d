"""Half-edge fat graphs and their surface invariants.

A fat graph is a graph together with a cyclic ordering of the half-edges
at each vertex.  We store it as two maps on the half-edge set:

* ``source`` -- the vertex a half-edge starts at,
* ``sigma``  -- the permutation whose orbits are the half-edge fans
  ``source**-1(v)``, read as "next half-edge counterclockwise".

The third piece of data, the fixed-point-free pairing of a half-edge
with the other half of the same edge, is read from the identifiers:
the edge ``e`` from ``u`` to ``v`` owns the half-edges ``e.0`` (at
``u``) and ``e.1`` (at ``v``), and they are each other's partner.
Thickening every vertex to a disk and every edge to a band produces an
oriented surface whose boundary components are the orbits of the
composite permutation ``omega = sigma . partner``.  Everything in
this module is a pure function of that data: boundary cycles, Euler
characteristic, genus, connected components, and the two homotopy-
neutral moves (subdividing an edge, smoothing a bivalent vertex).
All orderings exposed by this module are keyed to identifier order so
that equal inputs give byte-identical outputs.

Validation.  Every graph is validated in full once it is built:
``FatGraph(...)``, :func:`new_fat_graph` (and so the ``.fg`` parser),
:meth:`FatGraph.relabel`, :func:`disjoint_union`, the gluing of
:mod:`fatcob.gluing`, the moves and the target of a forest collapse.
There is one check of the fans, ``FatGraph._validate``.  It walks
sigma once per vertex, from the least half-edge there: every step must
stay at the vertex and the walk must first return after as many steps
as the vertex has half-edges, so sigma is one cycle on each fan.  That
walk is kept as the vertex's fan, which :meth:`FatGraph.fan`, the
valence and the leaf queries read without walking sigma again.
``FatGraph(...)`` then derives the edges and partners from the
half-edge ids.  The target of a forest collapse
(:func:`fatcob.morphisms.collapse_edges`) is built by
``FatGraph._derived``, which copies its source's half-edge names,
edges and partners less the forest's in place of deriving them, and
makes the same check of the fans; maps on any other half-edges go to
``FatGraph(...)`` itself, so they are refused or built exactly as there.
A move edits working copies of the maps of a graph that already
passed, renaming only the half-edges it touches;
:meth:`FatGraph.subdivide_edge` builds its result after one move, while
:meth:`FatGraph.smooth_bivalent` and the circle growth used to match
boundary sizes (:func:`_grow_circle`) make a whole run of moves and
build and validate the result once, not once per move.

Kept results.  A graph is immutable, so two of its invariants are
computed on first use and kept on it, as immutable records every later
call shares: :meth:`FatGraph.boundary_cycles` and
:meth:`FatGraph.surface_invariants`.  Many decorated graphs and
morphisms share one base graph, and each asks for both.  The
canonical-labelling kernel's runs are kept on the graph the same way,
by :mod:`fatcob.morphisms`.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from types import MappingProxyType

from ._record import FrozenRecord
from .errors import (
    DanglingHalfEdge,
    DuplicateName,
    InvariantViolation,
    IsolatedVertex,
    NonIntegerGenus,
    NotALeaf,
    UnknownEdge,
    WrongVertexOrder,
)


def _find(parent, x):
    """Root of ``x`` in the union-find ``parent`` (a dict or a list),
    halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def half_id(edge, end):
    """Identifier of one half of ``edge``; ``end`` is 0 (source) or 1."""
    return "%s.%d" % (edge, end)


def _other_half(h):
    """The partner of the half-edge ``h``: the other half of its edge."""
    return h[:-1] + ("1" if h[-1] == "0" else "0")


class FatGraph:
    """An immutable fat graph.

    Instances are normally built through :func:`new_fat_graph` (or the
    ``.fg`` parser), which derives the half-edge maps from an edge list
    and per-vertex cyclic orders.  Direct construction from the
    ``source`` and ``sigma`` maps is allowed and fully validated; the
    pairing of the halves ``e.0`` and ``e.1`` comes from their ids.
    ``_runs`` holds the canonical-labelling kernel's runs on its
    components once :func:`fatcob.morphisms.canonical_form` has made
    them.
    """

    __slots__ = ("_vertices", "_halves", "_source", "_involution", "_sigma",
                 "_fans", "_edge_of", "_edge_ends", "_isolated", "_bcycles",
                 "_surface", "_runs")

    def __init__(self, source, sigma, isolated=()):
        self._source = dict(source)
        self._sigma = dict(sigma)
        self._halves = tuple(sorted(self._source))
        self._isolated = frozenset(isolated)
        self._bcycles = self._surface = self._runs = None
        self._validate()
        # edge names and the pairing from half ids
        edge_of = self._edge_of = {}
        for h in self._halves:
            name, dot, end = h.rpartition(".")
            if not dot or end not in ("0", "1"):
                raise DanglingHalfEdge("malformed half-edge id %r" % h)
            edge_of[h] = name
        # keys go in sorted, so edges() reads them in order
        inv = self._involution = {}
        ends = self._edge_ends = {}
        for e in sorted(set(edge_of.values())):
            h0, h1 = half_id(e, 0), half_id(e, 1)
            if h0 not in edge_of or h1 not in edge_of:
                raise DanglingHalfEdge("edge %r is missing a half" % e)
            ends[e] = (h0, h1)
            inv[h0], inv[h1] = h1, h0

    # -- construction helpers -------------------------------------------

    def _validate(self):
        """Walk the fans of ``_source`` and ``_sigma`` on the sorted
        ``_halves`` and set ``_fans`` and ``_vertices``."""
        source, sigma = self._source, self._sigma
        if sigma.keys() != source.keys():
            raise DanglingHalfEdge("sigma not total on half-edges")
        # one sigma walk per vertex from its least half-edge, kept as the
        # fan: it must stay at the vertex and first return after as many
        # steps as the vertex has half-edges
        fans = self._fans = {}
        n = len(source)
        for h in self._halves:
            v = source[h]
            if v in fans:
                continue
            fan = [h]
            cur = sigma[h]
            # a walk that never returns is stopped after n steps
            while cur != h and source.get(cur) == v and len(fan) < n:
                fan.append(cur)
                cur = sigma[cur]
            if cur != h:
                raise self._fan_error(fans, h, cur)
            fans[v] = tuple(fan)
        # returning walks are disjoint fans: they cover every half-edge
        # when their sizes sum to the count
        if sum(map(len, fans.values())) != n:
            raise self._fan_error(fans)
        isolated = self._isolated
        if isolated & fans.keys():
            raise WrongVertexOrder(
                "vertex %r flagged isolated but carries half-edges"
                % min(isolated & fans.keys()))
        self._vertices = tuple(sorted(fans.keys() | isolated))

    def _fan_error(self, fans, h=None, cur=None):
        """The refusal that a walk bounded by each vertex's count would
        make: of the first of ``fans`` that misses a half-edge at its
        vertex, else of the walk from ``h`` that stopped at ``cur``."""
        size = Counter(self._source.values())
        short = [fan[0] for v, fan in fans.items() if len(fan) != size[v]]
        if short:
            h = short[0]
        elif cur not in self._source:
            return DanglingHalfEdge("sigma leaves the half-edge set")
        return WrongVertexOrder(
            "orbit of sigma through %r differs from the half-edge fan at %r"
            % (h, self._source[h]))

    @classmethod
    def _derived(cls, parent, source, sigma, isolated, forest):
        """The graph of ``source`` and ``sigma`` on the survivors of
        collapsing the edges ``forest`` of the validated ``parent``.

        The half-edge names, their edges and partners are the parent's
        less the forest's, so those tables are copied, not re-derived.
        A source or sigma on other half-edges is built by the full
        constructor, so it is refused, with the same class and message,
        or accepted exactly as ``FatGraph(source, sigma, isolated)``
        would.  The fans are checked by the same :meth:`_validate` as
        any other graph's.
        """
        edge_of, inv = dict(parent._edge_of), dict(parent._involution)
        ends = dict(parent._edge_ends)
        for e in forest:
            for h in ends.pop(e):
                del edge_of[h], inv[h]
        if not source.keys() == sigma.keys() == edge_of.keys():
            return cls(source, sigma, isolated)
        g = cls.__new__(cls)
        # the parent's tables hold its halves and edges in sorted order,
        # and deleting keeps the order of the rest
        g._source, g._sigma, g._halves = source, sigma, tuple(edge_of)
        g._edge_of, g._involution, g._edge_ends = edge_of, inv, ends
        g._isolated = frozenset(isolated)
        g._bcycles = g._surface = g._runs = None
        g._validate()
        return g

    # -- basic accessors --------------------------------------------------

    @property
    def vertices(self):
        return self._vertices

    @property
    def half_edges(self):
        return self._halves

    def edges(self):
        return tuple(self._edge_ends)

    def num_edges(self):
        return len(self._edge_ends)

    @property
    def source_map(self):
        """``{half-edge: source vertex}``, read-only."""
        return MappingProxyType(self._source)

    @property
    def edge_map(self):
        """``{half-edge: edge name}``, read-only."""
        return MappingProxyType(self._edge_of)

    def source(self, h):
        return self._source[h]

    def partner(self, h):
        return self._involution[h]

    def next_at_vertex(self, h):
        return self._sigma[h]

    def edge_of(self, h):
        return self._edge_of[h]

    def edge_halves(self, e):
        try:
            return self._edge_ends[e]
        except KeyError:
            raise UnknownEdge("no edge named %r" % e) from None

    def edge_ends(self, e):
        h0, h1 = self.edge_halves(e)
        return (self._source[h0], self._source[h1])

    def is_isolated(self, v):
        return v in self._isolated

    @property
    def isolated_vertices(self):
        return self._isolated

    def fan(self, v):
        """Half-edges at ``v`` in cyclic order, starting at the smallest."""
        return self._fans.get(v, ())

    def valence(self, v):
        return len(self._fans.get(v, ()))

    def is_leaf(self, v):
        return self.valence(v) == 1

    def leaves(self):
        return tuple(v for v in self._vertices if self.is_leaf(v))

    def leaf_half(self, v):
        """The unique half-edge at the leaf ``v`` (the smallest one at any
        other vertex)."""
        if v not in self._fans:
            raise UnknownEdge("vertex %r carries no half-edge" % v)
        return self._fans[v][0]

    def leaf_cycle_normal_form(self, v):
        """The boundary cycle of the leaf ``v`` rotated to
        ``(h, hbar, A1..Ak)``.

        ``h`` is the half of the leaf edge at the attachment vertex and
        ``hbar`` the half at the leaf itself; the boundary walk always
        traverses them consecutively.  A vertex that is not a leaf
        raises :class:`~fatcob.errors.NotALeaf`.
        """
        alpha = self.leaf_half(v)        # at the leaf
        if len(self._fans[v]) != 1:
            raise NotALeaf("%r is not a valence-1 vertex" % v)
        beta = self._involution[alpha]   # at the attachment vertex
        cyc = self.boundary_cycles().cycle_of(beta)
        i = cyc.index(beta)
        rot = cyc[i:] + cyc[:i]
        if rot[1] != alpha:
            raise InvariantViolation(
                "boundary walk leaves the edge of leaf %r early" % v)
        return rot

    def euler_characteristic(self):
        return len(self._vertices) - len(self._edge_ends)

    # -- equality ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FatGraph):
            return NotImplemented
        return (self._source == other._source
                and self._sigma == other._sigma
                and self._isolated == other._isolated)

    def __hash__(self):
        return hash((self._halves, tuple(sorted(self._source.items())),
                     tuple(sorted(self._sigma.items())), self._isolated))

    def __repr__(self):
        return "FatGraph(%d vertices, %d edges)" % (
            len(self._vertices), len(self._edge_ends))

    # -- derived structure -------------------------------------------------

    def boundary_cycles(self):
        """Cycle decomposition of the boundary walk.

        Cycles are sorted by their minimal half-edge identifier and each
        cycle is rotated to start at that identifier, so the result is a
        canonical function of the graph.
        """
        if self._bcycles is None:
            sigma, inv = self._sigma, self._involution
            cycles, h2c = [], {}
            for h in self._halves:
                if h in h2c:
                    continue
                # the halves are walked in sorted order, so the first
                # unindexed one is the least of its cycle: each cycle
                # starts there and the cycles come out sorted
                i = len(cycles)
                cyc = []
                cur = h
                while cur not in h2c:
                    h2c[cur] = i
                    cyc.append(cur)
                    cur = sigma[inv[cur]]
                cycles.append(tuple(cyc))
            self._bcycles = BoundaryCycles(tuple(cycles), h2c)
        return self._bcycles

    def connected_components(self):
        """Partition of the vertices under edge adjacency.

        Returns a tuple of components, each a (vertices, half_edges)
        pair of sorted tuples, ordered by minimal vertex identifier.
        Isolated vertices form singleton components.
        """
        parent = {v: v for v in self._vertices}
        source = self._source
        for h0, h1 in self._edge_ends.values():
            a, b = _find(parent, source[h0]), _find(parent, source[h1])
            if a != b:
                parent[a] = b
        groups = {}
        for v in self._vertices:
            groups.setdefault(_find(parent, v), []).append(v)
        halves = {}
        for h in self._halves:
            halves.setdefault(_find(parent, source[h]), []).append(h)
        # both lists are filled in sorted order, and the groups are met
        # in order of their least vertex, so the components come out sorted
        return tuple((tuple(vs), tuple(halves.get(r, ())))
                     for r, vs in groups.items())

    def surface_invariants(self):
        """Genus, boundary count and Euler characteristic per component.

        The thickened surface of a fat graph is always orientable, so
        each component satisfies ``chi = 2 - 2g - b`` with an integer
        genus ``g >= 0``; anything else trips :class:`NonIntegerGenus`.
        """
        if self._isolated:
            raise IsolatedVertex(
                "surface invariants are undefined for isolated vertices: %s"
                % sorted(self._isolated))
        if self._surface is not None:
            return self._surface
        h2c = self.boundary_cycles().half_edge_to_cycle
        comps = []
        for vs, hs in self.connected_components():
            # both halves of an edge lie in one component, and so does
            # each boundary cycle
            chi = len(vs) - len(hs) // 2
            cycles = tuple(sorted({h2c[h] for h in hs}))
            b = len(cycles)
            two_g = 2 - chi - b
            if two_g < 0 or two_g % 2:
                raise NonIntegerGenus(
                    "component %r has 2-chi-b = %d" % (vs[0], two_g))
            comps.append(ComponentSignature(
                genus=two_g // 2, boundary_count=b, euler_characteristic=chi,
                vertices=vs, cycles=cycles))
        self._surface = SurfaceSignature(components=tuple(comps))
        return self._surface

    # -- homotopy-neutral moves --------------------------------------------

    def subdivide_edge(self, e):
        """Insert a bivalent vertex in the middle of ``e``.

        Returns ``(graph, correspondence)``.  The move does not change
        the boundary cycle count, the Euler characteristic or the genus.
        """
        self.edge_halves(e)     # UnknownEdge before any copying
        ed = _Edit(self)
        e_a, e_b, mid = ed.split(e)
        corr = CellCorrespondence(
            vertex_map={v: v for v in self._vertices},
            edge_map={x: ((e_a, e_b) if x == e else (x,))
                      for x in self._edge_ends},
            new_vertices=(mid,))
        return ed.result(), corr

    def bivalent_vertices(self):
        return tuple(v for v in self._vertices if self.valence(v) == 2)

    def smooth_bivalent(self):
        """Remove bivalent vertices, joining the two edges at each one.

        A bivalent vertex both of whose half-edges belong to the same
        edge (the single vertex of a bare circle) cannot be removed and
        is kept.  Returns ``(graph, correspondence)``; the invariants
        chi, b and genus are unchanged.

        The vertices are removed in identifier order, each joined edge
        taking the smaller of the two names, and the graph is built
        once at the end.  Removing a vertex never makes another one
        removable or keeps it from being removed, unless the two are
        the last vertices of a circle, so one sweep of the bivalent
        vertices in order, each checked when it is reached, removes the
        same vertices in the same order as rescanning after every
        removal.
        """
        ed = _Edit(self)
        at = {v: list(self._fans[v]) for v in self.bivalent_vertices()}
        chain = {}      # joined edge -> the edges of self it covers
        smoothed = set()
        for v, halves in at.items():
            ha, hb = sorted(halves)
            ea, eb = _edge_name(ha), _edge_name(hb)
            if ea == eb:
                continue
            name, renamed = ed.join(ha, hb)
            covered = chain.pop(ea, [ea]) + chain.pop(eb, [eb])
            chain[name] = covered
            smoothed.add(v)
            for old, new in renamed:
                w = ed.source[new]
                if old != new and w in at:
                    at[w][at[w].index(old)] = new
        cover = {e: name for name, es in chain.items() for e in es}
        corr = CellCorrespondence(
            vertex_map={v: None if v in smoothed else v
                        for v in self._vertices},
            edge_map={e: (cover.get(e, e),) for e in self._edge_ends},
            new_vertices=())
        return (ed.result() if smoothed else self), corr

    # -- renaming ----------------------------------------------------------

    def relabel(self, vertex_map=None, edge_map=None):
        """A copy with vertices/edges renamed through the given maps.

        Raises :class:`DuplicateName` naming the least new name that two
        vertices, else two edges, would share.
        """
        vmap = vertex_map or {}
        emap = edge_map or {}
        for kind, names, m in (("vertex", self._vertices, vmap),
                               ("edge", self._edge_ends, emap)):
            seen, shared = set(), set()
            for x in names:
                y = m.get(x, x)
                (shared if y in seen else seen).add(y)
            if shared:
                raise DuplicateName("the relabelling merges two cells "
                                    "into %s %r" % (kind, min(shared)))

        # each half-edge renamed once; its validated id ends in ".0"
        # or ".1"
        rh = {h: half_id(emap.get(e, e), int(h[-1]))
              for h, e in self._edge_of.items()}
        src, sig = self._source, self._sigma
        source = {rh[h]: vmap.get(src[h], src[h]) for h in self._halves}
        sigma = {rh[h]: rh[sig[h]] for h in self._halves}
        return FatGraph(source, sigma,
                        isolated=frozenset(vmap.get(v, v)
                                           for v in self._isolated))


def _edge_name(h):
    return h.rpartition(".")[0]


def _fresh(base, fmt, taken):
    name = base
    k = 0
    while name in taken:
        k += 1
        name = fmt % (base, k)
    return name


class _Edit:
    """A run of local moves on working copies of a validated graph's
    maps; :meth:`result` builds and validates the edited graph once.

    Each move changes the maps as the same move on the graph built so
    far would, names included; the fresh-name sets are made once per
    run.
    """

    def __init__(self, g):
        self.isolated = g._isolated
        self.source = dict(g._source)
        self.sigma = dict(g._sigma)
        self.vertex_names = set(g._vertices)
        self.edge_names = set(g._edge_ends)

    def _rename(self, ren):
        """Give the half-edges ``ren`` maps new names: each keeps its
        source and its slot in its fan."""
        source, sigma = self.source, self.sigma
        touched = list(ren)
        for h in ren:
            cur = h
            while sigma[cur] != h:
                cur = sigma[cur]
            touched.append(cur)
        nxt = {ren.get(h, h): ren.get(sigma[h], sigma[h]) for h in touched}
        starts = {new: source[old] for old, new in ren.items()}
        for h in ren:
            del source[h], sigma[h]
        sigma.update(nxt)
        source.update(starts)

    def split(self, e):
        """Subdivide ``e``: ``e.0`` becomes ``e_a.0``, ``e.1`` becomes
        ``e_b.1``, and ``e_a.1``, ``e_b.0`` meet at the new bivalent
        vertex.  Returns ``(e_a, e_b, mid)``."""
        mid = _fresh("%s:m" % e, "%s%d", self.vertex_names)
        e_a = _fresh("%s:a" % e, "%s~%d", self.edge_names)
        e_b = _fresh("%s:b" % e, "%s~%d", self.edge_names)
        a0, a1 = half_id(e_a, 0), half_id(e_a, 1)
        b0, b1 = half_id(e_b, 0), half_id(e_b, 1)
        self._rename({half_id(e, 0): a0, half_id(e, 1): b1})
        self.source[a1] = self.source[b0] = mid
        self.sigma[a1], self.sigma[b0] = b0, a1
        self.vertex_names.add(mid)
        self.edge_names.discard(e)
        self.edge_names.update((e_a, e_b))
        return e_a, e_b, mid

    def join(self, ha, hb):
        """Smooth the bivalent vertex of ``ha`` and ``hb``, which lie on
        different edges.  The joined edge takes the smaller name and runs
        from the smaller far half to the larger one.  Returns the name
        and the ``(old, new)`` names of the two far halves."""
        source = self.source
        pa, pb = _other_half(ha), _other_half(hb)
        ea, eb = _edge_name(ha), _edge_name(hb)
        name = min(ea, eb)
        n0, n1 = half_id(name, 0), half_id(name, 1)
        lo, hi = (pa, pb) if pa < pb else (pb, pa)
        self.vertex_names.discard(source[ha])
        for h in (ha, hb):
            del source[h], self.sigma[h]
        self._rename({lo: n0, hi: n1})
        self.edge_names.difference_update((ea, eb))
        self.edge_names.add(name)
        return name, ((lo, n0), (hi, n1))

    def result(self):
        """The edited graph, built from the maps and validated in full."""
        return FatGraph(self.source, self.sigma, isolated=self.isolated)


def _circle_growth(g, v):
    """The circle of the leaf ``v`` as ``(cycle, length, step)``.

    ``cycle`` indexes the leaf's boundary cycle and ``length`` counts
    its circle edges.  Each subdivision made by :func:`_grow_circle`
    adds one half-edge to each of the two cycles in ``step``, the
    cycles of the halves of the edge it splits, and every later one
    adds to the same two: the renamed first half keeps its cycle, and
    its new partner takes the cycle of the old one.
    """
    cyc = g.leaf_cycle_normal_form(v)
    h2c = g.boundary_cycles().half_edge_to_cycle
    first = g.next_at_vertex(cyc[0])
    c = h2c[cyc[0]]
    return c, len(cyc) - 2, (c, h2c[g.partner(first)])


def _grow_circle(g, v, j):
    """``g`` after ``j`` subdivisions of the first circle edge after the
    anchor of the leaf ``v``, made in one run and built once.

    The first circle half-edge is the one after the anchor in the fan
    at the attachment vertex; with no circle edge yet that is the
    anchor itself, and the leaf edge is split.  The result has exactly
    the names and maps of ``j`` calls of :meth:`FatGraph.subdivide_edge`
    on those edges, each move following the last one's renaming: after
    splitting ``E`` at its ``.0`` half the next edge is ``E:a``, and
    otherwise ``E:b``.
    """
    if j <= 0:
        return g
    ed = _Edit(g)
    leaf = g.leaf_half(v)
    for _ in range(j):
        e = _edge_name(ed.sigma[_other_half(leaf)])
        e_a, e_b, _ = ed.split(e)
        if _edge_name(leaf) == e:
            leaf = half_id(e_a, 0) if leaf == half_id(e, 0) else \
                half_id(e_b, 1)
    return ed.result()


class BoundaryCycles(FrozenRecord):
    """The orbits of the boundary walk, in canonical order.  ``len``
    counts the cycles."""
    _fields = __slots__ = ("cycles", "half_edge_to_cycle")

    def __init__(self, cycles, half_edge_to_cycle):
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "half_edge_to_cycle", half_edge_to_cycle)

    def __len__(self):
        return len(self.cycles)

    def cycle_of(self, h):
        return self.cycles[self.half_edge_to_cycle[h]]


class ComponentSignature(namedtuple(
        "ComponentSignature",
        "genus boundary_count euler_characteristic vertices cycles",
        defaults=((), ()))):
    """One component: its invariants, its sorted vertices and the sorted
    indices of its cycles in :meth:`FatGraph.boundary_cycles`."""
    __slots__ = ()


class SurfaceSignature(FrozenRecord):
    """Per-component genus/boundary/chi data plus global totals.
    ``len`` counts the components."""
    _fields = __slots__ = ("components",)

    def __init__(self, components):
        object.__setattr__(self, "components", components)

    @property
    def total_euler_characteristic(self):
        return sum(c.euler_characteristic for c in self.components)

    @property
    def genera(self):
        return tuple(c.genus for c in self.components)

    @property
    def boundary_counts(self):
        return tuple(c.boundary_count for c in self.components)

    def __len__(self):
        return len(self.components)


class CellCorrespondence(namedtuple(
        "CellCorrespondence", "vertex_map edge_map new_vertices",
        defaults=((),))):
    """Tracks where the cells of a graph went under a local move.

    ``vertex_map`` sends an old vertex to its survivor (or ``None`` if
    it was absorbed); ``edge_map`` sends an old edge to the tuple of
    edges now covering it.
    """
    __slots__ = ()


def new_fat_graph(vertices, edges, vertex_orders, isolated=()):
    """Build and validate a fat graph from named parts.

    ``edges`` is a list of ``(name, src, dst)`` triples; each edge
    contributes half-edges ``name.0`` at ``src`` and ``name.1`` at
    ``dst``.  ``vertex_orders`` maps every non-isolated vertex to the
    cyclic list of its half-edges.
    """
    vlist = list(vertices)
    if len(set(vlist)) != len(vlist):
        raise DuplicateName("repeated vertex name")
    vset = set(vlist)
    source = {}
    enames = set()
    for name, src, dst in edges:
        if name in enames:
            raise DuplicateName("repeated edge name %r" % name)
        enames.add(name)
        if src not in vset or dst not in vset:
            raise UnknownEdge("edge %r uses unknown endpoint" % name)
        source[half_id(name, 0)] = src
        source[half_id(name, 1)] = dst
    sigma = {}
    ordered = set()
    for v, hs in vertex_orders.items():
        if v not in vset:
            raise UnknownEdge("order given for unknown vertex %r" % v)
        for h in hs:
            if h not in source:
                raise DanglingHalfEdge("unknown half-edge %r at %r" % (h, v))
            if source[h] != v:
                raise WrongVertexOrder(
                    "half-edge %r listed at %r but starts at %r"
                    % (h, v, source[h]))
            if h in ordered:
                raise DuplicateName("half-edge %r ordered twice" % h)
            ordered.add(h)
        for i, h in enumerate(hs):
            sigma[h] = hs[(i + 1) % len(hs)]
    missing = set(source) - ordered
    if missing:
        raise DanglingHalfEdge(
            "half-edges missing from vertex orders: %s" % sorted(missing))
    iso = set(isolated)
    degree0 = vset - {source[h] for h in source}
    if degree0 - iso:
        raise DanglingHalfEdge(
            "vertices %s carry no half-edge and are not flagged isolated"
            % sorted(degree0 - iso))
    if iso - degree0:
        raise WrongVertexOrder(
            "vertices %s flagged isolated but have edges" % sorted(iso - degree0))
    return FatGraph(source, sigma, isolated=iso)


def disjoint_union(g1, g2, prefix1="1:", prefix2="2:"):
    """Disjoint union with cells renamed through the given prefixes.

    Raises :class:`DuplicateName` if a renamed vertex or edge of ``g1``
    meets one of ``g2``.
    """
    for kind, a, b in (("vertex", g1.vertices, g2.vertices),
                       ("edge", g1.edges(), g2.edges())):
        clash = sorted({prefix1 + x for x in a} & {prefix2 + x for x in b})
        if clash:
            raise DuplicateName("%s %r is named in both graphs of the "
                                "union" % (kind, clash[0]))
    # the prefixed half-edge ``prefix + "e.0"`` is the half ``.0`` of
    # the prefixed edge ``prefix + "e"``
    source, sigma, isolated = {}, {}, set()
    for g, p in ((g1, prefix1), (g2, prefix2)):
        source.update({p + h: p + g._source[h] for h in g._halves})
        sigma.update({p + h: p + g._sigma[h] for h in g._halves})
        isolated.update(p + v for v in g._isolated)
    return FatGraph(source, sigma, isolated=isolated)
