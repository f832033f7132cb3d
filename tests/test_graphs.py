import random

import pytest

from fatcob import fixtures as fx
from fatcob.errors import (
    DanglingHalfEdge,
    DuplicateName,
    IsolatedVertex,
    UnknownEdge,
    WrongVertexOrder,
)
from fatcob.census import enumerate_fat_graphs
from fatcob.graphs import (
    CellCorrespondence,
    FatGraph,
    _Edit,
    disjoint_union,
    half_id,
    new_fat_graph,
)
from fatcob.morphisms import canonical_form, is_isomorphic

from band_oracle import band_surface_invariants


def comp_data(g):
    return sorted((c.genus, c.boundary_count, c.euler_characteristic)
                  for c in g.surface_invariants().components)


class TestConstruction:
    def test_figure4_builds(self):
        g = fx.figure4()
        assert len(g.vertices) == 2
        assert g.num_edges() == 4
        assert g.fan("u") == ("A.0", "B.0", "C.0", "D.0")

    def test_single_loop(self):
        g = fx.single_loop()
        assert g.valence("u") == 2

    def test_wrong_vertex_order(self):
        with pytest.raises(WrongVertexOrder):
            new_fat_graph(["u", "v"], [("e", "u", "v")],
                          {"u": ["e.0", "e.1"], "v": []})

    def test_duplicate_edge_name(self):
        with pytest.raises(DuplicateName):
            new_fat_graph(["u"], [("e", "u", "u"), ("e", "u", "u")],
                          {"u": ["e.0", "e.1"]})

    def test_missing_half_edge(self):
        with pytest.raises(DanglingHalfEdge):
            new_fat_graph(["u"], [("e", "u", "u")], {"u": ["e.0"]})

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEdge):
            new_fat_graph(["u"], [("e", "u", "x")], {"u": ["e.0"]})

    def test_an_edge_missing_a_half(self):
        with pytest.raises(DanglingHalfEdge, match="missing a half"):
            FatGraph({"e.0": "u"}, {"e.0": "e.0"})

    def test_a_malformed_half_edge_id(self):
        with pytest.raises(DanglingHalfEdge, match="malformed"):
            FatGraph({"e.0": "u", "e.1": "u", "e.2": "u"},
                     {"e.0": "e.1", "e.1": "e.2", "e.2": "e.0"})

    def test_isolated_needs_flag(self):
        with pytest.raises(DanglingHalfEdge):
            new_fat_graph(["u", "v"], [("e", "u", "u")],
                          {"u": ["e.0", "e.1"]})
        g = new_fat_graph(["u", "v"], [("e", "u", "u")],
                          {"u": ["e.0", "e.1"]}, isolated=["v"])
        assert g.is_isolated("v")


class TestOneWalk:
    """``FatGraph(source, sigma)`` walks sigma once per vertex and refuses
    any sigma that is not one cycle on each fan."""

    U4 = {"a.0": "u", "a.1": "u", "b.0": "u", "b.1": "u"}
    H4 = sorted(U4)
    # one fan a.0 a.1 b.0 b.1 at u
    FAN4 = {"a.0": "a.1", "a.1": "b.0", "b.0": "b.1", "b.1": "a.0"}

    # halves: the half-edge names of a valid parent whose collapse
    # target _derived builds from the maps
    refusals = pytest.mark.parametrize("halves, source, sigma, error, match", [
        (H4, U4, {"a.0": "a.1", "a.1": "a.0", "b.0": "b.1", "b.1": "b.0"},
         WrongVertexOrder, "through 'a.0' differs .* at 'u'"),
        # a.0 -> a.1 -> b.0 -> a.1: the walk never returns to a.0
        (H4, dict(U4, **{"b.1": "v"}),
         {"a.0": "a.1", "a.1": "b.0", "b.0": "a.1", "b.1": "b.1"},
         WrongVertexOrder, "through 'a.0' differs .* at 'u'"),
        (H4, {"a.0": "u", "a.1": "v", "b.0": "u", "b.1": "v"},
         {"a.0": "a.1", "a.1": "b.1", "b.0": "a.0", "b.1": "b.0"},
         WrongVertexOrder, "through 'a.0' differs .* at 'u'"),
        (["a.0", "a.1"], {"a.0": "u", "a.1": "u"},
         {"a.0": "z.0", "a.1": "a.0"},
         DanglingHalfEdge, "leaves the half-edge set"),
        # the fan of a.0 misses two half-edges at u, and the walk at v
        # leaves the half-edges: the first vertex is refused first
        (H4, dict(U4, **{"b.1": "v"}),
         {"a.0": "a.0", "a.1": "b.0", "b.0": "a.1", "b.1": "z.0"},
         WrongVertexOrder, "through 'a.0' differs .* at 'u'"),
        # key-set faults: the maps miss a parent half-edge or name a new one
        (H4, U4, {h: x for h, x in FAN4.items() if h != "b.1"},
         DanglingHalfEdge, "^sigma not total on half-edges$"),
        (H4, U4, dict(FAN4, **{"c.0": "a.0"}),
         DanglingHalfEdge, "^sigma not total on half-edges$"),
        (H4, {h: v for h, v in U4.items() if h != "b.1"}, FAN4,
         DanglingHalfEdge, "^sigma not total on half-edges$"),
        (H4, dict(U4, **{"c.0": "u"}), FAN4,
         DanglingHalfEdge, "^sigma not total on half-edges$"),
        (H4, dict(U4, **{"c.0": "u"}),
         dict(FAN4, **{"b.1": "c.0", "c.0": "a.0"}),
         DanglingHalfEdge, "^edge 'c' is missing a half$"),
        (H4, {h: v for h, v in U4.items() if h != "b.1"},
         {"a.0": "a.1", "a.1": "b.0", "b.0": "a.0"},
         DanglingHalfEdge, "^edge 'b' is missing a half$"),
        (H4, dict(U4, c="u"), dict(FAN4, **{"b.1": "c", "c": "a.0"}),
         DanglingHalfEdge, "^malformed half-edge id 'c'$"),
    ], ids=["two cycles at one vertex", "not injective",
            "step onto another vertex", "value outside the half-edges",
            "short fan before a later fault", "sigma entry dropped",
            "sigma entry added", "source entry dropped", "source entry added",
            "half-edge added in both", "half-edge dropped in both",
            "malformed half-edge added in both"])

    @staticmethod
    def parent(halves):
        """A valid one-vertex graph on ``halves``."""
        return FatGraph(dict.fromkeys(halves, "u"),
                        dict(zip(halves, halves[1:] + halves[:1])))

    @refusals
    def test_refused(self, halves, source, sigma, error, match):
        with pytest.raises(error, match=match):
            FatGraph(source, sigma)

    @refusals
    def test_collapse_target_refused_alike(self, halves, source, sigma,
                                           error, match):
        # a collapse target is built by _derived from a valid parent;
        # with no forest collapsed it must refuse the maps as
        # FatGraph(...) does, those on other half-edges too
        with pytest.raises(error, match=match) as built:
            FatGraph(source, sigma)
        with pytest.raises(error) as derived:
            FatGraph._derived(self.parent(halves), source, sigma,
                              frozenset(), ())
        assert type(derived.value) is type(built.value)
        assert str(derived.value) == str(built.value)

    def test_collapse_target_on_other_halves_built_alike(self):
        # a whole edge added in both maps is a valid graph: _derived
        # builds it as FatGraph(...) does
        source = dict(self.U4, **{"c.0": "u", "c.1": "u"})
        sigma = dict(self.FAN4, **{"b.1": "c.0", "c.0": "c.1", "c.1": "a.0"})
        derived = FatGraph._derived(self.parent(self.H4), source, sigma,
                                    frozenset(), ())
        built = FatGraph(source, sigma)
        assert derived == built
        assert derived.edges() == built.edges() == ("a", "b", "c")
        assert [derived.partner(h) for h in derived.half_edges] == \
            [built.partner(h) for h in built.half_edges]


class TestBoundaryCycles:
    def test_figure4_walk(self):
        # sigma=(ABCD)(EFGH), pairing A-E etc gives walk (AFCH)(BGDE)
        bc = fx.figure4().boundary_cycles()
        assert bc.cycles == (("A.0", "B.1", "C.0", "D.1"),
                             ("A.1", "B.0", "C.1", "D.0"))

    def test_loop_two_cycles(self):
        bc = fx.single_loop().boundary_cycles()
        assert bc.cycles == (("a.0",), ("a.1",))

    def test_two_loops_interleaved_single_cycle(self):
        bc = fx.two_loops_torus().boundary_cycles()
        assert bc.cycles == (("a.0", "b.1", "a.1", "b.0"),)

    def test_partition(self):
        g = fx.figure4()
        bc = g.boundary_cycles()
        seen = [h for c in bc.cycles for h in c]
        assert sorted(seen) == sorted(g.half_edges)
        assert len(seen) == len(set(seen))


class TestSurfaceInvariants:
    def test_figure4_is_torus_with_two_holes(self):
        assert comp_data(fx.figure4()) == [(1, 2, -2)]

    def test_loop_is_annulus(self):
        assert comp_data(fx.single_loop()) == [(0, 2, 0)]

    def test_two_loops_interleaved_is_torus(self):
        assert comp_data(fx.two_loops_torus()) == [(1, 1, -1)]

    def test_isolated_vertices_rejected(self):
        g = new_fat_graph(["u", "v"], [("e", "u", "u")],
                          {"u": ["e.0", "e.1"]}, isolated=["v"])
        with pytest.raises(IsolatedVertex) as info:
            g.surface_invariants()
        assert str(info.value) == \
            "surface invariants are undefined for isolated vertices: ['v']"

    def test_band_oracle_on_fixtures(self):
        for g in (fx.figure4(), fx.single_loop(), fx.two_loops_torus(),
                  fx.two_loops_planar(), fx.pants().base,
                  fx.open_closed_example().base):
            assert band_surface_invariants(g) == comp_data(g)


class TestComponents:
    def test_connected(self):
        assert len(fx.figure4().connected_components()) == 1

    def test_two_loops_disjoint(self):
        g = disjoint_union(fx.single_loop(), fx.single_loop())
        comps = g.connected_components()
        assert len(comps) == 2
        assert comp_data(g) == [(0, 2, 0), (0, 2, 0)]

    def test_empty(self):
        assert FatGraph({}, {}).connected_components() == ()

    def test_disjoint_union_refuses_a_shared_name(self):
        g = fx.figure4()
        with pytest.raises(DuplicateName, match="vertex 'x:u'"):
            disjoint_union(g, g, "x:", "x:")
        # figure4 has vertices u, v and edges A..D; single_loop has the
        # vertex u and the edge a, renamed to "aA".."aD" and "aa"
        with pytest.raises(DuplicateName, match="vertex 'au'"):
            disjoint_union(g, fx.single_loop(), "a", "a")
        # only the edge names meet
        w_loop = new_fat_graph(["w"], [("a", "w", "w")], {"w": ["a.0", "a.1"]})
        with pytest.raises(DuplicateName, match="edge 'pa'"):
            disjoint_union(fx.single_loop(), w_loop, "p", "p")

    @pytest.mark.parametrize("make, name", [
        (lambda: fx.figure4().relabel(edge_map={"A": "B"}), "edge 'B'"),
        (lambda: fx.two_loops_planar().relabel(edge_map={"a": "b"}),
         "edge 'b'"),
        (lambda: fx.figure4().relabel(vertex_map={"u": "v"}), "vertex 'v'"),
        # a swap is injective; a vertex clash is named before an edge one
        (lambda: fx.figure4().relabel({"u": "w", "v": "w"},
                                      {"A": "B", "B": "A", "C": "A"}),
         "vertex 'w'"),
        (lambda: fx.figure4().relabel(edge_map={"A": "Z", "B": "Z",
                                                "C": "Y", "D": "Y"}),
         "edge 'Y'"),
    ], ids=["edge onto edge", "loop onto loop", "vertex onto vertex",
            "vertex first", "least name"])
    def test_relabel_refuses_to_merge_cells(self, make, name):
        with pytest.raises(DuplicateName, match=name):
            make()

    def test_relabel_may_swap_names(self):
        g = fx.figure4()
        swapped = g.relabel({"u": "v", "v": "u"}, {"A": "B", "B": "A"})
        assert sorted(swapped.vertices) == ["u", "v"]
        assert swapped.relabel({"u": "v", "v": "u"},
                               {"A": "B", "B": "A"}) == g


class TestSubdivideSmooth:
    def test_loop_subdivision_keeps_invariants(self):
        g, corr = fx.single_loop().subdivide_edge("a")
        assert len(g.vertices) == 2 and g.num_edges() == 2
        assert comp_data(g) == [(0, 2, 0)]
        assert corr.edge_map["a"] == ("a:a", "a:b")

    def test_figure4_subdivision_keeps_invariants(self):
        g, _ = fx.figure4().subdivide_edge("A")
        assert comp_data(g) == [(1, 2, -2)]

    def test_unknown_edge(self):
        with pytest.raises(UnknownEdge):
            fx.figure4().subdivide_edge("nope")

    def test_smooth_inverts_subdivision(self):
        g, _ = fx.single_loop().subdivide_edge("a")
        s, _ = g.smooth_bivalent()
        assert is_isomorphic(s, fx.single_loop())

    def test_smooth_without_bivalents_is_identity(self):
        g = fx.figure4()
        s, corr = g.smooth_bivalent()
        assert s == g
        assert all(v == w for v, w in corr.vertex_map.items())

    def test_chain_of_bivalents(self):
        g = fx.figure4()
        for _ in range(3):
            e = sorted(g.edges())[0]
            g, _ = g.subdivide_edge(e)
        s, _ = g.smooth_bivalent()
        assert is_isomorphic(s, fx.figure4())

    def test_double_subdivide_then_smooth_roundtrip(self):
        g = fx.two_loops_torus()
        h, _ = g.subdivide_edge("a")
        h, _ = h.subdivide_edge("b")
        s, _ = h.smooth_bivalent()
        assert canonical_form(s) == canonical_form(g)

    def test_bare_circle_keeps_one_vertex(self):
        g, _ = fx.single_loop().subdivide_edge("a")
        s, _ = g.smooth_bivalent()
        assert len(s.vertices) == 1


class TestVertexQueries:
    def test_queries_agree_with_a_half_edge_scan(self):
        from fatcob.census import enumerate_fat_graphs
        graphs = [e.graph for e in enumerate_fat_graphs(3)]
        graphs += [fx.figure4(), fx.pants().base, fx.flaps().base]
        for g in graphs:
            for v in g.vertices:
                at_v = sorted(h for h in g.half_edges if g.source(h) == v)
                fan = g.fan(v)
                assert g.valence(v) == len(at_v)
                assert g.leaf_half(v) == at_v[0]
                assert sorted(fan) == at_v and fan[0] == at_v[0]
                assert [g.next_at_vertex(h) for h in fan] == \
                    list(fan[1:] + fan[:1])
            assert g.leaves() == tuple(
                v for v in g.vertices if g.valence(v) == 1)
            assert g.bivalent_vertices() == tuple(
                v for v in g.vertices if g.valence(v) == 2)

    def test_bare_vertex(self):
        g = new_fat_graph(["u", "v"], [("e", "u", "u")],
                          {"u": ["e.0", "e.1"]}, isolated=["v"])
        assert g.valence("v") == 0 and g.fan("v") == ()
        assert not g.is_leaf("v") and g.leaves() == ()
        with pytest.raises(UnknownEdge):
            g.leaf_half("v")


def rebuilt_subdivision(g, e):
    """One subdivision built from whole maps and fully validated: the
    reference for the local edit."""
    h0, h1 = g.edge_halves(e)
    names = set(g.vertices)
    mid, k = "%s:m" % e, 0
    while mid in names:
        k += 1
        mid = "%s:m%d" % (e, k)

    def fresh(base):
        name, k = base, 0
        while name in g.edges():
            k += 1
            name = "%s~%d" % (base, k)
        return name

    e_a, e_b = fresh("%s:a" % e), fresh("%s:b" % e)
    a0, a1, b0, b1 = e_a + ".0", e_a + ".1", e_b + ".0", e_b + ".1"
    ren = {h0: a0, h1: b1}
    source = {ren.get(h, h): g.source(h) for h in g.half_edges}
    source.update({a1: mid, b0: mid})
    sigma = {ren.get(h, h): ren.get(g.next_at_vertex(h), g.next_at_vertex(h))
             for h in g.half_edges}
    sigma.update({a1: b0, b0: a1})
    out = FatGraph(source, sigma, g.isolated_vertices)
    corr = CellCorrespondence(
        {v: v for v in g.vertices},
        {x: ((e_a, e_b) if x == e else (x,)) for x in g.edges()}, (mid,))
    return out, corr


def rebuilt_smoothing(g):
    """Smoothing one vertex at a time, rescanning all vertices and
    building and validating a whole graph after each: the reference
    for the one-sweep local edit."""
    vmap = {v: v for v in g.vertices}
    emap = {e: e for e in g.edges()}
    while True:
        target = None
        for v in g.vertices:
            if g.valence(v) == 2:
                ha, hb = sorted(g.fan(v))
                if g.edge_of(ha) != g.edge_of(hb):
                    target = (v, ha, hb)
                    break
        if target is None:
            return g, CellCorrespondence(
                vmap, {e: (x,) for e, x in emap.items()}, ())
        v, ha, hb = target
        pa, pb = g.partner(ha), g.partner(hb)
        ea, eb = g.edge_of(ha), g.edge_of(hb)
        name = min(ea, eb)
        lo, hi = sorted((pa, pb))
        ren = {lo: name + ".0", hi: name + ".1"}
        keep = [h for h in g.half_edges if h not in (ha, hb)]
        source = {ren.get(h, h): g.source(h) for h in keep}
        sigma = {ren.get(h, h): ren.get(g.next_at_vertex(h),
                                        g.next_at_vertex(h)) for h in keep}
        g = FatGraph(source, sigma, g.isolated_vertices)
        vmap = {u: None if w == v else w for u, w in vmap.items()}
        emap = {e: name if x in (ea, eb) else x for e, x in emap.items()}


def assert_as_built_afresh(g):
    fresh = FatGraph(g._source, g._sigma, g.isolated_vertices)
    assert g == fresh
    assert g.half_edges == fresh.half_edges
    assert g.vertices == fresh.vertices
    assert g.edges() == fresh.edges()
    assert g._fans == fresh._fans
    assert g._edge_of == fresh._edge_of
    assert g._edge_ends == fresh._edge_ends


def same_correspondence(c1, c2):
    return (list(c1.vertex_map.items()) == list(c2.vertex_map.items())
            and list(c1.edge_map.items()) == list(c2.edge_map.items())
            and c1.new_vertices == c2.new_vertices)


class TestLocalEdits:
    def graphs(self):
        from fatcob.census import enumerate_fat_graphs
        out = [fx.figure4(), fx.single_loop(), fx.two_loops_torus(),
               fx.two_loops_planar(), fx.embedded_circle_example()]
        out += [f().base for f in (fx.cylinder, fx.pants, fx.mouthpiece,
                                   fx.flaps, fx.torus_with_out,
                                   fx.open_closed_example)]
        out.append(new_fat_graph(["u", "v"], [("e", "u", "u")],
                                 {"u": ["e.0", "e.1"]}, isolated=["v"]))
        out += [e.graph for e in enumerate_fat_graphs(4)]
        return out

    def test_local_edit_equals_a_full_rebuild(self):
        rng = random.Random(13)
        smoothed = 0
        for g0 in self.graphs():
            for _ in range(2):
                g = g0
                for _ in range(6):
                    if rng.random() < 0.7:
                        e = rng.choice(g.edges())
                        got, corr = g.subdivide_edge(e)
                        ref, ref_corr = rebuilt_subdivision(g, e)
                    else:
                        got, corr = g.smooth_bivalent()
                        ref, ref_corr = rebuilt_smoothing(g)
                        smoothed += got.num_edges() < g.num_edges()
                    assert got == ref
                    assert same_correspondence(corr, ref_corr)
                    assert_as_built_afresh(got)
                    g = got
        assert smoothed > 100

    def test_fresh_names_avoid_taken_ones(self):
        g = new_fat_graph(["u", "e:m"], [("e", "u", "u"), ("e:a", "u", "e:m")],
                          {"u": ["e.0", "e.1", "e:a.0"], "e:m": ["e:a.1"]})
        got, corr = g.subdivide_edge("e")
        assert corr.edge_map["e"] == ("e:a~1", "e:b")
        assert corr.new_vertices == ("e:m1",)
        assert (got, corr) == rebuilt_subdivision(g, "e")
        assert_as_built_afresh(got)

    def test_smoothing_a_long_chain(self):
        g = fx.subdivided_incoming(fx.pants(), 40).base
        for e in ("M", "r2", "L1"):
            for _ in range(5):
                g, _ = g.subdivide_edge(e)
                e = e + ":a"
        got, corr = g.smooth_bivalent()
        ref, ref_corr = rebuilt_smoothing(g)
        assert got == ref and same_correspondence(corr, ref_corr)
        assert_as_built_afresh(got)
        assert is_isomorphic(got, fx.pants().base)

    def test_a_broken_fan_is_caught(self):
        ed = _Edit(fx.figure4())
        e_a, e_b, mid = ed.split("A")
        ed.sigma[e_a + ".1"] = e_a + ".1"
        with pytest.raises(WrongVertexOrder):
            ed.result()

    def test_a_stray_half_edge_is_caught(self):
        ed = _Edit(fx.figure4())
        ed.split("A")
        del ed.source["B.0"]
        with pytest.raises(DanglingHalfEdge):
            ed.result()


def comprehension_relabel(g, vertex_map, edge_map):
    """``FatGraph.relabel`` as three comprehensions that rename each
    half-edge anew wherever it occurs."""
    def rv(v):
        return vertex_map.get(v, v)

    def rh(h):
        e = g.edge_of(h)
        return half_id(edge_map.get(e, e), int(h.rsplit(".", 1)[1]))

    source = {rh(h): rv(g.source(h)) for h in g.half_edges}
    sigma = {rh(h): rh(g.next_at_vertex(h)) for h in g.half_edges}
    return FatGraph(source, sigma,
                    isolated=frozenset(rv(v) for v in g.isolated_vertices))


def relabel_cases():
    """Every census graph through 4 edges, the fixtures, and a graph
    with an isolated vertex and a dotted edge name."""
    graphs = [e.graph for e in enumerate_fat_graphs(4)]
    for name in ("figure4", "single_loop", "two_loops_torus",
                 "two_loops_planar", "embedded_circle_example"):
        graphs.append(getattr(fx, name)())
    for name in ("interval", "cylinder", "pants", "mouthpiece", "flaps",
                 "torus_with_out", "open_closed_example", "disk_closed_in",
                 "interval_in_in"):
        graphs.append(getattr(fx, name)().base)
    graphs.append(new_fat_graph(["u", "w"], [("a.b", "u", "u")],
                                {"u": ["a.b.0", "a.b.1"]}, isolated=["w"]))
    return graphs


class TestRelabel:
    def test_matches_the_comprehensions(self):
        rng = random.Random(16)
        for g in relabel_cases():
            every = ({v: "v:" + v for v in g.vertices},
                     {e: "e:" + e for e in g.edges()})
            some = ({v: "w:%d" % i for i, v in enumerate(g.vertices)
                     if rng.random() < 0.5},
                    {e: e + ".x" for e in g.edges() if rng.random() < 0.5})
            for vmap, emap in (({}, {}), every, some):
                got = g.relabel(vmap, emap)
                want = comprehension_relabel(g, vmap, emap)
                assert got == want
                assert list(got.source_map.items()) == list(
                    want.source_map.items())
                assert [got.next_at_vertex(h) for h in got.half_edges] == [
                    want.next_at_vertex(h) for h in want.half_edges]
            assert g.relabel() == g

    def test_disjoint_union_builds_once(self, monkeypatch):
        def three_builds(g1, g2, p1, p2):
            r1 = g1.relabel({v: p1 + v for v in g1.vertices},
                            {e: p1 + e for e in g1.edges()})
            r2 = g2.relabel({v: p2 + v for v in g2.vertices},
                            {e: p2 + e for e in g2.edges()})
            return FatGraph({**r1._source, **r2._source},
                            {**r1._sigma, **r2._sigma},
                            isolated=r1.isolated_vertices
                            | r2.isolated_vertices)

        graphs = relabel_cases()
        pairs = list(zip(graphs, graphs[1:] + graphs[:1]))
        wants = [three_builds(g1, g2, "1:", "2:") for g1, g2 in pairs]
        built = []
        init = FatGraph.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FatGraph, "__init__", counted)
        for (g1, g2), want in zip(pairs, wants):
            del built[:]
            got = disjoint_union(g1, g2)
            assert len(built) == 1
            assert got == want
            assert list(got.source_map.items()) == list(
                want.source_map.items())
            assert [got.fan(v) for v in got.vertices] == [
                want.fan(v) for v in want.vertices]
            assert got.edges() == want.edges()
            assert got.isolated_vertices == want.isolated_vertices

    def test_disjoint_union_matches_the_comprehensions(self):
        g1, g2 = fx.figure4(), fx.pants().base
        r1 = comprehension_relabel(
            g1, {v: "1:" + v for v in g1.vertices},
            {e: "1:" + e for e in g1.edges()})
        r2 = comprehension_relabel(
            g2, {v: "2:" + v for v in g2.vertices},
            {e: "2:" + e for e in g2.edges()})
        got = disjoint_union(g1, g2)
        assert dict(got.source_map) == {**r1.source_map, **r2.source_map}
        for r in (r1, r2):
            for h in r.half_edges:
                assert got.partner(h) == r.partner(h)
                assert got.next_at_vertex(h) == r.next_at_vertex(h)
