import pytest

from fatcob import fixtures as fx
from fatcob.errors import (
    DanglingHalfEdge,
    DuplicateName,
    UnknownEdge,
    WrongVertexOrder,
)
from fatcob.graphs import disjoint_union, new_fat_graph
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

    def test_fixed_point_involution(self):
        from fatcob.errors import FixedPointInvolution
        from fatcob.graphs import FatGraph
        with pytest.raises(FixedPointInvolution):
            FatGraph({"e.0": "u", "e.1": "u"},
                     {"e.0": "e.0", "e.1": "e.1"},
                     {"e.0": "e.1", "e.1": "e.0"})

    def test_isolated_needs_flag(self):
        with pytest.raises(DanglingHalfEdge):
            new_fat_graph(["u", "v"], [("e", "u", "u")],
                          {"u": ["e.0", "e.1"]})
        g = new_fat_graph(["u", "v"], [("e", "u", "u")],
                          {"u": ["e.0", "e.1"]}, isolated=["v"])
        assert g.is_isolated("v")


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
        with pytest.raises(ValueError):
            g.surface_invariants()

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
        from fatcob.graphs import FatGraph
        assert FatGraph({}, {}, {}).connected_components() == ()


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
