import random
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import run_optimized
from corpus import (
    admissible_census_decorations,
    census_collapse_pairs,
    forests,
    random_relabel,
    strip_names,
)
from fatcob import fixtures as fx
from fatcob.census import enumerate_fat_graphs, genus_distribution
from fatcob.errors import (
    BoundExceeded,
    DanglingHalfEdge,
    DecorationDestroyed,
    DisconnectedGraph,
    FatcobError,
    ForestContainsCycle,
    InvalidMorphism,
    InvariantViolation,
    Mismatch,
    WrongVertexOrder,
)
from fatcob.graphs import FatGraph, new_fat_graph
from fatcob.morphisms import (
    Morphism,
    base_of,
    canonical_form,
    collapse_edges,
    compose,
    find_isomorphism,
    identity_morphism,
    is_isomorphic,
    require_valid,
    validate_morphism,
)
from fatcob.openclosed import OpenClosedFatGraph, cobordism_signature


class TestValidate:
    def test_identity(self):
        ok, why = validate_morphism(identity_morphism(fx.figure4()))
        assert ok, why

    def test_single_collapse_on_figure4(self):
        g = fx.figure4()
        out, m = collapse_edges(g, ["A"])
        assert len(out.vertices) == 1
        assert out.num_edges() == 3
        comp = out.surface_invariants().components[0]
        assert (comp.genus, comp.boundary_count) == (1, 2)
        assert len(out.boundary_cycles()) == len(g.boundary_cycles())

    def test_loop_collapse_invalid(self):
        g = fx.single_loop()
        m = Morphism(g, new_fat_graph(["u"], [], {}, isolated=["u"]),
                     {"u": "u"}, {"a.0": None, "a.1": None})
        ok, why = validate_morphism(m)
        assert not ok
        assert "tree" in why or "loop" in why

    @staticmethod
    def _onto_point(g):
        """Every vertex of ``g`` to one isolated ``u``, every edge
        collapsed."""
        point = new_fat_graph(["u"], [], {}, isolated=["u"])
        return Morphism(g, point, {v: "u" for v in g.vertices},
                        {h: None for h in g.half_edges})

    def test_vertex_without_preimage(self):
        g = new_fat_graph(["u"], [], {}, isolated=["u"])
        two = new_fat_graph(["u", "w"], [], {}, isolated=["u", "w"])
        ok, why = validate_morphism(Morphism(g, two, {"u": "u"}, {}))
        assert (ok, why) == (False, "target vertex w has no preimage")

    def test_preimage_with_a_cycle_is_not_a_tree(self):
        g = new_fat_graph(["a", "b"], [("x", "a", "b"), ("y", "a", "b")],
                          {"a": ["x.0", "y.0"], "b": ["x.1", "y.1"]})
        # the union-find meets the cycle at its second edge
        ok, why = validate_morphism(self._onto_point(g))
        assert (ok, why) == (False, "preimage of u contains a loop at b")

    def test_preimage_loop_witness_is_the_first_edge(self):
        # two loops and one isolated vertex: the edge count is right,
        # and the witness is the loop of the first edge by name
        g = new_fat_graph(["a", "b", "c"], [("M", "b", "b"), ("L", "a", "a")],
                          {"a": ["L.0", "L.1"], "b": ["M.0", "M.1"]},
                          isolated=["c"])
        ok, why = validate_morphism(self._onto_point(g))
        assert (ok, why) == (False, "preimage of u contains a loop at a")

    def test_disconnected_preimage_is_not_a_tree(self):
        # the collapsed edges make a forest of two trees, which the
        # count of vertex images catches
        g = new_fat_graph(["a", "b", "c"], [("x", "a", "b")],
                          {"a": ["x.0"], "b": ["x.1"]}, isolated=["c"])
        ok, why = validate_morphism(self._onto_point(g))
        assert (ok, why) == (False, "vertex preimages are not trees: "
                             "3 vertices, 1 collapsed edges, 1 images")

    def test_decorated_and_bare_graphs_do_not_map(self):
        # the identity maps, in both directions
        oc = fx.pants()
        b = oc.base
        ids = ({v: v for v in b.vertices}, {h: h for h in b.half_edges})
        for src, tgt in ((oc, b), (b, oc)):
            assert validate_morphism(Morphism(src, tgt, *ids)) == \
                (False, "one graph is decorated and the other is not")
            with pytest.raises(InvalidMorphism, match="decorated"):
                require_valid(Morphism(src, tgt, *ids))

    def test_boundary_walk_violation_detected(self):
        # swap the images of two parallel edges at one end only
        g = fx.figure4()
        hmap = {h: h for h in g.half_edges}
        hmap["A.1"], hmap["B.1"] = "B.1", "A.1"
        m = Morphism(g, g, {v: v for v in g.vertices}, hmap)
        ok, why = validate_morphism(m)
        assert not ok


class TestCollapse:
    def test_empty_forest_is_identity(self):
        g = fx.figure4()
        out, m = collapse_edges(g, [])
        assert out == g
        assert m.is_identity()

    def test_loop_rejected(self):
        with pytest.raises(ForestContainsCycle):
            collapse_edges(fx.single_loop(), ["a"])

    def test_cycle_rejected(self):
        with pytest.raises(ForestContainsCycle):
            collapse_edges(fx.figure4(), ["A", "B"])

    def test_pants_arc_collapse_preserves_signature(self):
        oc = fx.pants()
        before = cobordism_signature(oc)
        out, m = collapse_edges(oc, ["r1"])
        after = cobordism_signature(out)
        assert before.source == after.source
        assert before.target == after.target
        assert [(c.genus, c.boundary_count) for c in before.components] == \
            [(c.genus, c.boundary_count) for c in after.components]

    @pytest.mark.parametrize("mk", [fx.pants, fx.flaps, fx.interval,
                                    fx.open_closed_example])
    def test_special_leaf_edge_destroys_decoration(self, mk):
        # the special-leaf check is the one source of DecorationDestroyed;
        # the same edge of the bare graph collapses
        oc = mk()
        edges = sorted({oc.base.edge_of(oc.base.leaf_half(v))
                        for v in oc.special})
        assert edges
        for e in edges:
            with pytest.raises(DecorationDestroyed,
                               match="collapsing %r removes" % e):
                collapse_edges(oc, [e])
            out, m = collapse_edges(oc.base, [e])
            assert out.num_edges() == oc.base.num_edges() - 1

    def test_decoration_destroyed_before_the_target_is_built(
            self, monkeypatch):
        built = []
        derived, validate = FatGraph._derived, OpenClosedFatGraph._validate

        def counted_derived(_, *args):
            built.append("FatGraph")
            return derived(*args)

        def counted_validate(self):
            built.append("OpenClosedFatGraph")
            validate(self)

        oc = fx.pants()
        monkeypatch.setattr(FatGraph, "_derived", classmethod(counted_derived))
        monkeypatch.setattr(OpenClosedFatGraph, "_validate", counted_validate)
        for e in ("L1", "L2", "M"):
            with pytest.raises(DecorationDestroyed) as info:
                collapse_edges(oc, ["r1", e])
            assert str(info.value) == \
                "collapsing %r removes a special leaf" % e
        assert built == []
        collapse_edges(oc, ["r1"])
        assert built == ["FatGraph", "OpenClosedFatGraph"]

    def test_two_steps_equal_one(self):
        g = fx.pants().base
        one, m_one = collapse_edges(g, ["r1", "r2"])
        mid, m1 = collapse_edges(g, ["r1"])
        end, m2 = collapse_edges(mid, ["r2"])
        assert end == one
        both = compose(m2, m1)
        assert both.vertex_map == m_one.vertex_map
        assert both.half_map == m_one.half_map


class TestLocalCollapseCheck:
    """A collapse keeps its survivors' names, so the one morphism check
    reads it in its survivor-name branch; a forged collapse must fail
    there, and again in the renamed branch once it is composed with a
    renaming isomorphism."""

    def test_census_collapses_pass_the_full_scan(self):
        singles, pairs = census_collapse_pairs(3)
        made = singles + [m2 for m2, _ in pairs]
        assert len(singles) == 102 and len(made) > 102
        for m in made:
            assert m._checked
            assert validate_morphism(m) == (True, None)

    @staticmethod
    def renaming(g):
        """An isomorphism from ``g`` onto a copy with every cell
        renamed."""
        iso = find_isomorphism(g, strip_names(g))
        assert not set(iso.half_map.values()) & set(g.base.half_edges)
        return iso

    @classmethod
    def check(cls, forged, match):
        assert validate_morphism(forged)[0] is False
        with pytest.raises(InvalidMorphism, match=match):
            require_valid(forged)
        with pytest.raises(InvalidMorphism, match=match):
            compose(cls.renaming(forged.target), forged)

    def test_fan_out_of_corner_walk_order(self):
        out, m = collapse_edges(fx.pants(), ["r1"])
        b = out.base
        fan = list(b.fan("u1"))
        assert fan == ["L1.1", "a1.0", "r2.0", "M.1", "a1.1"]
        fan[2], fan[3] = fan[3], fan[2]
        sigma = {h: b.next_at_vertex(h) for h in b.half_edges}
        sigma.update(zip(fan, fan[1:] + fan[:1]))
        forged = out.with_base(FatGraph(b.source_map, sigma))
        self.check(Morphism(m.source, forged, m.vertex_map, m.half_map),
                   "boundary walk")

    def test_collapse_edges_runs_the_check(self, monkeypatch):
        # every fan reversed, merged or not: with no forest, only the
        # unmerged fans are wrong.  A reversed fan stays in its fibre,
        # so the target builds and the morphism check refuses it
        real = FatGraph._derived

        def reversed_fans(_, parent, source, sigma, *rest):
            return real(parent, source, {b: a for a, b in sigma.items()},
                        *rest)

        monkeypatch.setattr(FatGraph, "_derived", classmethod(reversed_fans))
        for forest in (["r1"], []):
            with pytest.raises(InvalidMorphism, match="boundary walk"):
                collapse_edges(fx.pants(), forest)

    def test_vertex_image_splits_a_tree(self):
        out, m = collapse_edges(fx.pants(), ["r1"])
        vmap = dict(m.vertex_map, w="u2")
        self.check(Morphism(m.source, out, vmap, m.half_map),
                   "different images")

    def test_surviving_half_edge_mapped_to_none(self):
        # a survivor lost leaves the survivor-name branch
        out, m = collapse_edges(fx.pants(), ["r1"])
        for lost in (["a2.0"], ["a2.0", "a2.1"]):
            hmap = dict(m.half_map, **dict.fromkeys(lost))
            self.check(Morphism(m.source, out, m.vertex_map, hmap),
                       "do not map one-to-one")

    def test_swapped_partners(self):
        # a1 and a2 trade the images of their second halves: still one
        # to one, but partners no longer map to partners
        out, m = collapse_edges(fx.pants(), ["r1"])
        renamed = compose(self.renaming(out), m)
        hmap = dict(renamed.half_map)
        hmap["a1.1"], hmap["a2.1"] = hmap["a2.1"], hmap["a1.1"]
        forged = Morphism(m.source, renamed.target, renamed.vertex_map, hmap)
        assert validate_morphism(forged) == (False, "involution broken at "
                                             "a1.0")
        with pytest.raises(InvalidMorphism, match="involution broken"):
            require_valid(forged)


class TestDerivedTarget:
    """A collapse target is built from its source's tables by
    ``FatGraph._derived``, which walks the fans by the same
    ``FatGraph._validate`` as any graph, and decorated by
    ``OpenClosedFatGraph(...)``; the morphism check covers the rest."""

    def test_census_targets_equal_validated_builds(self):
        singles, pairs = census_collapse_pairs(4)
        targets = [m.target for m in singles + [m2 for m2, _ in pairs]]
        assert len(targets) == 2204
        for t in targets:
            b = t.base
            sigma = {h: b.next_at_vertex(h) for h in b.half_edges}
            ref = FatGraph(b.source_map, sigma, b.isolated_vertices)
            assert OpenClosedFatGraph(ref, t.in_leaves, t.out_leaves,
                                      t.closed) == t
            assert (b.vertices, b.half_edges, b.edges()) == \
                (ref.vertices, ref.half_edges, ref.edges())
            assert [b.fan(v) for v in b.vertices] == \
                [ref.fan(v) for v in ref.vertices]
            assert [b.partner(h) for h in b.half_edges] == \
                [ref.partner(h) for h in ref.half_edges]
            assert b.boundary_cycles() == ref.boundary_cycles()

    # mutants of the maps collapsing r1 of the pants hands to _derived;
    # the merged fan at u1 is L1.1 a1.0 r2.0 M.1 a1.1

    @staticmethod
    def swapped_entry(source, sigma):
        sigma["a1.0"], sigma["M.1"] = sigma["M.1"], sigma["a1.0"]

    @staticmethod
    def wrong_representative(source, sigma):
        source["M.1"] = "w"

    @staticmethod
    def dropped_half(source, sigma):
        del source["r2.0"], sigma["r2.0"]
        sigma["a1.0"] = "M.1"

    @staticmethod
    def leaves_the_fibre(source, sigma):
        sigma["a1.0"] = "a2.0"

    @staticmethod
    def never_returns(source, sigma):
        sigma["a1.1"] = "a1.0"

    @pytest.mark.parametrize("mutant", [
        "swapped_entry", "wrong_representative", "dropped_half",
        "leaves_the_fibre", "never_returns"])
    @pytest.mark.parametrize("decorated", [True, False])
    def test_mutants_are_caught(self, monkeypatch, mutant, decorated):
        real = FatGraph._derived

        def mutated(_, parent, source, sigma, *rest):
            getattr(self, mutant)(source, sigma)
            return real(parent, source, sigma, *rest)

        g = fx.pants() if decorated else fx.pants().base
        out, _ = collapse_edges(g, ["r1"])
        assert base_of(out).fan("u1") == \
            ("L1.1", "a1.0", "r2.0", "M.1", "a1.1")
        monkeypatch.setattr(FatGraph, "_derived", classmethod(mutated))
        # the dropped half leaves its partner without one: refused as
        # FatGraph(...) refuses it, with DanglingHalfEdge
        with pytest.raises((InvalidMorphism, WrongVertexOrder,
                            DanglingHalfEdge)):
            collapse_edges(g, ["r1"])


class TestCompose:
    def test_identity_laws(self):
        g = fx.pants().base
        out, m = collapse_edges(g, ["r1"])
        assert compose(m, identity_morphism(g)).half_map == m.half_map
        assert compose(identity_morphism(out), m).half_map == m.half_map

    def test_mismatch(self):
        g = fx.pants().base
        _, m = collapse_edges(g, ["r1"])
        with pytest.raises(Mismatch):
            compose(m, m)

    def test_associative_on_census(self):
        entries = enumerate_fat_graphs(4)
        checked = 0
        for e in entries:
            for f1 in forests(e.graph)[1:4]:
                g1, m1 = collapse_edges(e.graph, f1)
                for f2 in forests(g1)[1:3]:
                    g2, m2 = collapse_edges(g1, f2)
                    for f3 in forests(g2)[1:3]:
                        _, m3 = collapse_edges(g2, f3)
                        left = compose(m3, compose(m2, m1))
                        right = compose(compose(m3, m2), m1)
                        assert left.half_map == right.half_map
                        assert left.vertex_map == right.vertex_map
                        checked += 1
        assert checked > 20


def _rotation_orbit_count(n):
    """One-vertex classes, counted by brute-force rotation orbits.

    Two pairings of the slots of one 2n-valent vertex give isomorphic
    fat graphs exactly when a rotation of the slots carries one to the
    other, so the class count is the number of rotation orbits."""
    from fatcob.census import _involutions
    n2 = 2 * n
    orbits = set()
    for m in _involutions(n2):
        frames = []
        for r in range(n2):
            frames.append(tuple((m[(i - r) % n2] + r) % n2
                                for i in range(n2)))
        orbits.add(min(frames))
    return len(orbits)


class TestMorphismInvariants:
    def test_collapses_preserve_surface_data(self):
        for e in enumerate_fat_graphs(3):
            g = e.graph
            before = sorted((c.genus, c.boundary_count)
                            for c in g.surface_invariants().components)
            for f in forests(g)[1:]:
                out, m = collapse_edges(g, f)
                ok, why = validate_morphism(m)
                assert ok, why
                after = sorted((c.genus, c.boundary_count)
                               for c in out.surface_invariants().components)
                assert before == after


@pytest.fixture(scope="module")
def relabel_cases():
    """``(graph, canonical form)`` pairs: first a graph with 530
    half-edges, whose codes take two bytes per entry, then fixtures, a
    disconnected graph and the census through 3 edges."""
    graphs = [fx.subdivided_incoming(fx.pants(), 130).base,
              fx.figure4(), fx.two_loops_planar(), fx.mouthpiece().base,
              fx.oc_disjoint_union(fx.pants(), fx.cylinder()).base]
    graphs += [e.graph for e in enumerate_fat_graphs(3)]
    assert len(graphs) == 32
    return [(g, canonical_form(g)) for g in graphs]


class TestCanonicalForm:
    @settings(max_examples=60, deadline=None)
    @example(which=0, rng=random.Random(0))
    @given(which=st.integers(0, 31), rng=st.randoms(use_true_random=False))
    def test_relabel_invariance_property(self, relabel_cases, which, rng):
        g, want = relabel_cases[which]
        assert canonical_form(random_relabel(g, rng)) == want

    def test_relabel_invariance_fixtures(self):
        rng = random.Random(20240811)
        for g in (fx.figure4(), fx.single_loop(), fx.two_loops_torus(),
                  fx.pants().base, fx.open_closed_example().base):
            want = canonical_form(g)
            for _ in range(200):
                assert canonical_form(random_relabel(g, rng)) == want

    def test_decorated_relabel_invariance(self):
        rng = random.Random(99)
        for oc in (fx.cylinder(), fx.pants(), fx.open_closed_example()):
            want = canonical_form(oc)
            for _ in range(200):
                assert canonical_form(random_relabel(oc, rng)) == want

    def test_loop_vs_segment(self):
        seg = new_fat_graph(["u", "v"], [("e", "u", "v")],
                            {"u": ["e.0"], "v": ["e.1"]})
        assert canonical_form(fx.single_loop()) != canonical_form(seg)

    def test_two_fat_structures_differ(self):
        assert canonical_form(fx.two_loops_torus()) != \
            canonical_form(fx.two_loops_planar())

    def test_decoration_changes_form(self):
        # the cylinder has an automorphism exchanging its two ends, so
        # swapping in and out there changes nothing; the pants input
        # order, however, cannot be swapped by any automorphism
        oc = fx.cylinder()
        swapped = type(oc)(oc.base, ["q"], ["p"], {"p", "q"})
        assert canonical_form(oc) == canonical_form(swapped)
        p = fx.pants()
        reordered = p.reorder_inputs(("p2", "p1"))
        assert canonical_form(p) != canonical_form(reordered)

    def test_is_isomorphic_mirrors_examples(self):
        rng = random.Random(5)
        g = fx.figure4()
        assert is_isomorphic(g, random_relabel(g, rng))
        assert not is_isomorphic(fx.single_loop(), fx.figure4())
        assert not is_isomorphic(fx.two_loops_torus(), fx.two_loops_planar())

    def test_find_isomorphism_validates(self):
        rng = random.Random(17)
        g = fx.pants().base
        h = random_relabel(g, rng)
        iso = find_isomorphism(g, h)
        ok, why = validate_morphism(iso)
        assert ok, why
        assert find_isomorphism(g, fx.figure4()) is None


def _plane_forest(edges, n_vertices=None):
    """Fat graph on vertices ``t000..`` (a tree's ``len(edges) + 1`` by
    default) from ``(a, b)`` index pairs; each vertex orders its
    half-edges by edge index."""
    if n_vertices is None:
        n_vertices = len(edges) + 1
    names = ["t%03d" % i for i in range(n_vertices)]
    orders = {v: [] for v in names}
    triples = []
    for i, (a, b) in enumerate(edges):
        triples.append(("x%03d" % i, names[a], names[b]))
        orders[names[a]].append("x%03d.0" % i)
        orders[names[b]].append("x%03d.1" % i)
    return new_fat_graph(names, triples, orders)


class TestLargeGraphs:
    """Canonical codes above 255 half-edges use wider entries."""

    EDGES = 130

    def path(self):
        return _plane_forest([(i, i + 1) for i in range(self.EDGES)])

    def test_path_relabel_invariance(self):
        rng = random.Random(130)
        g = self.path()
        want = canonical_form(g)
        for _ in range(3):
            assert canonical_form(random_relabel(g, rng)) == want

    def test_path_isomorphism_is_valid(self):
        g = self.path()
        h = random_relabel(g, random.Random(7))
        m = find_isomorphism(g, h)
        assert m is not None
        ok, why = validate_morphism(m)
        assert ok, why

    def test_path_and_other_tree_differ(self):
        # a path of 129 edges with one more edge hanging off vertex 1
        other = _plane_forest([(i, i + 1) for i in range(self.EDGES - 1)]
                      + [(1, self.EDGES)])
        assert not is_isomorphic(self.path(), other)
        assert find_isomorphism(self.path(), other) is None

    def test_code_longer_than_64_kib(self):
        g = _plane_forest([(i, i + 1) for i in range(11000)])
        want = canonical_form(g)
        assert len(want) > 0x10000
        assert canonical_form(random_relabel(g, random.Random(3))) == want

    def test_leaf_indices_above_255(self):
        # 300 decorated intervals: every component is small, but the
        # In/Out indices of the leaves run past 255
        from fatcob.openclosed import OpenClosedFatGraph
        g = _plane_forest([(2 * i, 2 * i + 1) for i in range(300)], 600)
        names = sorted(g.vertices)
        ins, outs = names[0::2], names[1::2]
        want = canonical_form(OpenClosedFatGraph(g, ins, outs))
        h = random_relabel(g, random.Random(300))
        iso = find_isomorphism(g, h)
        relabeled = OpenClosedFatGraph(h, [iso.vertex_map[v] for v in ins],
                                       [iso.vertex_map[v] for v in outs])
        assert canonical_form(relabeled) == want
        swapped = outs[:]
        swapped[0], swapped[299] = swapped[299], swapped[0]
        assert canonical_form(OpenClosedFatGraph(g, ins, swapped)) != want

    def test_decorated_path_relabel_invariance(self):
        from fatcob.openclosed import OpenClosedFatGraph
        g = self.path()
        ends = ("t000", "t%03d" % self.EDGES)
        want = canonical_form(OpenClosedFatGraph(g, ends[:1], ends[1:]))
        h = random_relabel(g, random.Random(11))
        iso = find_isomorphism(g, h)
        relabeled = OpenClosedFatGraph(h, [iso.vertex_map[ends[0]]],
                                       [iso.vertex_map[ends[1]]])
        assert canonical_form(relabeled) == want
        assert canonical_form(g) != want


class TestCensus:
    def test_one_vertex_pairing_counts(self):
        for n, total, dist in ((1, 1, {0: 1}), (2, 3, {0: 2, 1: 1}),
                               (3, 15, {0: 5, 1: 10})):
            entries = enumerate_fat_graphs(n, one_vertex=True,
                                           exact_edges=True)
            assert sum(e.n_pairings for e in entries) == total
            assert genus_distribution(entries) == dist
            assert len(entries) == _rotation_orbit_count(n)

    def test_census_matches_band_oracle(self):
        from band_oracle import band_surface_invariants
        for e in enumerate_fat_graphs(4):
            assert band_surface_invariants(e.graph) == \
                [(e.genus, e.boundary_count, e.euler_characteristic)]

    def test_rooted_count_recursion(self):
        # labeled pairs: any permutation of 2n half-edge slots against
        # the fixed pairing; connected count by block decomposition;
        # rooting divides by the pairing symmetries
        def labeled(n):
            return factorial(2 * n)

        conn = {}

        def connected(n):
            if n not in conn:
                total = labeled(n)
                for k in range(1, n):
                    total -= comb(n - 1, k - 1) * connected(k) * labeled(n - k)
                conn[n] = total
            return conn[n]

        for n in range(1, 6):
            rooted = connected(n) * 2 * n // (2 ** n * factorial(n))
            entries = enumerate_fat_graphs(n, exact_edges=True)
            assert sum(2 * n // e.aut_size for e in entries) == rooted

    def test_classes_distinct_and_deterministic(self):
        entries = enumerate_fat_graphs(3)
        canons = [e.canon for e in entries]
        assert len(set(canons)) == len(canons)
        assert entries == enumerate_fat_graphs(3)
        for e in entries:
            assert canonical_form(e.graph) is not None

    def test_min_valence_filter(self):
        entries = enumerate_fat_graphs(3, min_valence=3)
        assert all(min(e.graph.valence(v) for v in e.graph.vertices) >= 3
                   for e in entries)
        assert entries

    def test_genus_filter(self):
        entries = enumerate_fat_graphs(3, genus=1)
        assert {e.genus for e in entries} == {1}

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            enumerate_fat_graphs(9)
        with pytest.raises(BoundExceeded):
            enumerate_fat_graphs(-1)

    def test_zero_edges(self):
        assert enumerate_fat_graphs(0) == []

    def test_cobordism_filter(self):
        from fatcob.openclosed import cobordism_signature
        want = cobordism_signature(fx.flaps())
        entries = enumerate_fat_graphs(3, cobordism=want)
        assert entries
        for e in entries:
            sig = cobordism_signature(e.graph)
            assert sig.source == ("interval", "interval")
            assert sig.target == ("interval",)
        # the flaps fixture itself is among the decorated classes
        flaps_canon = canonical_form(fx.flaps())
        assert any(canonical_form(e.graph) == flaps_canon for e in entries)

    def test_surface_filter(self):
        want = fx.two_loops_torus().surface_invariants()
        entries = enumerate_fat_graphs(3, surface=want)
        assert entries
        assert all((e.genus, e.boundary_count) == (1, 1) for e in entries)


def _reference_relabel(sigma, inv, n, h0):
    """Code and new labels of the relabelling from ``h0``, straight from
    the definition: label each fan as it is reached, partners
    first-in-first-out.  The code is ``None`` when some half-edge is
    not reached."""
    from fatcob._canon import encode
    nl = [-1] * n
    order, valences = [], []
    queue = [h0]
    while queue:
        h = queue.pop(0)
        if nl[h] >= 0:
            continue
        fan = [h]
        while sigma[fan[-1]] != h:
            fan.append(sigma[fan[-1]])
        for f in fan:
            nl[f] = len(order)
            order.append(f)
            queue.append(inv[f])
        valences.append(len(fan))
    if len(order) != n:
        return None, nl
    code = encode([len(valences)] + valences + [nl[inv[o]] for o in order],
                  n)
    return code, nl


def _reference_min_code(sigma, inv, n):
    """``(code, winners)`` by trying every start: the minimal code, and
    each start reaching it with its new labels, in start order."""
    relabels = [_reference_relabel(sigma, inv, n, h0) for h0 in range(n)]
    best = min(code for code, _ in relabels)
    return best, [(h0, nl) for h0, (code, nl) in enumerate(relabels)
                  if code == best]


@pytest.fixture
def closed_form_calls(monkeypatch):
    """The arguments of every call of the kernel's one-fan closed form."""
    from fatcob import _canon
    calls = []
    real = _canon._one_fan

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_canon, "_one_fan", spy)
    return calls


class TestPrunedKernel:
    """The kernel tries only minimum-valence starts and drops a start
    once it loses; it must agree with trying every start in full."""

    @staticmethod
    def _census_cases():
        from fatcob.census import _involutions, _partitions, \
            _sigma_of_partition
        for n in (1, 2, 3, 4):
            pairings = _involutions(2 * n)
            for parts in _partitions(2 * n, 2 * n, 1):
                yield _sigma_of_partition(parts), pairings, 2 * n
        yield _sigma_of_partition((10,)), _involutions(10), 10

    def test_census_code_and_min_code_match_all_starts(self):
        # the winner starts are exactly the starts reaching the minimum,
        # each with the labels of its own relabelling
        from fatcob import _canon
        connected = 0
        for sigma, pairings, n2 in self._census_cases():
            # as in the census: the starts once per partition
            starts = _canon.min_valence_starts(sigma, n2)
            for m in pairings:
                want, _ = _reference_relabel(sigma, m, n2, 0)
                if want is None:
                    with pytest.raises(ValueError):
                        _canon.min_code(sigma, m, n2)
                else:
                    want = _reference_min_code(sigma, m, n2)
                    assert _canon.min_code(sigma, m, n2) == want, m
                    want = want[0], len(want[1])
                    connected += 1
                assert _canon.census_code(sigma, m, n2, starts) == want, m
        assert connected > 2000

    @staticmethod
    def _renumbered(sigma, inv, rng):
        """``sigma`` and ``inv`` under a random renumbering of the
        half-edges, so that a fan is no longer a range of indices."""
        new = list(range(len(sigma)))
        rng.shuffle(new)
        sigma2, inv2 = [0] * len(new), [0] * len(new)
        for h, t in enumerate(new):
            sigma2[t] = new[sigma[h]]
            inv2[t] = new[inv[h]]
        return sigma2, inv2

    def test_renumbered_graphs_match_all_starts(self, closed_form_calls):
        # one-vertex graphs take the closed form; regular multi-vertex
        # graphs, where every half-edge is a start too, must not
        from fatcob import _canon
        from fatcob.census import _involutions, _partitions, \
            _sigma_of_partition
        rng = random.Random(2201)
        one_vertex = [(2 * k,) for k in range(1, 6)]
        regular = [parts for k in range(1, 6)
                   for parts in _partitions(2 * k, 2 * k, 1)
                   if len(parts) > 1 and len(set(parts)) == 1]
        for shapes, closed_form in ((one_vertex, True), (regular, False)):
            calls = connected = 0
            for parts in shapes:
                n2 = sum(parts)
                for m in _involutions(n2):
                    sigma, inv = self._renumbered(
                        _sigma_of_partition(parts), m, rng)
                    starts = _canon.min_valence_starts(sigma, n2)
                    assert len(starts) == n2
                    want, _ = _reference_relabel(sigma, inv, n2, 0)
                    if want is None:
                        with pytest.raises(DisconnectedGraph):
                            _canon.min_code(sigma, inv, n2)
                        assert _canon.census_code(sigma, inv, n2,
                                                  starts) is None
                    else:
                        want = _reference_min_code(sigma, inv, n2)
                        assert _canon.min_code(sigma, inv, n2) == want, m
                        assert _canon.census_code(sigma, inv, n2, starts) \
                            == (want[0], len(want[1])), m
                        connected += 1
                    calls += 2
            assert len(closed_form_calls) == (calls if closed_form else 0)
            assert connected > 300
            closed_form_calls.clear()

    def test_closed_form_matches_the_search_on_one_vertex_pairings(self):
        from fatcob import _canon
        from fatcob.census import _involutions, _sigma_of_partition
        checked = 0
        for k in range(1, 7):
            n2 = 2 * k
            sigma = _sigma_of_partition((n2,))
            starts = _canon.min_valence_starts(sigma, n2)
            fan = _canon._fan(sigma, starts[0])
            for m in _involutions(n2):
                assert _canon._one_fan(m, n2, fan, starts) == \
                    _canon._bfs(sigma, m, n2, starts), m
                checked += 1
        assert checked == 11464

    @pytest.mark.parametrize("n, closed_form", [(254, True), (256, False)])
    def test_all_diameters_at_the_wide_code_boundary(self, n, closed_form,
                                                     closed_form_calls):
        # slot j paired with slot j + n/2: every rotation is an
        # automorphism.  Below 256 half-edges the one-byte closed form
        # answers; at 256 the wide one does, with two-byte entries
        from fatcob import _canon
        from fatcob.census import _build_graph, _sigma_of_partition
        sigma = _sigma_of_partition((n,))
        inv = [(j + n // 2) % n for j in range(n)]
        code, winners = _canon.min_code(sigma, inv, n)
        assert len(closed_form_calls) == int(closed_form)
        # from every start the relabelled partners are inv itself
        entries = [1, n] + inv
        if n < 256:
            assert code == bytes(entries)
        else:
            assert code == b"\x00\x02" + b"".join(
                v.to_bytes(2, "big") for v in entries)
        assert len(winners) == n
        assert (code, winners) == _reference_min_code(sigma, inv, n)
        g = _build_graph((n,), inv)
        assert canonical_form(random_relabel(g, random.Random(n))) == \
            canonical_form(g)

    @pytest.mark.parametrize("n", [256, 300])
    def test_wide_closed_form_matches_the_search(self, n, monkeypatch):
        # code and every winner's labelling, on seeded random pairings
        # (half of them renumbered) and on pairings with symmetries
        from fatcob import _canon
        from fatcob.census import _sigma_of_partition
        calls = []
        real = _canon._one_fan_wide
        monkeypatch.setattr(_canon, "_one_fan_wide",
                            lambda *args: calls.append(n) or real(*args))
        rng = random.Random(n)
        sigma = _sigma_of_partition((n,))
        cases = [[(j + n // 2) % n for j in range(n)],
                 [j ^ 1 for j in range(n)], [j ^ 2 for j in range(n)]]
        for _ in range(12):
            slots = rng.sample(range(n), n)
            inv = [0] * n
            for a, b in zip(slots[::2], slots[1::2]):
                inv[a], inv[b] = b, a
            cases.append(inv)
        for k, inv in enumerate(cases):
            s, m = (self._renumbered(sigma, inv, rng) if k % 2
                    else (sigma, inv))
            starts = _canon.min_valence_starts(s, n)
            want = _canon._bfs(s, m, n, starts)
            assert _canon.min_code(s, m, n) == want, k
        assert calls == [n] * len(cases)

    def test_disconnected_graph_raises_a_fatcob_error(self):
        from fatcob import _canon
        # two one-loop vertices
        with pytest.raises(DisconnectedGraph) as info:
            _canon.min_code([1, 0, 3, 2], [1, 0, 3, 2], 4)
        assert isinstance(info.value, FatcobError)
        assert isinstance(info.value, ValueError)

    def test_components_are_scanned_only_when_needed(self, monkeypatch):
        # a graph with no isolated vertex is run whole; its components
        # are found only once the kernel reports it disconnected
        from fatcob.graphs import disjoint_union
        scanned = []
        real = FatGraph.connected_components
        monkeypatch.setattr(FatGraph, "connected_components",
                            lambda g: scanned.append(g) or real(g))
        one = fx.figure4()
        two = disjoint_union(fx.single_loop(), fx.figure4())
        swapped = disjoint_union(fx.figure4(), fx.single_loop())
        dot = new_fat_graph(["u", "v"], [("a", "u", "u")],
                            {"u": ["a.0", "a.1"]}, isolated=["v"])
        for g, runs in ((one, 1), (two, 2), (swapped, 2), (dot, 2)):
            canonical_form(g)
            assert len(g._runs) == runs
        assert scanned == [two, swapped, dot]
        assert canonical_form(two) == canonical_form(swapped)
        assert dot._runs[1] is None

    def test_decorated_canonical_forms_match_all_starts(self):
        decorated = admissible_census_decorations(3)
        assert len(decorated) > 100
        for oc in decorated:
            assert canonical_form(oc) == _reference_canonical_form(oc)

    def test_winners_are_the_automorphisms(self):
        # mapping each winner's labels onto the first winner's is an
        # automorphism, and the winners give each automorphism once
        from fatcob import _canon
        from fatcob.morphisms import _dense
        entries = enumerate_fat_graphs(5)
        assert len(entries) == 1004
        for e in entries:
            g = e.graph
            hs = sorted(g.half_edges)
            idx, sigma, inv = _dense(g, hs)
            code, winners = _canon.min_code(sigma, inv, len(hs))
            assert code == e.canon
            back = dict(zip(winners[0][1], hs))
            maps = set()
            for _, nl in winners:
                hmap = {h: back[nl[idx[h]]] for h in hs}
                vmap = {g.source(h): g.source(hmap[h]) for h in hs}
                ok, why = validate_morphism(Morphism(g, g, vmap, hmap))
                assert ok, (e.witness, why)
                maps.add(tuple(sorted(hmap.items())))
            assert len(winners) == len(maps) == e.aut_size, e.witness


def _reference_canonical_form(g):
    """``canonical_form`` of a decorated graph, trying every start."""
    from fatcob.morphisms import _decoration_entries, _dense, _special_leaves
    special = _special_leaves(g)
    codes = []
    for _, hs in g.base.connected_components():
        if not hs:
            codes.append(b"\x00|")
            continue
        idx, sigma, inv = _dense(g.base, hs)
        cands = []
        for h0 in range(len(hs)):
            code, nl = _reference_relabel(sigma, inv, len(hs), h0)
            cands.append(code + b"|" + b"".join(
                bytes([kind, gi, nl[idx[h]], fl])
                for kind, gi, h, fl in _decoration_entries(g, hs, special)))
        codes.append(min(cands))
    return b"".join(len(c).to_bytes(2, "big") + c for c in sorted(codes))


def _all_starts_component_codes(g):
    """``morphisms._component_codes`` of a decorated graph by its former
    loop: relabel in full from every minimum-valence start and keep the
    smallest code with decorations, the first start taking a tie."""
    from fatcob import _canon
    from fatcob.morphisms import _decoration_entries, _dense, _special_leaves
    out = []
    for _, hs in g.base.connected_components():
        if not hs:
            out.append((b"\x00|", {}))
            continue
        idx, sigma, inv = _dense(g.base, hs)
        n = len(hs)
        entries = _decoration_entries(g, hs, _special_leaves(g))
        top = max([n - 1] + [gi for _, gi, _, _ in entries])
        best = None
        for h0 in _canon.min_valence_starts(sigma, n):
            code, nl = _reference_relabel(sigma, inv, n, h0)
            dec = _canon.encode(
                [x for kind, gi, h, fl in entries
                 for x in (kind, gi, nl[idx[h]], fl)], top)
            cand = code + b"|" + dec
            if best is None or cand < best[0]:
                best = (cand, {h: nl[idx[h]] for h in hs})
        out.append(best)
    return out


class TestDecoratedCodes:
    """Decorations are compared only at the kernel's winning starts; the
    codes and relabellings must be those of trying every start.  Equal
    component codes give equal ``canonical_form`` bytes."""

    @staticmethod
    def check(g):
        from fatcob.morphisms import _component_codes
        assert [(code, dict(zip(hs, labels)))
                for code, hs, labels in _component_codes(g)] == \
            _all_starts_component_codes(g)

    def test_census_decorations(self):
        decorated = admissible_census_decorations(4)
        assert len(decorated) == 688
        for oc in decorated:
            self.check(oc)

    def test_glued_pants(self):
        from fatcob.gluing import glue, subdivision_match
        for other, pairs in ((fx.pants(), [(0, 0)]), (fx.pants(), [(0, 1)]),
                             (fx.cylinder(), None)):
            g1, g2, match = subdivision_match(fx.pants(), other, pairs)
            for g in (g1, g2, glue(g1, g2, match)):
                self.check(g)

    def test_wide_codes(self):
        # a 260-half-edge path, and 300 intervals whose leaf indices run
        # past 255
        path = TestLargeGraphs().path()
        ends = ("t000", "t%03d" % TestLargeGraphs.EDGES)
        self.check(OpenClosedFatGraph(path, ends[:1], ends[1:]))
        g = _plane_forest([(2 * i, 2 * i + 1) for i in range(300)], 600)
        names = sorted(g.vertices)
        self.check(OpenClosedFatGraph(g, names[0::2], names[1::2]))


class TestCensusChecks:
    def test_orbit_stabilizer_check_survives_optimize(self):
        script = (
            "import fatcob._canon as k\n"
            "from fatcob.census import enumerate_fat_graphs\n"
            "from fatcob.errors import InvariantViolation\n"
            "assert False, 'asserts are on'\n"
            "real = k.census_code\n"
            "def wrong(*a):\n"
            "    found = real(*a)\n"
            "    return found and (found[0], found[1] + 1)\n"
            "k.census_code = wrong\n"
            "try:\n"
            "    enumerate_fat_graphs(2)\n"
            "except InvariantViolation as exc:\n"
            "    print('raised', exc)\n")
        out = run_optimized(script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("raised census bookkeeping broken")

    def test_decorate_bug_propagates(self, monkeypatch):
        # a role assignment that decorate would refuse is skipped
        # before it is built, so a bug or an internal fault of decorate
        # reaches the caller as itself
        from fatcob import openclosed
        from fatcob.census import admissible_decorations

        for cls in (RuntimeError, InvariantViolation):
            def broken(*args, **kwargs):
                raise cls("bug in decorate")

            monkeypatch.setattr(openclosed, "decorate", broken)
            with pytest.raises(cls, match="bug in decorate"):
                admissible_decorations(fx.flaps().base)

    def test_collapse_decoration_bug_propagates(self, monkeypatch):
        # the special-leaf check alone raises DecorationDestroyed; a bug
        # or an internal fault in building the collapsed decoration
        # reaches the caller as itself
        g = fx.pants()
        for cls in (RuntimeError, InvariantViolation):
            def broken(*args):
                raise cls("bug in the decorated build")

            monkeypatch.setattr(OpenClosedFatGraph, "_validate", broken)
            with pytest.raises(cls, match="bug in the decorated build"):
                collapse_edges(g, ["r1"])
