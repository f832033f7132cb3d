import re

import pytest

from corpus import cap, composed_signature_oracle, composition_cases, \
    fuzz_compositions, glued_component_data, strip_names
from fatcob import fixtures as fx
from fatcob.errors import (
    DanglingHalfEdge,
    EdgeCountMismatch,
    InvalidMatch,
    InvariantViolation,
    NotGluable,
    NotGluablePairMorphism,
    ResultInvalid,
    SignatureMismatch,
)
from fatcob.fgformat import serialize
from fatcob.graphs import FatGraph, new_fat_graph
from fatcob.gluing import gluable, glue, glue_morphisms, subdivision_match
from fatcob.homology import gluing_det_iso, relative_chain_complex
from fatcob.morphisms import (
    canonical_form,
    collapse_edges,
    identity_morphism,
    is_isomorphic,
    validate_morphism,
)
from fatcob.openclosed import (
    OpenClosedFatGraph,
    cobordism_signature,
    decorate,
    is_admissible,
)


class TestGluable:
    def test_cylinder_match(self):
        m = gluable(fx.cylinder(), fx.cylinder())
        assert len(m.pairs) == 1
        assert m.pairs[0].k == 1

    def test_edge_count_mismatch(self):
        big = fx.subdivided_incoming(fx.cylinder(), 2)
        with pytest.raises(EdgeCountMismatch) as info:
            gluable(fx.cylinder(), big)
        assert (info.value.pair_index, info.value.k_out, info.value.k_in) \
            == (0, 1, 2)

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch, match=re.escape(
                "outgoing ['circle'] does not match incoming "
                "['circle', 'circle']")):
            gluable(fx.cylinder(), fx.pants())
        with pytest.raises(SignatureMismatch, match=re.escape(
                "outgoing ['interval'] does not match incoming "
                "['circle']")):
            gluable(fx.interval(), fx.cylinder())

    def test_not_gluable_is_the_family_of_gluability_failures(self):
        for second, cls in ((fx.pants, SignatureMismatch),
                            (fx.cylinder, EdgeCountMismatch)):
            with pytest.raises(NotGluable) as info:
                gluable(fx.pants(), second())
            assert type(info.value) is cls
        assert issubclass(NotGluablePairMorphism, NotGluable)

    @pytest.mark.parametrize("match", [gluable, subdivision_match])
    @pytest.mark.parametrize("pairs", [
        [(0, 0), (-1, 1)],      # -1 would be the one outgoing leaf again
        [(-1, -1)],             # would glue the last slots
        [("0", 0)],
        [(0.0, 0)],
        [(False, 0)],
        [(0,)],
        [(0, 1, 2)],
        [5],
    ])
    def test_pairs_that_are_not_slot_indices_in_range(self, match, pairs):
        with pytest.raises(InvalidMatch, match=r"^pair \d+ "):
            match(fx.cylinder(), fx.pants(), pairs)

    def test_pants_cylinder_counts_agree_after_matching(self):
        a, b, m = subdivision_match(fx.pants(), fx.cylinder())
        assert m.pairs[0].k == 6

    def test_identification_recorded(self):
        c = fx.cylinder()
        m = gluable(c, c)
        pair = m.pairs[0]
        assert pair.identified_halves(c) == (("a.0", "a.0"),)
        g1, g2, m2 = subdivision_match(
            fx.subdivided_incoming(c, 2), fx.subdivided_incoming(c, 2))
        pair = m2.pairs[0]
        ids = pair.identified_halves(g1)
        assert len(ids) == 2
        # every circle edge of the incoming side is identified against
        # a reversed circle edge of the outgoing cycle, each used once
        assert sorted(b for b, _ in ids) == sorted(pair.b_halves)
        a_edges = {g1.base.edge_of(h) for h in pair.a_halves}
        assert {g1.base.edge_of(a) for _, a in ids} == a_edges


class TestSubdivisionMatch:
    def test_one_subdivision(self):
        big = fx.subdivided_incoming(fx.cylinder(), 2)
        a, b, m = subdivision_match(fx.cylinder(), big)
        assert m.pairs[0].k == 2
        assert a.base.num_edges() == 4

    def test_already_matching_is_identity(self):
        a, b, m = subdivision_match(fx.cylinder(), fx.cylinder())
        assert a == fx.cylinder()
        assert b == fx.cylinder()

    def test_two_against_three(self):
        g1 = fx.subdivided_incoming(fx.cylinder(), 2)
        g2 = fx.subdivided_incoming(fx.cylinder(), 3)
        # out cycle of g1 has 2 circle edges, in circle of g2 has 3
        a, b, m = subdivision_match(g1, g2)
        assert m.pairs[0].k == 3
        assert gluable(a, b).pairs[0].k == 3

    def test_circle_against_interval_is_refused_first(self):
        # the outgoing circle would grow by two per step against the
        # interval's cycle of odd size, so matching sizes never ends
        with pytest.raises(SignatureMismatch):
            subdivision_match(fx.pants(), fx.open_closed_example(), [(0, 1)])
        with pytest.raises(InvalidMatch):
            subdivision_match(fx.pants(), fx.cylinder(), [(0, 1)])

    def test_odd_gap_between_circles_growing_by_two_is_refused(self):
        # the pants' outgoing circle grows by two per step at r1, and
        # with a1 split it has 7 edges; the bare leaf edge of the
        # inadmissible disk also grows by two, so no size fits both
        base, _ = fx.pants().base.subdivide_edge("a1")
        g1 = fx.pants().with_base(base)
        assert len(g1.circle_edges("q")) == 7
        with pytest.raises(EdgeCountMismatch):
            subdivision_match(g1, fx.disk_closed_in(), [(0, 0)])

    def test_circles_growing_each_other_in_turn_are_refused(self):
        # a loop at c with the leaf p on one side and q on the other, so
        # a step on either circle also grows the other; on g1 a tail on
        # q's side makes q grow by two, alone.  The gaps (p, q) run
        # (0, 2), (-1, 1), (0, 2), ... and never reach (0, 0).
        def two_sided(tail):
            vs = ["c", "p", "q"] + ["r"] * tail
            es = [("a", "c", "c"), ("l", "c", "p"), ("m", "c", "q")] \
                + [("t", "c", "r")] * tail
            orders = {"c": ["a.0", "l.0", "a.1", "m.0"] + ["t.0"] * tail,
                      "p": ["l.1"], "q": ["m.1"]}
            if tail:
                orders["r"] = ["t.1"]
            return new_fat_graph(vs, es, orders)

        g1 = decorate(two_sided(1), [], ["p", "q"], ["p", "q"])
        g2 = decorate(two_sided(0), ["p", "q"], [], ["p", "q"])
        assert [len(g.circle_edges(v)) for g in (g1, g2) for v in "pq"] \
            == [1, 3, 1, 1]
        with pytest.raises(EdgeCountMismatch):
            subdivision_match(g1, g2)

    def test_subdivision_policy_is_immaterial(self):
        # growing the deficient cycle at its last edge instead of its
        # first must give an isomorphic composite
        for g1, g2, pairs in (
                (fx.pants(), fx.cylinder(), [(0, 0)]),
                (fx.subdivided_incoming(fx.cylinder(), 2),
                 fx.subdivided_incoming(fx.cylinder(), 3), [(0, 0)]),
                (fx.pants(), fx.pants(), [(0, 1)]),
                (fx.pants(), fx.open_closed_example(), [(0, 0)])):
            a1, b1, m1 = subdivision_match(g1, g2, pairs)
            a2, b2, m2 = reference_subdivision_match(g1, g2, pairs,
                                                     at=-1)
            assert is_isomorphic(glue(a1, b1, m1), glue(a2, b2, m2))


def reference_subdivision_match(g1, g2, pairs, at=0):
    """The subdivision loop as it ran on decorated graphs, decorating
    after every step; ``pairs`` must be given.  Each step splits the
    circle edge at position ``at`` of the smaller cycle."""
    while True:
        deficit = None
        for oi, ii in pairs:
            v_out = g1.out_leaves[oi]
            v_in = g2.in_leaves[ii]
            if v_out not in g1.closed:
                continue
            a = g1.leaf_cycle_normal_form(v_out)[2:]
            b = g2.leaf_cycle_normal_form(v_in)[2:]
            if len(a) != len(b):
                deficit = (oi, ii, a, b)
                break
        if deficit is None:
            return g1, g2, gluable(g1, g2, pairs)
        oi, ii, a, b = deficit
        if len(a) < len(b):
            edge = g1.base.edge_of(a[at]) if a else \
                g1.base.edge_of(g1.base.leaf_half(g1.out_leaves[oi]))
            new_base, _ = g1.base.subdivide_edge(edge)
            g1 = g1.with_base(new_base)
        else:
            edge = g2.base.edge_of(b[at])
            new_base, _ = g2.base.subdivide_edge(edge)
            g2 = g2.with_base(new_base)


class TestSubdivisionReference:
    CASES = (
        # g2 deficient
        (fx.pants, fx.cylinder, [(0, 0)]),
        (fx.pants, fx.pants, [(0, 1)]),
        # g1 deficient
        (fx.cylinder, lambda: fx.subdivided_incoming(fx.cylinder(), 3),
         [(0, 0)]),
        # no circle edge on the outgoing cycle: the leaf edge is split
        (cap, fx.cylinder, [(0, 0)]),
        (cap, fx.pants, [(0, 1)]),
        (cap, lambda: fx.subdivided_incoming(fx.cylinder(), 5), [(0, 0)]),
        # two and three matched pairs, deficient on both sides
        (lambda: fx.oc_disjoint_union(fx.cylinder(), fx.pants()),
         fx.pants, [(0, 0), (1, 1)]),
        (lambda: fx.oc_disjoint_union(fx.pants(), fx.cylinder()),
         lambda: fx.subdivided_incoming(fx.pants(), 3), [(1, 0), (0, 1)]),
        (lambda: fx.oc_disjoint_union(
            fx.oc_disjoint_union(cap(), fx.pants()), fx.cylinder()),
         lambda: fx.oc_disjoint_union(fx.pants(), fx.cylinder()),
         [(0, 2), (1, 0), (2, 1)]),
        (lambda: fx.oc_disjoint_union(fx.torus_with_out(), fx.cylinder()),
         fx.pants, [(0, 0), (1, 1)]),
        # the pants' outgoing circle starts at r1, whose two halves both
        # lie on it: each step there adds two edges, so at odd k the
        # other side grows once more
        (fx.pants, lambda: fx.subdivided_incoming(fx.pants(), 9), [(0, 0)]),
        (fx.pants, lambda: fx.subdivided_incoming(fx.pants(), 12), [(0, 0)]),
    )

    def test_matches_the_decorated_loop(self):
        grew = set()
        for mk1, mk2, pairs in self.CASES:
            g1, g2 = mk1(), mk2()
            a, b, m = subdivision_match(g1, g2, pairs)
            ra, rb, rm = reference_subdivision_match(g1, g2, pairs)
            assert serialize(a) == serialize(ra)
            assert serialize(b) == serialize(rb)
            assert m == rm
            grew.update(side for side, x, g in ((1, a, g1), (2, b, g2))
                        if x != g)
        assert grew == {1, 2}
        assert cap().circle_edges("q") == ()


def reference_subdivided_incoming(g, k):
    """The single-step rule: split the first circle edge of the first
    closed incoming circle short of ``k`` edges, then look again."""
    while True:
        for v in g.in_leaves:
            circle = g.circle_edges(v) if v in g.closed else ()
            if v in g.closed and len(circle) < k:
                base, _ = g.base.subdivide_edge(g.base.edge_of(circle[0]))
                g = g.with_base(base)
                break
        else:
            return g


class TestLargeSubdivision:
    def test_runs_match_single_steps_at_60(self):
        outer = fx.subdivided_incoming(fx.pants(), 60)
        ref = reference_subdivided_incoming(fx.pants(), 60)
        assert serialize(outer) == serialize(ref)
        a, b, m = subdivision_match(fx.pants(), outer, [(0, 0)])
        ra, rb, rm = reference_subdivision_match(fx.pants(), outer, [(0, 0)])
        assert serialize(a) == serialize(ra)
        assert serialize(b) == serialize(rb)
        assert m == rm and m.pairs[0].k == 60

    def test_thousand_edge_pants_gluing(self):
        outer = fx.subdivided_incoming(fx.pants(), 1000)
        assert all(len(outer.circle_edges(v)) == 1000
                   for v in outer.in_leaves)
        a, b, m = subdivision_match(fx.pants(), outer, [(0, 0)])
        assert b is outer
        assert m.pairs[0].k == 1000
        assert len(a.circle_edges(a.out_leaves[0])) == 1000
        line = gluing_det_iso(a, b, m, 1)
        assert line.degree == \
            relative_chain_complex(a).degree + relative_chain_complex(b).degree
        assert line.scalar != 0


class TestGlue:
    def test_cylinder_cylinder_is_cylinder(self):
        out = glue(fx.cylinder(), fx.cylinder(),
                   gluable(fx.cylinder(), fx.cylinder()))
        assert is_isomorphic(out, fx.cylinder())

    def test_pants_cylinder_keeps_pants_shape(self):
        a, b, m = subdivision_match(fx.pants(), fx.cylinder())
        out = glue(a, b, m)
        assert glued_component_data(out) == [(0, 3, -1)]
        sig = cobordism_signature(out)
        assert sig.source == ("circle", "circle")
        assert sig.target == ("circle",)

    def test_pants_pants_partial(self):
        inner = fx.pants()
        outer = fx.subdivided_incoming(fx.pants(), 6)
        out = glue(inner, outer, gluable(inner, outer, pairs=[(0, 0)]))
        sig = cobordism_signature(out)
        assert sig.source == ("circle", "circle", "circle")
        assert sig.target == ("circle",)
        assert sig.total_euler_characteristic == -2
        assert [c.genus for c in sig.components] == [0]

    def test_result_admissible_and_incoming_preserved(self):
        for a, b, m in composition_cases():
            out = glue(a, b, m)
            ok, _ = is_admissible(out)
            assert ok
            matched = {p.in_leaf for p in m.pairs}
            want = ["1:" + v for v in a.in_leaves] + \
                ["2:" + v for v in b.in_leaves if v not in matched]
            assert list(out.in_leaves) == want

    def test_chi_additivity_and_signature_oracle(self):
        cases = composition_cases()
        assert len(cases) >= 20
        for a, b, m in cases:
            out = glue(a, b, m)
            open_pairs = sum(1 for p in m.pairs if p.kind == "interval")
            chi1 = a.base.euler_characteristic()
            chi2 = b.base.euler_characteristic()
            # circles contribute no Euler characteristic, each glued
            # interval removes one unit
            assert out.base.euler_characteristic() == \
                chi1 + chi2 - open_pairs
            assert glued_component_data(out) == \
                composed_signature_oracle(a, b, m)

    def test_associative_up_to_isomorphism(self):
        cyl = fx.cylinder()
        p = fx.subdivided_incoming(fx.pants(), 6)
        # all circles already sized 6 against cylinders subdivided to 6
        c6 = fx.subdivided_incoming(fx.cylinder(), 6)
        triples = [
            (cyl, cyl, cyl),
            (fx.pants(), c6, c6),
            (fx.oc_disjoint_union(c6, c6), p, c6),
        ]
        for x, y, z in triples:
            x1, y1, m_xy = subdivision_match(x, y)
            xy = glue(x1, y1, m_xy)
            xy2, z1, m = subdivision_match(xy, z)
            left = glue(xy2, z1, m)
            y2, z2, m_yz = subdivision_match(y, z)
            yz = glue(y2, z2, m_yz)
            x2, yz2, m2 = subdivision_match(x, yz)
            right = glue(x2, yz2, m2)
            assert glued_component_data(left) == glued_component_data(right)
            assert canonical_form(strip_names(left)) == \
                canonical_form(strip_names(right))


class TestGlueChecks:
    """``glue`` turns a FatcobError of the glued graph or of its
    decorations into ResultInvalid, and lets any other exception (a
    bug) propagate."""

    @pytest.mark.parametrize("cls", [FatGraph, OpenClosedFatGraph])
    @pytest.mark.parametrize("error, expected", [
        (DanglingHalfEdge("bad glued graph"), ResultInvalid),
        (RuntimeError("bug in validation"), RuntimeError)],
        ids=["fatcob-error", "bug"])
    def test_validation_errors(self, monkeypatch, cls, error, expected):
        c = fx.cylinder()
        match = gluable(c, c)

        def broken(self):
            raise error

        monkeypatch.setattr(cls, "_validate", broken)
        with pytest.raises(expected, match=str(error)):
            glue(c, c, match)


class TestRandomCompositions:
    def test_seeded_fuzz_glues_and_measures(self):
        # random single-pair compositions of decorated census graphs;
        # glue() revalidates everything and the det-line pipeline keeps
        # its exactness assertions armed
        rcc = relative_chain_complex
        for g1, g2, pairs in fuzz_compositions():
            a, b, m = subdivision_match(g1, g2, pairs)
            out = glue(a, b, m)
            assert glued_component_data(out) == \
                composed_signature_oracle(a, b, m)
            line = gluing_det_iso(a, b, m, 1)
            assert line.degree == rcc(a).degree + rcc(b).degree


class TestExactScalars:
    """The exact d = 1 gluing scalars, ``(degree, scalar)`` per case."""

    CASES = [
        (0, 1), (0, 1), (1, 1), (1, 1), (0, 1), (1, 1), (4, 1), (1, 1), (3, 1),
        (2, 1), (1, 1), (1, 1), (2, 1), (2, 1), (1, 1), (1, 1), (2, 1), (1, 1),
        (2, 1), (2, 1), (4, 1), (4, 1),
    ]

    FUZZ = [
        (0, 1), (2, -1), (-1, 1), (0, 1), (0, 1), (-1, 1), (1, 1), (1, 1),
        (2, 1), (0, 1), (1, 1), (0, 1), (2, 1), (3, 1), (0, 1), (0, 1), (0, 1),
        (1, 1), (1, 1), (2, 1), (1, 1), (2, -1), (0, 1), (0, 1), (0, 1),
        (2, 1), (-1, 1), (0, -1), (0, 1), (1, 1), (1, 1), (-1, 1), (2, 1),
        (0, 1), (0, 1), (-1, 1), (1, 1), (2, 1), (0, 1), (2, 1), (2, 1),
        (1, 1), (0, 1), (0, 1), (1, 1), (2, -1), (1, -1), (0, 1), (2, 1),
        (2, 1), (-1, 1), (-1, 1), (2, 1), (-1, 1), (1, 1), (-1, 1), (0, 1),
        (0, 1), (3, -1), (0, 1),
    ]

    def test_composition_cases(self):
        lines = [gluing_det_iso(a, b, m, 1) for a, b, m in composition_cases()]
        assert [(line.degree, line.scalar) for line in lines] == self.CASES

    def test_fuzz_compositions(self):
        lines = [gluing_det_iso(*subdivision_match(g1, g2, pairs), 1)
                 for g1, g2, pairs in fuzz_compositions()]
        assert [(line.degree, line.scalar) for line in lines] == self.FUZZ


class TestGlueOnce:
    """A match glues once and keeps the glued graph and the
    d-independent det-line scalar."""

    def test_det_iso_matches_a_fresh_match(self):
        cases = [(a, b, [(p.out_index, p.in_index) for p in m.pairs])
                 for a, b, m in composition_cases()]
        cases += [subdivision_match(g1, g2, pairs)[:2] + (pairs,)
                  for g1, g2, pairs in fuzz_compositions()]
        assert len(cases) > 80
        for a, b, pairs in cases:
            m = gluable(a, b, pairs)
            for d in range(4):
                kept = gluing_det_iso(a, b, m, d)
                assert m._det_line is not None
                assert kept == gluing_det_iso(a, b, gluable(a, b, pairs), d)

    def test_other_graphs_still_rejected(self):
        a, b, m = subdivision_match(fx.pants(), fx.cylinder())
        gluing_det_iso(a, b, m, 1)
        assert m._glued is not None and m._det_line is not None
        c = fx.cylinder()
        other = fx.subdivided_incoming(c, 2)
        with pytest.raises(InvalidMatch):
            glue(a, other, m)
        with pytest.raises(InvalidMatch):
            glue(c, b, m)
        with pytest.raises(InvalidMatch):
            gluing_det_iso(a, other, m, 1)
        # the kept result is untouched by the rejected calls
        assert glue(a, b, m) is m._glued[0]

    def test_failed_gluing_keeps_nothing(self, monkeypatch):
        c = fx.cylinder()
        m = gluable(c, c)

        def broken(self):
            raise DanglingHalfEdge("bad glued graph")

        monkeypatch.setattr(FatGraph, "_validate", broken)
        with pytest.raises(ResultInvalid):
            glue(c, c, m)
        # an internal fault, not a gluability failure
        with pytest.raises(ResultInvalid) as info:
            gluing_det_iso(c, c, m, 1)
        assert not isinstance(info.value, NotGluable)
        assert m._glued is None and m._det_line is None
        monkeypatch.undo()
        assert glue(c, c, m) == glue(c, c, gluable(c, c))
        assert gluing_det_iso(c, c, m, 2) == \
            gluing_det_iso(c, c, gluable(c, c), 2)

    def test_internal_failure_is_not_reported_as_not_gluable(
            self, monkeypatch):
        # a broken six-term sequence is a bug, not a domain error: it
        # reaches the caller as itself, and the match keeps no scalar
        from fatcob import homology
        a, b, m = subdivision_match(
            fx.oc_disjoint_union(fx.torus_with_out(), fx.cylinder()),
            fx.pants())

        def broken(cols, n0):
            raise InvariantViolation("connecting map is not an incidence "
                                     "matrix")

        monkeypatch.setattr(homology, "_split_connecting", broken)
        with pytest.raises(InvariantViolation) as info:
            gluing_det_iso(a, b, m, 1)
        assert not isinstance(info.value, NotGluable)
        assert m._det_line is None
        monkeypatch.undo()
        assert gluing_det_iso(a, b, m, 1).scalar == 1

    def test_slots_leave_equality_hash_and_repr(self):
        a, b, m = subdivision_match(fx.pants(), fx.cylinder())
        fresh = gluable(a, b)
        before = (repr(m), hash(m))
        assert m == fresh
        gluing_det_iso(a, b, m, 1)
        assert m._glued is not None and m._det_line is not None
        assert (repr(m), hash(m)) == before
        assert m == fresh and hash(m) == hash(fresh)
        assert repr(m) == repr(fresh)

    def test_glue_data_is_read_only(self):
        for g1, g2 in ((fx.pants(), fx.cylinder()),
                       (fx.interval(), fx.mouthpiece())):
            a, b, m = subdivision_match(g1, g2)
            _, data = glue(a, b, m, with_data=True)
            # a reattached circle vertex or a junction is a g2 vertex
            # that maps to a g1 vertex
            assert any(img is not None and img.startswith("1:")
                       for img in data.vertices[1].values())
            views = [view for maps in data for view in maps]
            assert len(views) == 6
            for view in views:
                with pytest.raises(TypeError):
                    view["x"] = "y"
                with pytest.raises(TypeError):
                    del view["x"]
            # every caller of the match is handed the same data
            assert glue(a, b, m, with_data=True)[1] is data

    def test_glue_data_maps_onto_the_glued_cells(self):
        for a, b, m in composition_cases():
            glued, data = glue(a, b, m, with_data=True)
            base = glued.base
            for maps, cells, inputs in (
                    (data.halves, base.half_edges,
                     (a.base.half_edges, b.base.half_edges)),
                    (data.edges, base.edges(),
                     (a.base.edges(), b.base.edges())),
                    (data.vertices, base.vertices,
                     (a.base.vertices, b.base.vertices))):
                # each map is total on its input's cells; the first
                # graph's kept cells stay apart, and the two sides
                # together reach every glued cell
                assert [tuple(view) for view in maps] == list(inputs)
                kept1 = [c for c in maps[0].values() if c is not None]
                assert len(set(kept1)) == len(kept1)
                images = {c for view in maps for c in view.values()}
                assert images - {None} == set(cells)


class TestGlueMorphisms:
    def test_identities(self):
        c = fx.cylinder()
        m = gluable(c, c)
        gm = glue_morphisms(identity_morphism(c), identity_morphism(c), m)
        assert gm.is_identity()

    def test_tandem_collapse(self):
        g1, g2, match = subdivision_match(
            fx.cylinder(), fx.subdivided_incoming(fx.cylinder(), 2))
        pair = match.pairs[0]
        k = pair.k
        e_a = g1.base.edge_of(pair.a_halves[0])
        e_b = g2.base.edge_of(pair.b_halves[k - 1])
        _, m1 = collapse_edges(g1, [e_a])
        _, m2 = collapse_edges(g2, [e_b])
        gm = glue_morphisms(m1, m2, match)
        ok, why = validate_morphism(gm)
        assert ok, why

    def test_identities_over_open_pairs(self):
        # an open pair glues two leaves into a junction, which the g2
        # side reaches through its in-leaf's entry
        for g2 in (fx.interval(), fx.mouthpiece()):
            g1 = fx.interval()
            m = gluable(g1, g2)
            assert m.open_pairs and not m.closed_pairs
            gm = glue_morphisms(identity_morphism(g1), identity_morphism(g2),
                                m)
            assert validate_morphism(gm) == (True, None)
            assert gm.is_identity()

    def test_dropped_target_image_is_refused(self):
        # a forged map onto the matched out-leaf, which the target
        # gluing drops, is refused for a vertex and for a half-edge
        # alike, not read as a collapse
        c = fx.cylinder()
        for vmap, hmap, lost in (({"u": "q"}, {}, "q"),
                                 ({}, {"a.0": "M.0"}, "M.0")):
            m1 = identity_morphism(c)
            m1.vertex_map.update(vmap)
            m1.half_map.update(hmap)
            with pytest.raises(ResultInvalid,
                               match="image %s vanished" % re.escape(lost)):
                glue_morphisms(m1, identity_morphism(c), gluable(c, c))

    def test_one_sided_collapse_rejected(self):
        g1, g2, match = subdivision_match(
            fx.cylinder(), fx.subdivided_incoming(fx.cylinder(), 2))
        pair = match.pairs[0]
        e_b = g2.base.edge_of(pair.b_halves[0])
        _, m2 = collapse_edges(g2, [e_b])
        with pytest.raises(NotGluablePairMorphism):
            glue_morphisms(identity_morphism(g1), m2, match)
