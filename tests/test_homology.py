from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import data_path, run_optimized
from corpus import admissible_census_decorations, cap, census_collapse_pairs, \
    census_collapses, census_morphism_pairs, collapses_off_leaves, \
    fuzz_compositions, single_edges
from fatcob import fixtures as fx
from fatcob.errors import (EdgeCountMismatch, FatcobError, InvalidMorphism,
                           InvalidParameter, InvariantViolation,
                           NotAdmissible, ResultInvalid, SignatureMismatch)
from fatcob.fgformat import load, parse_graph, serialize
from fatcob import gluing
from fatcob.gluing import gluable, glue_morphisms, subdivision_match
from fatcob.graphs import new_fat_graph
from fatcob import homology
from fatcob.homology import (
    ChainComplexPair,
    GradedLine,
    chain_map_of_morphism,
    gluing_det_iso,
    morphism_det_sign,
    operation_degree,
    power,
    relative_chain_complex,
    relative_euler_char,
    skew_associativity_sign,
    swap,
    tensor,
)
from fatcob import linalg, morphisms, openclosed
from fatcob.morphisms import (
    Morphism,
    collapse_edges,
    compose,
    identity_morphism,
)
from fatcob.openclosed import decorate, incoming_partition, is_admissible


def fixture_gluings():
    """``(g1, g2, match)`` of the fixture gluings, matched afresh."""
    return [subdivision_match(g1, g2, pairs) for g1, g2, pairs in (
        (fx.cylinder(), fx.cylinder(), None),
        (fx.pants(), fx.cylinder(), None),
        (fx.mouthpiece(), fx.cylinder(), None),
        (fx.interval(), fx.mouthpiece(), None),
        (fx.pants(), fx.subdivided_incoming(fx.pants(), 6), [(0, 0)]),
        (fx.oc_disjoint_union(fx.torus_with_out(), fx.cylinder()),
         fx.pants(), None),
        (fx.cylinder(), fx.pants(), [(0, 1)]),
        (fx.subdivided_incoming(fx.pants(), 3), fx.cylinder(), None),
        (fx.cylinder(), fx.subdivided_incoming(fx.pants(), 4), [(0, 1)]),
        (fx.open_closed_example(), fx.flaps(), None))]


def skew_stackings():
    """``(inner, outer, match)`` of both stackings that
    :func:`skew_associativity_sign` compares."""
    inner = fx.pants()
    k = len(inner.leaf_cycle_normal_form(inner.out_leaves[0])) - 2
    outer = fx.subdivided_incoming(fx.pants(), k)
    return [(inner, outer, gluable(inner, outer, pairs=[(0, slot)]))
            for slot in (0, 1)]


def interleaved_tori_drops():
    """``(g1, cylinder, match)`` gluing a cylinder at each out slot of
    two ``torus_with_out``-shaped pieces whose vertex names interleave:
    cores ``a`` and ``m``, closed out-leaves ``z`` and ``n``, with
    ``out = [z, n]``."""
    g = decorate(new_fat_graph(
        ["a", "m", "n", "z"],
        [("a1", "a", "a"), ("b1", "a", "a"), ("Z", "z", "a"),
         ("a2", "m", "m"), ("b2", "m", "m"), ("N", "n", "m")],
        {"a": ["Z.1", "a1.0", "b1.0", "a1.1", "b1.1"], "z": ["Z.0"],
         "m": ["N.1", "a2.0", "b2.0", "a2.1", "b2.1"], "n": ["N.0"]}),
        [], ["z", "n"], {"z", "n"})
    return [subdivision_match(g, fx.cylinder(), [(slot, 0)])
            for slot in (0, 1)]


def simplicial_pair_ranks(triangles, sub_edges, sub_vertices):
    """(rank H1, rank H0) of a simplicial pair by brute matrix reduction.

    ``triangles`` are vertex triples; the edge set is derived.  Cells
    lying in the subcomplex are dropped from the quotient complex.
    """
    def edge(a, b):
        return (a, b) if a < b else (b, a)

    tris = [tuple(t) for t in triangles]
    edges = sorted({edge(t[i], t[j]) for t in tris
                    for i, j in ((0, 1), (1, 2), (0, 2))})
    vertices = sorted({v for t in tris for v in t})
    sub_e = {edge(*e) for e in sub_edges}
    sub_v = set(sub_vertices)
    rel_e = [e for e in edges if e not in sub_e]
    rel_v = [v for v in vertices if v not in sub_v]
    e_idx = {e: i for i, e in enumerate(rel_e)}
    v_idx = {v: i for i, v in enumerate(rel_v)}
    d2 = [[0] * len(tris) for _ in rel_e]
    for j, (x, y, z) in enumerate(tris):
        for sign, (a, b) in ((1, (y, z)), (-1, (x, z)), (1, (x, y))):
            if a > b:
                sign = -sign
            if edge(a, b) in e_idx:
                d2[e_idx[edge(a, b)]][j] += sign
    d1 = [[0] * len(rel_e) for _ in rel_v]
    for j, (a, b) in enumerate(rel_e):
        if b in v_idx:
            d1[v_idx[b]][j] += 1
        if a in v_idx:
            d1[v_idx[a]][j] -= 1
    rank_d2 = len(reference_rref(d2)[1])
    rank_d1 = len(reference_rref(d1)[1])
    h1 = len(rel_e) - rank_d1 - rank_d2
    h0 = len(rel_v) - rank_d1
    return h1, h0


def annulus_rel_arc_ranks():
    """H_*(annulus, one boundary arc): triangulated prism shell."""
    tris = [("a0", "b0", "b1"), ("a0", "a1", "b1"),
            ("a1", "b1", "b2"), ("a1", "a2", "b2"),
            ("a2", "b2", "b0"), ("a2", "a0", "b0")]
    return simplicial_pair_ranks(tris, [("a0", "a1")], ["a0", "a1"])


def disk_rel_two_arcs_ranks():
    """H_*(disk, two disjoint boundary arcs): a split square."""
    tris = [("x", "y", "z"), ("x", "z", "w")]
    return simplicial_pair_ranks(tris, [("x", "y"), ("z", "w")],
                                 ["x", "y", "z", "w"])


class TestRanks:
    def test_fixture_ranks(self):
        for mk, want in ((fx.cylinder, (0, 0)), (fx.pants, (1, 0)),
                         (fx.mouthpiece, (1, 0)), (fx.flaps, (1, 0))):
            cc = relative_chain_complex(mk())
            assert (cc.rank_h1, cc.rank_h0) == want

    def test_mouthpiece_against_simplicial_model(self):
        # the mouthpiece surface is an annulus with one incoming
        # boundary interval; an explicit triangulation must agree
        assert annulus_rel_arc_ranks() == (1, 0)
        cc = relative_chain_complex(fx.mouthpiece())
        assert (cc.rank_h1, cc.rank_h0) == annulus_rel_arc_ranks()

    def test_flaps_against_simplicial_model(self):
        assert disk_rel_two_arcs_ranks() == (1, 0)
        cc = relative_chain_complex(fx.flaps())
        assert (cc.rank_h1, cc.rank_h0) == disk_rel_two_arcs_ranks()

    def test_pants_generator_is_the_linking_arc(self):
        # the kernel is spanned by the difference of the two halves of
        # the arc between the circles, supported off the leaf edge
        cc = relative_chain_complex(fx.pants())
        (vec,) = cc.h1_basis
        support = {cc.basis1[i] for i, x in enumerate(vec) if x != 0}
        assert support <= {"r1.0", "r1.1", "r2.0", "r2.1"}
        assert support

    def test_rank_difference_is_cell_count(self):
        for oc in admissible_census_decorations(3):
            cc = relative_chain_complex(oc)
            part = incoming_partition(oc)
            assert cc.rank_h0 - cc.rank_h1 == part.euler_difference


class TestDegrees:
    def test_relative_euler_char(self):
        assert relative_euler_char(fx.cylinder()) == 0
        assert relative_euler_char(fx.pants()) == -1
        assert relative_euler_char(fx.flaps()) == -1

    def test_operation_degree(self):
        for d in (1, 2, 3):
            assert operation_degree(fx.pants(), d) == -d
            assert operation_degree(fx.mouthpiece(), d) == -d
            assert operation_degree(fx.cylinder(), d) == 0


def graph_differential(g, cc):
    """The dense differential of ``g``'s relative complex, read off the
    graph over ``cc``'s bases: ``d(h) = [midpoint of h's edge] - [source
    of h]``, the source term kept only when it is an extra vertex."""
    base = g.base
    extra = set(incoming_partition(g).e_v)
    d = [[Fraction(0)] * len(cc.basis1) for _ in cc.basis0]
    for j, h in enumerate(cc.basis1):
        d[cc.index0(("E", base.edge_of(h)))][j] += 1
        if base.source(h) in extra:
            d[cc.index0(("V", base.source(h)))][j] -= 1
    return d


def arcs_differential(cc):
    """The dense differential of ``cc``'s arcs: +1 at ``plus``, -1 at
    ``minus``, nothing at ground."""
    d = [[Fraction(0)] * len(cc.basis1) for _ in range(len(cc.basis0) + 1)]
    for j, (p, m) in enumerate(zip(cc.plus, cc.minus)):
        d[p][j] += 1
        d[m][j] -= 1
    return d[:-1]


class TestGradedLines:
    def test_tensor(self):
        a = GradedLine(2, Fraction(3))
        b = GradedLine(-1, Fraction(1, 2))
        assert tensor(a, b) == GradedLine(1, Fraction(3, 2))

    def test_swap(self):
        assert swap(GradedLine(1, Fraction(1)), GradedLine(1, Fraction(1))) == -1
        assert swap(GradedLine(0, Fraction(5)), GradedLine(7, Fraction(1))) == 1
        assert swap(GradedLine(2, Fraction(1)), GradedLine(3, Fraction(1))) == 1

    def test_power(self):
        line = GradedLine(-1, Fraction(-2))
        assert power(line, 3) == GradedLine(-3, Fraction(-8))
        assert power(line, 0) == GradedLine(0, Fraction(1))

    def test_zero_scalar_rejected(self):
        with pytest.raises(ValueError):
            GradedLine(0, Fraction(0))

    @pytest.mark.parametrize("scalar", [2.0, 2], ids=["float", "int"])
    def test_inexact_scalar_rejected(self, scalar):
        # a stray int / int upstream would leak a float into the output
        with pytest.raises(InvalidParameter, match="is not a Fraction"):
            GradedLine(1, scalar)

    @pytest.mark.parametrize("call", [
        lambda: operation_degree(fx.pants(), -1),
        lambda: GradedLine(0, Fraction(0)),
        lambda: power(GradedLine(1, Fraction(1)), -1),
        lambda: gluing_det_iso(fx.cylinder(), fx.cylinder(),
                               gluable(fx.cylinder(), fx.cylinder()), -1),
        lambda: skew_associativity_sign(-1),
        lambda: operation_degree(fx.pants(), 1.5),
        lambda: power(GradedLine(1, Fraction(1)), 0.5),
        lambda: gluing_det_iso(fx.cylinder(), fx.cylinder(),
                               gluable(fx.cylinder(), fx.cylinder()), 1.5),
        lambda: skew_associativity_sign(1.5),
        lambda: operation_degree(fx.pants(), True),
        lambda: power(GradedLine(1, Fraction(1)), True),
        lambda: gluing_det_iso(fx.cylinder(), fx.cylinder(),
                               gluable(fx.cylinder(), fx.cylinder()), True),
        lambda: skew_associativity_sign(True),
    ], ids=["operation_degree", "GradedLine", "power", "gluing_det_iso",
            "skew_associativity_sign", "operation_degree-float",
            "power-float", "gluing_det_iso-float",
            "skew_associativity_sign-float", "operation_degree-bool",
            "power-bool", "gluing_det_iso-bool",
            "skew_associativity_sign-bool"])
    def test_bad_arguments_raise_fatcob_errors(self, call):
        with pytest.raises(FatcobError) as info:
            call()
        assert isinstance(info.value, ValueError)


class TestUndecoratedGraphs:
    """A bare fat graph where decorations are needed raises
    NotAdmissible, not an AttributeError."""

    @pytest.mark.parametrize("call", [
        relative_chain_complex,
        lambda g: morphism_det_sign(identity_morphism(g)),
        is_admissible,
        lambda g: operation_degree(g, 1),
        openclosed.cobordism_signature,
        openclosed.check_positive_boundary,
        lambda g: gluable(g, fx.cylinder()),
        lambda g: subdivision_match(fx.cylinder(), g, [(0, 0)]),
        openclosed.smooth_undecorated_bivalent,
    ], ids=["relative_chain_complex", "morphism_det_sign", "is_admissible",
            "operation_degree", "cobordism_signature",
            "check_positive_boundary", "gluable", "subdivision_match",
            "smooth_undecorated_bivalent"])
    def test_entry_point(self, call):
        with pytest.raises(NotAdmissible, match="has no In/Out leaf"):
            call(fx.figure4())


class TestChainMaps:
    def test_identity(self):
        cm = chain_map_of_morphism(identity_morphism(fx.pants()))
        assert cm.f_eH == [(i,) for i in range(len(cm.source_cc.basis1))]
        assert cm.f_eEV == [(i,) for i in range(len(cm.source_cc.basis0))]

    def test_collapse_commutes_and_is_quasi_iso(self):
        oc = fx.pants()
        out, m = collapse_edges(oc, ["r1"])
        cm = chain_map_of_morphism(m)
        assert cm.source_cc.rank_h1 == cm.target_cc.rank_h1 == 1
        assert cm.source_cc.rank_h0 == cm.target_cc.rank_h0 == 0

    def test_invalid_morphism_rejected(self):
        g = fx.pants()
        bad = Morphism(g, g, {v: v for v in g.base.vertices},
                       {h: h for h in g.base.half_edges})
        bad.half_map["a1.0"], bad.half_map["a1.1"] = "a1.1", "a1.0"
        with pytest.raises(InvalidMorphism):
            chain_map_of_morphism(bad)

    def test_commutation_check_survives_optimize(self):
        # the pants identity with p1 and q swapped passes a patched
        # validate_morphism, but its cell maps do not commute with d
        script = (
            "from fatcob import fixtures as fx, homology, morphisms\n"
            "from fatcob.errors import InvariantViolation\n"
            "from fatcob.morphisms import Morphism\n"
            "assert False, 'asserts are on'\n"
            "g = fx.pants()\n"
            "vmap = {v: v for v in g.base.vertices}\n"
            "vmap['p1'], vmap['q'] = 'q', 'p1'\n"
            "m = Morphism(g, g, vmap, {h: h for h in g.base.half_edges})\n"
            "morphisms.validate_morphism = lambda m: (True, None)\n"
            "try:\n"
            "    homology.chain_map_of_morphism(m)\n"
            "except InvariantViolation as exc:\n"
            "    print('raised', exc)\n")
        out = run_optimized(script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("raised chain map does not commute")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_commutation_check_matches_counting(self, data):
        # random arcs (ground included) and cell maps, random or a cell
        # bijection onto a relabelled copy with at most one 0-cell moved:
        # the check raises exactly when Counters of the signed endpoints
        # of f0 . dF and dT . f1 differ at some 1-cell
        from collections import Counter
        n1, n0 = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        ends = st.lists(st.integers(0, n0), min_size=n1, max_size=n1)
        F = ChainComplexPair(range(n1), range(n0), data.draw(ends),
                             data.draw(ends))
        if data.draw(st.booleans()):
            p1 = data.draw(st.permutations(range(n1)))
            p0 = data.draw(st.permutations(range(n0))) + [n0]
            plus, minus = [0] * n1, [0] * n1
            for j in range(n1):
                plus[p1[j]] = p0[F.plus[j]]
                minus[p1[j]] = p0[F.minus[j]]
            T = ChainComplexPair(range(n1), range(n0), plus, minus)
            f1 = [(p1[j],) for j in range(n1)]
            f0 = [(p0[i],) for i in range(n0)]
            if n0 and data.draw(st.booleans()):
                f0[data.draw(st.integers(0, n0 - 1))] = tuple(data.draw(
                    st.lists(st.integers(0, n0 - 1), max_size=2)))
        else:
            m1, m0 = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
            ends = st.lists(st.integers(0, m0), min_size=m1, max_size=m1)
            T = ChainComplexPair(range(m1), range(m0), data.draw(ends),
                                 data.draw(ends))
            to0 = st.lists(st.integers(0, m0 - 1), max_size=2) if m0 \
                else st.just([])
            to1 = st.lists(st.integers(0, m1 - 1), max_size=2) if m1 \
                else st.just([])
            f0 = [tuple(data.draw(to0)) for _ in range(n0)]
            f1 = [tuple(data.draw(to1)) for _ in range(n1)]
        ext = f0 + [()]
        agree = True
        for j, targets in enumerate(f1):
            lhs = Counter(ext[F.plus[j]])
            lhs.subtract(ext[F.minus[j]])
            rhs = Counter(T.plus[t] for t in targets)
            rhs.subtract(T.minus[t] for t in targets)
            rhs.pop(len(T.basis0), None)
            agree = agree and lhs == rhs
        if agree:
            homology._check_chain_map(F, T, f1, f0)
        else:
            with pytest.raises(InvariantViolation, match="does not commute"):
                homology._check_chain_map(F, T, f1, f0)

    def test_index_lookups(self):
        cc = relative_chain_complex(fx.pants())
        for basis, index in ((cc.basis1, cc.index1), (cc.basis0, cc.index0)):
            assert [index(c) for c in basis] == list(range(len(basis)))
            with pytest.raises(InvalidParameter, match="is not a") as info:
                index("no such cell")
            # callers that catch ValueError still do
            assert isinstance(info.value, ValueError)

    def test_cell_maps_match_dense_reference(self):
        singles, composites = census_collapses(3)
        assert len(singles) > 100 and len(composites) > 30
        for m in singles + composites:
            cm = chain_map_of_morphism(m)
            A, B = cm.source_cc, cm.target_cc
            f1, f0 = dense_chain_map(m, A, B)
            assert densify(cm.f_eH, len(B.basis1)) == f1
            assert densify(cm.f_eEV, len(B.basis0)) == f0
            dA = graph_differential(m.source, A)
            dB = graph_differential(m.target, B)
            n1 = len(A.basis1)
            assert dense_product(f0, dA, n1) == dense_product(dB, f1, n1)


def dense_chain_map(m, A, B):
    """``(f1, f0)`` of ``m`` as dense 0/1 matrices (rows over ``B``'s
    cells): a half-edge goes to its image, a midpoint to its image
    edge's midpoint or, when collapsed, to its far end's image vertex,
    a vertex to its image; cells landing off ``B``'s basis go to 0."""
    sbase, tbase = m.source.base, m.target.base
    f1 = [[0] * len(A.basis1) for _ in B.basis1]
    for j, h in enumerate(A.basis1):
        if m.half_map[h] in B.basis1:
            f1[B.index1(m.half_map[h])][j] = 1
    f0 = [[0] * len(A.basis0) for _ in B.basis0]
    for j, (kind, name) in enumerate(A.basis0):
        if kind == "V":
            cell = ("V", m.vertex_map[name])
        else:
            far = sbase.edge_halves(name)[1]
            img = m.half_map[far]
            cell = (("V", m.vertex_map[sbase.source(far)]) if img is None
                    else ("E", tbase.edge_of(img)))
        if cell in B.basis0:
            f0[B.index0(cell)][j] = 1
    return f1, f0


def densify(cell_map, rows):
    out = [[0] * len(cell_map) for _ in range(rows)]
    for j, targets in enumerate(cell_map):
        for t in targets:
            out[t][j] += 1
    return out


def dense_product(a, b, cols):
    return [[sum(row[k] * b[k][j] for k in range(len(b)))
             for j in range(cols)] for row in a]


class TestMorphismDetSign:
    def test_identity_sign(self):
        assert morphism_det_sign(identity_morphism(fx.pants())) == 1

    def test_pants_collapse_sign(self):
        _, m = collapse_edges(fx.pants(), ["r1"])
        assert morphism_det_sign(m) == 1

    def test_functoriality_on_census(self):
        singles, pairs = census_morphism_pairs(3)
        assert len(pairs) >= 10
        for m2, m1 in pairs:
            s = morphism_det_sign(compose(m2, m1))
            assert s == morphism_det_sign(m2) * morphism_det_sign(m1)

    def test_section_agreement_on_fixture_morphisms(self):
        # forward/section agreement is asserted inside the call
        singles, _ = census_morphism_pairs(3)
        assert len(singles) >= 20
        for m in singles:
            assert morphism_det_sign(m) in (1, -1)

    def test_exact_section_on_census_collapses(self):
        # forward x section == 1 on H1 and H0 is checked inside the call;
        # a section summing a collapsed tree's cells fails it on the
        # morphisms whose tree carries an H0 class
        singles, composites = census_collapses(3)
        ms = singles + composites
        assert len(ms) == 142
        trees = 0
        for m in ms:
            cm = chain_map_of_morphism(m)
            B = cm.target_cc
            pre = homology._preimages(cm.f_eEV, len(B.basis0))
            trees += any(len(pre[rep.index(1)]) > 1 for rep in B.h0_basis)
        assert trees == 46
        signs = [morphism_det_sign(m) for m in ms]
        assert (signs.count(1), signs.count(-1)) == (126, 16)

    def test_target_cell_without_preimage(self, monkeypatch):
        # the target gains a cell joined to ground by a new arc: the
        # homology is unchanged, but the arc has no preimage
        _, m = collapse_edges(fx.pants(), ["r1"])
        original = homology.chain_map_of_morphism

        def widened(m):
            cm = original(m)
            B = cm.target_cc
            x, ground = len(B.basis0), len(B.basis0) + 1

            def moved(ends):
                return [ground if u == x else u for u in ends]

            wide = ChainComplexPair(B.basis1 + ("x",),
                                    B.basis0 + (("V", "x"),),
                                    moved(B.plus) + [x],
                                    moved(B.minus) + [ground])
            return homology.ChainMap(cm.source_cc, wide, cm.f_eH, cm.f_eEV)

        monkeypatch.setattr(homology, "chain_map_of_morphism", widened)
        with pytest.raises(InvariantViolation, match="no unique preimage"):
            morphism_det_sign(m)


class TestValidateOnce:
    """A morphism the library returns is validated once, when made."""

    @pytest.fixture
    def validated(self, monkeypatch):
        """The morphisms passed to ``validate_morphism``, in order."""
        calls = []
        original = morphisms.validate_morphism

        def counted(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(morphisms, "validate_morphism", counted)
        monkeypatch.setattr(homology, "validate_morphism", counted)
        return calls

    def test_signs_validate_nothing_again(self, validated):
        _, pairs = census_morphism_pairs(3)
        for m2, m1 in pairs[:10]:
            del validated[:]
            morphism_det_sign(m1)
            morphism_det_sign(m2)
            assert validated == []
            m = compose(m2, m1)
            morphism_det_sign(m)
            # the one call is compose's own
            assert validated == [m]

    def test_unchecked_morphism_is_validated(self, validated):
        # the first use checks and marks it; later uses check nothing
        m = identity_morphism(fx.pants())
        assert [morphism_det_sign(m) for _ in range(3)] == [1, 1, 1]
        assert validated == [m]

    def test_checked_maps_are_read_only(self):
        _, m = collapse_edges(fx.pants(), ["r1"])
        with pytest.raises(TypeError):
            m.half_map["a1.0"] = "a1.1"
        with pytest.raises(TypeError):
            m.vertex_map["p1"] = "q"
        with pytest.raises(TypeError):
            del m.half_map["a1.0"]
        # an unchecked morphism keeps plain dicts
        m = identity_morphism(fx.pants())
        m.half_map["a1.0"] = "a1.0"


class TestGluingDetIso:
    def test_cylinder_cylinder(self):
        c = fx.cylinder()
        line = gluing_det_iso(c, c, gluable(c, c), 1)
        assert line.degree == 0
        assert line.scalar > 0
        assert line.sign == 1

    def test_degree_zero_power(self):
        a, b, m = subdivision_match(fx.pants(), fx.cylinder())
        line = gluing_det_iso(a, b, m, 0)
        assert line == GradedLine(0, Fraction(1))

    def test_degree_additivity(self):
        for g1, g2, pairs in (
                (fx.cylinder(), fx.cylinder(), None),
                (fx.pants(), fx.cylinder(), None),
                (fx.mouthpiece(), fx.cylinder(), None),
                (fx.interval(), fx.mouthpiece(), None),
                (fx.pants(), fx.subdivided_incoming(fx.pants(), 6), [(0, 0)]),
                (fx.open_closed_example(), fx.flaps(), None)):
            a, b, m = subdivision_match(g1, g2, pairs)
            line = gluing_det_iso(a, b, m, 1)
            d1 = relative_chain_complex(a)
            d2 = relative_chain_complex(b)
            assert line.degree == d1.degree + d2.degree

    def test_nonzero_connecting_map(self):
        # a genus-one piece with no incoming boundary keeps a degree-0
        # class, so feeding it and a cylinder into the two legs of a
        # pair of pants makes the connecting map of the glued sequence
        # injective rather than zero
        g1 = fx.oc_disjoint_union(fx.torus_with_out(), fx.cylinder())
        a, b, m = subdivision_match(g1, fx.pants())
        ccA = relative_chain_complex(a)
        assert (ccA.rank_h1, ccA.rank_h0) == (2, 1)
        line = gluing_det_iso(a, b, m, 1)
        ccG = relative_chain_complex(gluing.glue(a, b, m))
        assert (ccG.rank_h1, ccG.rank_h0) == (2, 0)
        assert line.degree == 2
        assert line.scalar != 0

    def test_scalar_power_law(self):
        a, b, m = subdivision_match(fx.pants(), fx.cylinder())
        l1 = gluing_det_iso(a, b, m, 1)
        l2 = gluing_det_iso(a, b, m, 2)
        l3 = gluing_det_iso(a, b, m, 3)
        assert l2.degree == 2 * l1.degree
        assert l3.degree == 3 * l1.degree
        # interleaving d copies contributes the predicted Koszul sign
        d1 = relative_chain_complex(a).degree
        d2 = relative_chain_complex(b).degree
        for d, line in ((2, l2), (3, l3)):
            kos = -1 if (d1 * d2 * (d * (d - 1) // 2)) % 2 else 1
            assert line.scalar == kos * l1.scalar ** d


    def test_kept_match_checks_no_admissibility(self, monkeypatch):
        calls = []
        is_admissible = openclosed.is_admissible

        def counted(g):
            calls.append(g)
            return is_admissible(g)

        monkeypatch.setattr(openclosed, "is_admissible", counted)
        a, b, m = subdivision_match(fx.pants(), fx.cylinder())
        first = gluing_det_iso(a, b, m, 1)
        del calls[:]
        lines = [gluing_det_iso(a, b, m, d) for d in (1, 2, 3, 1)]
        assert calls == []
        assert lines[0] == lines[3] == first

    def test_inadmissible_first_graph_raises(self):
        # gluable checks only the second graph; the first graph's
        # complex refuses to build, on every call
        g1 = decorate(fx.embedded_circle_example(), ["z"], ["x"],
                      {"z", "x"})
        assert not is_admissible(g1)[0]
        a, b, m = subdivision_match(g1, fx.cylinder())
        for _ in range(2):
            with pytest.raises(NotAdmissible):
                gluing_det_iso(a, b, m, 1)
            assert m._det_line is None and a._cc is None


class TestBuildOnce:
    """Each complex is built once, with no row reduction."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Records ``[graph or None, rref calls]`` per complex built."""
        built = []
        pending = []     # graphs handed to relative_chain_complex
        inside = []      # complexes whose __init__ is running
        rref = linalg.rref
        init = ChainComplexPair.__init__
        rcc = homology.relative_chain_complex

        def counted_rref(m):
            if inside:
                inside[-1][1] += 1
            return rref(m)

        def counted_init(cc, basis1, basis0, plus, minus):
            entry = [pending.pop() if pending else None, 0]
            built.append(entry)
            inside.append(entry)
            try:
                init(cc, basis1, basis0, plus, minus)
            finally:
                inside.pop()

        def recorded_rcc(g):
            # a kept complex builds nothing, so its graph is not left
            # pending for the next build
            pending.append(g)
            try:
                return rcc(g)
            finally:
                if pending and pending[-1] is g:
                    pending.pop()

        monkeypatch.setattr(linalg, "rref", counted_rref)
        monkeypatch.setattr(ChainComplexPair, "__init__", counted_init)
        monkeypatch.setattr(homology, "relative_chain_complex", recorded_rcc)
        return built

    def test_no_rref_during_construction(self, built):
        a, b, m = subdivision_match(fx.pants(), fx.cylinder())
        gluing_det_iso(a, b, m, 1)
        _, mor = collapse_edges(fx.pants(), ["r1"])
        morphism_det_sign(mor)
        assert len(built) > 5
        assert max(calls for _, calls in built) == 0

    def test_degrees_build_no_complex(self, built):
        for g in (fx.cylinder(), fx.pants(), fx.flaps()):
            relative_euler_char(g)
            operation_degree(g, 3)
        assert built == []

    def test_gluing_builds_each_graph_complex_once(self, built):
        a, b, m = subdivision_match(fx.cylinder(), fx.cylinder())
        gluing_det_iso(a, b, m, 1)
        graphs = [g for g, _ in built if g is not None]
        assert len(graphs) == 3  # the two inputs and the glued graph
        assert len({id(g) for g in graphs}) == len(graphs)

    def test_three_degrees_glue_once(self, built, monkeypatch):
        # d = 1, 2, 3 on one match: one glue and the four complexes of a
        # single pass, three of them graph complexes (the two inputs and
        # the glued graph), the fourth the subcomplex left by the dropped
        # cells, whose inclusion is read as a quasi-isomorphism with no
        # quotient complex; the six-term sequence runs on the glued
        # graph's own complex, so no separate extension complex is built
        glued = []
        glue = gluing.glue

        def counted_glue(*args, **kwargs):
            glued.append(args)
            return glue(*args, **kwargs)

        monkeypatch.setattr(gluing, "glue", counted_glue)
        a, b, m = subdivision_match(fx.pants(), fx.cylinder())
        once = len(built)
        lines = [gluing_det_iso(a, b, m, d) for d in (1, 2, 3)]
        assert len(glued) == 1
        graphs = [g for g, _ in built[once:] if g is not None]
        assert graphs == [a, b, gluing.glue(a, b, m)]
        assert len(built) - once == 4
        assert [line.degree for line in lines] == \
            [d * lines[0].degree for d in (1, 2, 3)]


class TestKeptComplex:
    """A graph's complex is built on the first call and kept on it."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every complex built, in order."""
        built = []
        init = ChainComplexPair.__init__

        def counted_init(cc, *args):
            init(cc, *args)
            built.append(cc)

        monkeypatch.setattr(ChainComplexPair, "__init__", counted_init)
        return built

    def test_second_call_returns_the_kept_complex(self, built):
        g = fx.pants()
        cc = relative_chain_complex(g)
        assert relative_chain_complex(g) is cc
        assert built == [cc]
        # an equal graph object has its own complex
        assert relative_chain_complex(fx.pants()) is not cc

    def test_kept_complex_is_read_only(self):
        cc = relative_chain_complex(fx.pants())
        for seq in (cc.plus, cc.minus, cc.h1_basis, cc.h1_basis[0]):
            with pytest.raises(TypeError):
                seq[0] = seq[0]

    def test_inadmissible_graph_raises_every_call(self, built):
        g = load(data_path("embedded_z.fg"))
        for _ in range(2):
            with pytest.raises(NotAdmissible):
                relative_chain_complex(g)
            assert g._cc is None
        assert built == []

    def test_glued_graph_complex_comes_from_the_gluing(self, built):
        # a caller that glues, then asks for the glued graph's complex
        a, b, m = subdivision_match(fx.pants(), fx.cylinder())
        gluing_det_iso(a, b, m, 1)
        before = len(built)
        cc = relative_chain_complex(gluing.glue(a, b, m))
        assert len(built) == before
        assert any(cc is kept for kept in built)

    def test_census_collapses_build_one_complex_per_graph(self, built):
        singles, pairs = census_collapse_pairs(4)
        ms = singles + [compose(m2, m1) for m2, m1 in pairs]
        assert (len(ms), len(pairs)) == (2204, 966)
        graphs = {id(g) for m in ms for g in (m.source, m.target)}
        del built[:]
        signs = [morphism_det_sign(m) for m in ms]
        assert len(built) == len(graphs) == 2679

        def fresh(g):
            return parse_graph(serialize(g))

        # each sign again from scratch, on copies that share nothing
        for m, sign in zip(ms, signs):
            twin = Morphism(fresh(m.source), fresh(m.target),
                            m.vertex_map, m.half_map)
            assert morphism_det_sign(twin) == sign
        for (m2, m1), sign in zip(pairs, signs[len(singles):]):
            assert sign == morphism_det_sign(m2) * morphism_det_sign(m1)


def reference_rref(m):
    """Leftmost-pivot reduced row echelon form over the rationals, every
    row update dense."""
    r = [[Fraction(x) for x in row] for row in m]
    rows = len(r)
    cols = len(r[0]) if rows else 0
    pivots = []
    lead = 0
    for col in range(cols):
        pivot = next((i for i in range(lead, rows) if r[i][col] != 0), None)
        if pivot is None:
            continue
        r[lead], r[pivot] = r[pivot], r[lead]
        pv = r[lead][col]
        r[lead] = [x / pv for x in r[lead]]
        for i in range(rows):
            if i != lead and r[i][col] != 0:
                f = r[i][col]
                r[i] = [a - f * b for a, b in zip(r[i], r[lead])]
        pivots.append(col)
        lead += 1
        if lead == rows:
            break
    return r, pivots


def reference_connecting_split(cols, n0):
    """``(kernel, pivots, complement)`` of the map with columns ``cols``
    by two dense reductions: ``delta`` alone, then ``[delta_piv | I]``."""
    n = len(cols)
    delta = [[Fraction(v[i]) for v in cols] for i in range(n0)]
    r, piv = reference_rref(delta) if n0 and n else ([], [])
    kernel = []
    for j in range(n):
        if j not in piv:
            v = [0] * n
            v[j] = 1
            for row, p in zip(r, piv):
                v[p] = -row[j]
            kernel.append(v)
    _, pivots = reference_rref([[Fraction(cols[p][i]) for p in piv]
                                + [int(k == i) for k in range(n0)]
                                for i in range(n0)])
    return kernel, piv, [c - len(piv) for c in pivots if c >= len(piv)]


def reference_integer_split(cols, n0):
    """:func:`reference_connecting_split` with its kernel back in the
    integers that the determinants take."""
    kernel, pivots, comp = reference_connecting_split(cols, n0)
    assert all(x.denominator == 1 for v in kernel for x in v)
    return [[int(x) for x in v] for v in kernel], pivots, comp


def assert_matches_reference(cc, d):
    """Bases, classes and coordinates of ``cc`` equal those of dense row
    reduction of the differential ``d`` and of its transpose."""
    n1, n0 = len(cc.basis1), len(cc.basis0)
    r, piv1 = reference_rref(d)
    free1 = [j for j in range(n1) if j not in piv1]
    h1 = []
    for j in free1:
        v = [Fraction(0)] * n1
        v[j] = Fraction(1)
        for row, p in zip(r, piv1):
            v[p] = -row[j]
        h1.append(v)
    rT, piv0 = reference_rref([list(col) for col in zip(*d)])
    free0 = [i for i in range(n0) if i not in piv0]
    assert [list(v) for v in cc.h1_basis] == h1
    assert list(cc._free1) == free1
    assert list(cc._free0) == free0
    for i in range(n0):
        w = [Fraction(int(k == i)) for k in range(n0)]
        for row, p in zip(rT, piv0):
            if w[p] != 0:
                f = w[p]
                w = [a - f * b for a, b in zip(w, row)]
        assert cc.h0_class([int(k == i) for k in range(n0)]) == \
            [w[k] for k in free0]
    for q, vec in enumerate(h1):
        assert cc.h1_coords(vec) == [int(k == q) for k in range(len(h1))]
    combo = [sum((k + 1) * vec[j] for k, vec in enumerate(h1))
             for j in range(n1)]
    assert cc.h1_coords(combo) == list(range(1, len(h1) + 1))
    chain = [Fraction(j + 1, 2) for j in range(n1)]
    assert cc.boundary(chain) == [sum(x * y for x, y in zip(row, chain))
                                  for row in d]


def dropped_leaf_cells(g1, data):
    """``(half-edges, 0-cells)`` of the first graph's matched outgoing
    leaf cells, which a gluing cuts out of its complex."""
    halves = {h for h in g1.base.half_edges if data.halves[0][h] is None}
    cells = {("E", e) for e in g1.base.edges() if data.edges[0][e] is None}
    cells.update(("V", v) for v in g1.base.vertices
                 if data.vertices[0][v] is None)
    return halves, cells


def six_term_drop_scalar(cc, halves, cells):
    """``(subcomplex, scalar)`` of a drop, from the six-term sequence of
    the subcomplex, ``cc`` and the quotient of the dropped cells."""
    (keep1, drop1), (keep0, drop0) = ([], []), ([], [])
    for i, lab in enumerate(cc.basis1):
        (drop1 if lab in halves else keep1).append(i)
    for i, lab in enumerate(cc.basis0):
        (drop0 if lab in cells else keep0).append(i)
    sub = homology._restrict(cc, keep1, keep0)
    quot = homology._restrict(cc, drop1, drop0)
    assert (quot.rank_h1, quot.rank_h0) == (0, 0)
    return sub, homology._ses_det_scalar(sub, cc, quot, keep1, keep0,
                                         drop1, drop0)


@st.composite
def incidence_columns(draw, max_n0, max_n):
    """``(n0, columns)`` of a random incidence matrix over ``n0`` nodes
    and ground: each column is an arc between two random nodes, ground
    left out, so a loop or an arc at ground alone is a zero column."""
    n0 = draw(st.integers(0, max_n0))
    cols = []
    for _ in range(draw(st.integers(0, max_n))):
        col = [0] * (n0 + 1)
        col[draw(st.integers(0, n0))] += 1
        col[draw(st.integers(0, n0))] -= 1
        cols.append(col[:n0])
    return n0, cols


class TestDenseReference:
    """The union-find bases against dense leftmost-pivot row reduction."""

    def test_census_complexes(self):
        ocs = admissible_census_decorations(4)
        assert len(ocs) > 600
        for oc in ocs:
            cc = relative_chain_complex(oc)
            assert_matches_reference(cc, graph_differential(oc, cc))

    def test_gluing_complexes(self, monkeypatch):
        # every complex a fixture gluing builds: the inputs, the
        # subcomplex left by the dropped cells and the glued graph's own
        # complex
        built = []
        init = ChainComplexPair.__init__

        def recorded_init(cc, *args):
            init(cc, *args)
            built.append(cc)

        monkeypatch.setattr(ChainComplexPair, "__init__", recorded_init)
        for a, b, m in fixture_gluings():
            gluing_det_iso(a, b, m, 1)
        skew_associativity_sign(1)
        assert len(built) > 40
        assert any(cc.rank_h0 for cc in built)
        for cc in built:
            assert_matches_reference(cc, arcs_differential(cc))

    def test_drop_scalar_is_the_six_term_scalar(self):
        # the leaf drop read as a quasi-isomorphism gives the very
        # Fraction that the six-term sequence of its acyclic quotient
        # gives
        scalars = []
        for a, b, m in fixture_gluings() + skew_stackings() + \
                interleaved_tori_drops():
            _, data = gluing.glue(a, b, m, with_data=True)
            halves, cells = dropped_leaf_cells(a, data)
            if not cells:
                continue
            cc = relative_chain_complex(a)
            sub, scalar = homology._drop_scalar(cc, halves, cells)
            ref_sub, ref = six_term_drop_scalar(cc, halves, cells)
            assert type(scalar) is Fraction and scalar == ref
            assert (sub.basis1, sub.basis0, sub.plus, sub.minus) == \
                (ref_sub.basis1, ref_sub.basis0, ref_sub.plus, ref_sub.minus)
            scalars.append(scalar)
        assert len(scalars) == 12
        # with interleaved names the leaf drop at slot 0 reverses the
        # orientation of the determinant line
        assert scalars[-2:] == [-1, 1]
        assert [gluing_det_iso(a, b, m, 1).scalar
                for a, b, m in interleaved_tori_drops()] == [1, -1]
        # and the leaf of every closed outgoing circle of the census
        # through 4 edges
        for oc in admissible_census_decorations(4):
            cc = relative_chain_complex(oc)
            for v in set(oc.out_leaves) & set(oc.closed):
                e = oc.base.edge_of(oc.base.leaf_half(v))
                halves = set(oc.base.edge_halves(e))
                cells = {("E", e), ("V", v)}
                _, scalar = homology._drop_scalar(cc, halves, cells)
                assert scalar == six_term_drop_scalar(cc, halves, cells)[1]
                scalars.append(scalar)
        assert len(scalars) == 162
        assert -1 in scalars

    def test_drop_rejects_bad_cell_sets(self):
        g = fx.pants()
        cc = relative_chain_complex(g)
        leaf = g.out_leaves[0]
        edge = g.base.edge_of(g.base.leaf_half(leaf))
        halves = set(g.base.edge_halves(edge))
        # the leaf edge's kept half still ends on the dropped vertex
        with pytest.raises(InvariantViolation, match="does not commute"):
            homology._drop_scalar(cc, set(), {("V", leaf)})
        # the kept leaf vertex becomes a new H0 class
        with pytest.raises(ResultInvalid, match="quasi-isomorphism"):
            homology._drop_scalar(cc, halves, {("E", edge)})
        sub, scalar = homology._drop_scalar(cc, halves,
                                            {("E", edge), ("V", leaf)})
        assert (sub.rank_h1, sub.rank_h0) == (cc.rank_h1, cc.rank_h0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_incidence_matrices(self, data):
        # arcs between random nodes, ground (index n0) included, loops
        # too; the 0-cells often split into components not joined to
        # ground
        n0 = data.draw(st.integers(0, 6))
        n1 = data.draw(st.integers(0, 8))
        ends = st.lists(st.integers(0, n0), min_size=n1, max_size=n1)
        cc = ChainComplexPair(range(n1), range(n0), data.draw(ends),
                              data.draw(ends))
        assert_matches_reference(cc, arcs_differential(cc))
        assert cc.rank_h0 - cc.rank_h1 == n0 - n1

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rref_matches_dense_rref(self, data):
        # incidence matrices are totally unimodular: the integer
        # reduction meets only +-1 pivots and equals the rational one
        n0, cols = data.draw(incidence_columns(4, 5))
        m = [list(row) for row in zip(*cols)]
        r, pivots = linalg.rref(m)
        assert (r, pivots) == reference_rref(m)
        assert all(type(x) is int for row in r for x in row)
        # any other pivot raises instead of dividing
        for bad in ([[2, 1]], [[1, 1], [1, -1]], [[0, -3], [0, 1]]):
            with pytest.raises(InvariantViolation, match="pivot"):
                linalg.rref(bad)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_connecting_split_matches_two_reductions(self, data):
        # the spanning forest of the columns' arcs against the kernel of
        # delta's own reduction and the pivots of [delta_piv | I] over it
        n0, cols = data.draw(incidence_columns(5, 6))
        kernel, pivots, comp = homology._split_connecting(cols, n0)
        ref_kernel, ref_pivots, _ = reference_connecting_split(cols, n0)
        assert (kernel, pivots) == (ref_kernel, ref_pivots)
        # the units at the complement complete the image to a basis of
        # the integer lattice
        assert comp == sorted(set(comp))
        units = [[int(k == q) for k in range(n0)] for q in comp]
        assert linalg.det([cols[p] for p in pivots] + units) in (1, -1)
        # a column that is not an arc raises
        if n0 and cols:
            j = data.draw(st.integers(0, len(cols) - 1))
            i = data.draw(st.integers(0, n0 - 1))
            bad = [list(col) for col in cols]
            if n0 > 1 and data.draw(st.booleans()):
                bad[j] = [0] * n0
                bad[j][i] = bad[j][(i + 1) % n0] = 1
            else:
                bad[j][i] = 2
            with pytest.raises(InvariantViolation, match="incidence"):
                homology._split_connecting(bad, n0)

    def test_integer_checks_raise_under_optimize(self):
        script = (
            "from fractions import Fraction\n"
            "from fatcob import homology, linalg\n"
            "from fatcob.errors import InvariantViolation\n"
            "assert False, 'asserts are on'\n"
            "for call in (lambda: linalg.rref([[1, 1], [1, -1]]),\n"
            "             lambda: linalg.det([[Fraction(1)]]),\n"
            "             lambda: homology._split_connecting([[2]], 1),\n"
            "             lambda: homology._split_connecting([[1, 1]], 2)):\n"
            "    try:\n"
            "        call()\n"
            "    except InvariantViolation as exc:\n"
            "        print('raised', exc)\n")
        out = run_optimized(script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "raised row reduction met the pivot -2, not +-1",
            "raised determinant needs integer entries",
            "raised connecting map is not an incidence matrix",
            "raised connecting map is not an incidence matrix"]

    def test_reference_split_keeps_the_gluing_scalar(self, monkeypatch):
        # the two dense reductions in place of the spanning forest give
        # every fuzzed gluing with a nonzero H0(A) the same scalar
        split = homology._split_connecting
        ranks, nonzero = [], []

        def spy(cols, n0):
            ranks.append(n0)
            nonzero.append(any(map(any, cols)))
            return split(cols, n0)

        cases = []
        monkeypatch.setattr(homology, "_split_connecting", spy)
        for g1, g2, pairs in fuzz_compositions():
            a, b, m = subdivision_match(g1, g2, pairs)
            scalar = homology._compute_gluing_scalar(a, b, m)
            if ranks.pop():
                cases.append((a, b, m, scalar))
        assert len(cases) > 20 and sum(nonzero) > 5
        monkeypatch.setattr(homology, "_split_connecting",
                            reference_integer_split)
        for a, b, m, scalar in cases:
            assert homology._compute_gluing_scalar(a, b, m) == scalar

    @pytest.mark.parametrize("pairs, column, scalar", [
        ([(0, 0), (1, 1)], [1, -1], Fraction(1)),
        ([(0, 1), (1, 0)], [-1, 1], Fraction(-1))])
    def test_two_h0_classes_joined_by_the_connecting_map(
            self, monkeypatch, pairs, column, scalar):
        # two caps into the pants: the caps are two H0 classes of the
        # first complex and the connecting map is one arc joining them,
        # so its unit complement is where the forest and dense reduction
        # part: the forest keeps the last node of the class, reduction
        # the first.  The scalar is the same either way
        a, b, m = subdivision_match(fx.oc_disjoint_union(cap(), cap()),
                                    fx.pants(), pairs)
        split = homology._split_connecting
        seen = []

        def spy(cols, n0):
            seen.append((n0, cols))
            return split(cols, n0)

        monkeypatch.setattr(homology, "_split_connecting", spy)
        got = homology._compute_gluing_scalar(a, b, m)
        assert (type(got), got, seen) == (Fraction, scalar, [(2, [column])])
        assert split([column], 2) == ([], [0], [1])
        assert reference_connecting_split([column], 2) == ([], [0], [0])
        monkeypatch.setattr(homology, "_split_connecting",
                            reference_integer_split)
        assert homology._compute_gluing_scalar(a, b, m) == scalar

    def test_out_of_range_endpoints_raise_under_optimize(self):
        # one 0-cell, so ground is 1 and the endpoints must lie in 0..1
        script = (
            "from fatcob.errors import InvariantViolation\n"
            "from fatcob.homology import ChainComplexPair\n"
            "assert False, 'asserts are on'\n"
            "for plus, minus in (([2], [1]), ([0], [-1]), ([0, 0], [1])):\n"
            "    try:\n"
            "        ChainComplexPair(['h'], ['v'], plus, minus)\n"
            "    except InvariantViolation as exc:\n"
            "        print('raised', exc)\n")
        out = run_optimized(script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "raised arc endpoints do not lie on the 0-cells and ground"] * 3


class TestCylinderIdentity:
    def test_composing_with_a_cylinder_is_trivial(self):
        # gluing on a cylinder and carrying the determinant line back
        # through the graph isomorphism must be the identity exactly
        from fatcob.homology import (_gluing_scalar, _induced_h0_matrix,
                                     _induced_h1_matrix)
        from fatcob.morphisms import find_isomorphism

        def morphism_det_scalar(m):
            cm = chain_map_of_morphism(m)
            det1 = linalg.det(_induced_h1_matrix(
                cm.source_cc, cm.target_cc, cm.f_eH))
            det0 = linalg.det(_induced_h0_matrix(
                cm.source_cc, cm.target_cc, cm.f_eEV))
            return det1 / det0

        jobs = [(g, fx.cylinder(), g)
                for g in (fx.cylinder(), fx.pants(), fx.mouthpiece())]
        jobs.append((fx.cylinder(), fx.pants(), fx.pants()))
        for g1, g2, original in jobs:
            a, b, m = subdivision_match(g1, g2, [(0, 0)])
            scalar = _gluing_scalar(a, b, m)
            glued = gluing.glue(a, b, m)
            back = find_isomorphism(glued, original)
            assert back is not None
            assert scalar * morphism_det_scalar(back) == 1


def off_circle_collapses(g, circle_halves):
    """Every single-edge collapse of ``g`` off the edges of
    ``circle_halves`` and of its special leaves, as a morphism."""
    circle = {g.base.edge_of(h) for h in circle_halves}
    one_edge = [f for f in single_edges(g.base) if f[0] not in circle]
    return [m for _, m in collapses_off_leaves(g, one_edge)]


def reversed_names(g):
    """The isomorphism from the decorated graph ``g`` onto a copy whose
    vertex and edge names sort in the reverse order."""
    b = g.base
    vs, es = sorted(b.vertices), sorted(b.edges())
    vmap = {v: "w%03d" % (len(vs) - i) for i, v in enumerate(vs)}
    emap = {e: "f%03d" % (len(es) - i) for i, e in enumerate(es)}
    copy = decorate(b.relabel(vmap, emap),
                    [vmap[v] for v in g.in_leaves],
                    [vmap[v] for v in g.out_leaves],
                    [vmap[v] for v in g.closed])
    hmap = {h: emap[b.edge_of(h)] + h[-2:] for h in b.half_edges}
    return Morphism(g, copy, vmap, hmap)


def assert_natural(a, b, m, m1, m2):
    """The gluing isomorphisms of ``m`` and of the targets of ``m1`` and
    ``m2`` differ by the det-line signs, in degrees 0 to 3.  Returns
    whether the signs matter: the glued morphism's sign is not the
    product of the two."""
    index_pairs = [(p.out_index, p.in_index) for p in m.pairs]
    m12 = glue_morphisms(m1, m2, m)
    tm = gluable(m1.target, m2.target, index_pairs)
    s12 = morphism_det_sign(m12)
    s = morphism_det_sign(m1) * morphism_det_sign(m2)
    for d in range(4):
        before = gluing_det_iso(a, b, m, d)
        after = gluing_det_iso(m1.target, m2.target, tm, d)
        assert after.degree == before.degree
        assert after.scalar * s ** d == s12 ** d * before.scalar
    return s12 != s


def side_morphisms(a, b, m, extra=lambda g: ()):
    """``(side, m1, m2)``: each single-edge collapse of either side off
    its matched circles, then ``extra(g)`` of that side, against the
    identity of the other side."""
    for side, g in ((1, a), (2, b)):
        circles = [h for p in m.closed_pairs
                   for h in (p.a_halves if side == 1 else p.b_halves)]
        for c in off_circle_collapses(g, circles) + list(extra(g)):
            yield (side, c if side == 1 else identity_morphism(a),
                   c if side == 2 else identity_morphism(b))


class TestGluingNaturality:
    """The gluing isomorphism commutes with collapses and renamings on
    either side."""

    def test_single_edge_collapses_off_the_matched_circles(self):
        tested = {1: 0, 2: 0}
        for a, b, m in fixture_gluings():
            for side, m1, m2 in side_morphisms(a, b, m):
                assert_natural(a, b, m, m1, m2)
                tested[side] += 1
        assert tested == {1: 4, 2: 18}

    def test_census_gluings_and_renamings(self):
        # every one-pair gluing of two admissible census decorations
        # through 3 edges, with at most 4 edges in all, under the
        # collapses and the renaming of either side.  Renaming a second
        # side with two incoming intervals can change the gluing scalar's
        # sign; then only the det-line signs make up for it
        decorated = admissible_census_decorations(3)
        gluings = tested = signed = 0
        for g1 in decorated:
            for g2 in decorated:
                if g1.base.num_edges() + g2.base.num_edges() > 4:
                    continue
                for oi in range(len(g1.out_leaves)):
                    for ii in range(len(g2.in_leaves)):
                        try:
                            a, b, m = subdivision_match(g1, g2, [(oi, ii)])
                        except (SignatureMismatch, EdgeCountMismatch):
                            continue
                        gluings += 1
                        for _, m1, m2 in side_morphisms(
                                a, b, m, lambda g: [reversed_names(g)]):
                            signed += assert_natural(a, b, m, m1, m2)
                            tested += 1
        assert (gluings, tested, signed) == (395, 961, 38)


class TestSkewAssociativity:
    def test_sign_pattern(self):
        assert skew_associativity_sign(0) == 1
        assert skew_associativity_sign(1) == -1
        assert skew_associativity_sign(2) == 1
        assert skew_associativity_sign(3) == -1

    def test_every_common_collapse_target_gives_minus_one(self):
        inner, outer, _ = skew_stackings()[0]
        left, right = (homology._stacking_closure(inner, outer, slot)
                       for slot in (0, 1))
        assert left[0] == right[0] == 1
        common = left[1].keys() & right[1].keys()
        assert (len(left[1]), len(right[1]), len(common)) == (10, 10, 4)
        assert [homology._transport_ratio(left, right, key)
                for key in sorted(common)] == [-1] * 4

    def test_sign_comes_from_the_collapses(self, monkeypatch):
        # both gluing scalars are 1, so the -1 is the collapses' det-line
        # signs
        monkeypatch.setattr(homology, "morphism_det_sign", lambda m: 1)
        assert skew_associativity_sign(1) == 1


def cofactor_det(m):
    """Laplace expansion along the first row, in exact arithmetic."""
    if not m:
        return 1
    return sum((-1) ** j * x * cofactor_det([row[:j] + row[j + 1:]
                                             for row in m[1:]])
               for j, x in enumerate(m[0]) if x)


@st.composite
def square_matrices(draw):
    """Integer square matrices up to 6x6, often with a zero leading
    pivot or a row that is a multiple of another."""
    n = draw(st.integers(0, 6))
    ints = st.integers(-4, 4)
    m = draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    if n and draw(st.booleans()):
        m[0][0] = 0
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        c = draw(ints)
        m[i] = [c * x for x in m[j]]
    return m


def count_fractions(monkeypatch):
    """From now on, record the arguments of every ``Fraction`` made in
    the returned list."""
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return made


class TestIntegerArithmetic:
    """Homology vectors and determinants are ints; ``Fraction`` appears
    only in the det-line scalars, the ratios of determinants."""

    FIXTURES = (fx.interval, fx.cylinder, fx.pants, fx.mouthpiece, fx.flaps,
                fx.torus_with_out, fx.open_closed_example, fx.interval_in_in)

    GLUINGS = ((fx.cylinder, fx.cylinder, None),
               (fx.pants, fx.cylinder, None),
               (fx.mouthpiece, fx.cylinder, None),
               (fx.interval, fx.mouthpiece, None),
               (fx.pants, lambda: fx.subdivided_incoming(fx.pants(), 6),
                [(0, 0)]),
               (fx.open_closed_example, fx.flaps, None),
               (lambda: fx.oc_disjoint_union(fx.torus_with_out(),
                                             fx.cylinder()),
                fx.pants, None))

    @settings(max_examples=200, deadline=None)
    @given(square_matrices())
    def test_det_matches_cofactor_expansion(self, m):
        before = [list(row) for row in m]
        d = linalg.det(m)
        assert type(d) is int
        assert d == cofactor_det(m)
        assert m == before

    def test_det_edge_cases(self):
        for m, d in (([], 1), ([[0, 1], [1, 0]], -1),
                     ([[0, 2, 1], [0, 1, 3], [4, 0, 0]], 20),
                     ([[0, 0], [0, 5]], 0), ([[3]], 3)):
            assert linalg.det(m) == d and type(linalg.det(m)) is int
        for m in ([[1, 2]], [[1], [2]], [[1, 2], [3]]):
            with pytest.raises(InvariantViolation, match="square"):
                linalg.det(m)
        # a Fraction or a float raises, even an integral one
        for m in ([[Fraction(1, 2), 1], [1, 2]], [[Fraction(1)]],
                  [[1, 0], [0, 1.0]]):
            with pytest.raises(InvariantViolation, match="integer"):
                linalg.det(m)

    def test_linalg_has_no_fractions(self):
        assert not hasattr(linalg, "Fraction")
        assert not hasattr(linalg, "math")

    def test_fixture_complexes_hold_ints(self):
        graphs = [mk() for mk in self.FIXTURES]
        graphs.append(fx.subdivided_incoming(fx.pants(), 6))
        graphs.append(fx.oc_disjoint_union(fx.torus_with_out(),
                                           fx.cylinder()))
        ranks = set()
        for g in graphs:
            cc = relative_chain_complex(g)
            ranks.add((cc.rank_h1 > 0, cc.rank_h0 > 0))
            n1 = len(cc.basis1)
            units = [[int(k == j) for k in range(n1)] for j in range(n1)]
            vecs = (list(cc.h1_basis) + cc.h0_basis
                    + [cc.boundary(v) for v in list(cc.h1_basis) + units]
                    + [cc.h0_class(cc.boundary(v)) for v in units]
                    + [cc.h1_coords(v) for v in cc.h1_basis])
            assert all(type(x) is int for v in vecs for x in v), g
            # incidence columns are totally unimodular: solve meets only
            # +-1 pivots and its solutions stay integral
            dense = homology._dense(cc, range(n1))
            for v in units:
                x = linalg.solve(dense, cc.boundary(v))
                assert x is not None
                assert all(type(y) is int for y in x)
        assert {(True, False), (True, True)} <= ranks

    def test_gluing_scalars_are_fractions(self):
        for mk1, mk2, pairs in self.GLUINGS:
            a, b, m = subdivision_match(mk1(), mk2(), pairs)
            for d in range(4):
                assert type(gluing_det_iso(a, b, m, d).scalar) is Fraction

    def test_no_fraction_while_building_or_mapping(self, monkeypatch):
        singles, _ = census_morphism_pairs(3)
        assert len(singles) >= 20
        graphs = [mk() for mk in self.FIXTURES]
        made = count_fractions(monkeypatch)
        for g in graphs:
            relative_chain_complex(g)
        for m in singles:
            cm = chain_map_of_morphism(m)
            A, B = cm.source_cc, cm.target_cc
            homology._induced_h1_matrix(A, B, cm.f_eH)
            homology._induced_h0_matrix(A, B, cm.f_eEV)
        assert made == []
        # nor does a determinant; the counter does see the det-line
        # scalar's Fraction
        assert linalg.det([[2]]) == 2 and made == []
        gluing_det_iso(*subdivision_match(fx.cylinder(), fx.cylinder()), 1)
        assert made

    def test_morphism_det_sign_makes_no_fraction(self, monkeypatch):
        singles, pairs = census_morphism_pairs(3)
        ms = singles + [compose(m2, m1) for m2, m1 in pairs]
        assert len(ms) > 150
        made = count_fractions(monkeypatch)
        signs = [morphism_det_sign(m) for m in ms]
        assert made == []
        assert set(signs) == {1, -1}
