"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or in
the captured output summary); every bound asserted here is part of the
contract, none is calibrated after the fact.
"""

import os
import random
import time
from itertools import islice
from math import comb, factorial

import make_golden
from band_oracle import band_surface_invariants
from conftest import DATA_DIR, GOLDEN_DIR
from fatcob import fixtures as fx
from fatcob.census import enumerate_fat_graphs, genus_distribution
from fatcob.fgformat import parse_graph, serialize
from fatcob.gluing import glue, subdivision_match
from fatcob.homology import (
    morphism_det_sign,
    operation_degree,
    relative_chain_complex,
    skew_associativity_sign,
)
from fatcob.morphisms import (
    canonical_form,
    collapse_edges,
    compose,
    validate_morphism,
)
from fatcob.openclosed import cobordism_signature, incoming_partition

from corpus import admissible_census_decorations, census_morphism_pairs, \
    collapses_off_leaves, composed_signature_oracle, composition_cases, \
    forests, glued_component_data, random_relabel, single_edges, strip_names


def ok(line):
    print("PASS " + line)


def test_criterion_01_figure4_reproduction():
    t0 = time.perf_counter()
    g = fx.figure4()
    cycles = g.boundary_cycles().cycles
    comp = g.surface_invariants().components[0]
    elapsed = time.perf_counter() - t0
    assert cycles == (("A.0", "B.1", "C.0", "D.1"),
                      ("A.1", "B.0", "C.1", "D.0"))
    assert (comp.euler_characteristic, comp.genus, comp.boundary_count) \
        == (-2, 1, 2)
    assert elapsed < 0.001
    ok("criterion 1: figure-4 walk and invariants reproduced "
       "in %.3f ms" % (elapsed * 1e3))


def test_criterion_02_face_tracing_oracle_six_edges():
    t0 = time.perf_counter()
    entries = enumerate_fat_graphs(6)
    checked = 0
    for e in entries:
        assert band_surface_invariants(e.graph) == \
            [(e.genus, e.boundary_count, e.euler_characteristic)], e.canon
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == len(entries) and checked > 10000
    assert elapsed < 60.0
    ok("criterion 2: band-surface oracle agrees on all %d classes "
       "with <= 6 edges in %.1f s" % (checked, elapsed))


def test_criterion_03_pairing_census():
    t0 = time.perf_counter()
    expected = {1: (1, {0: 1}), 2: (3, {0: 2, 1: 1}), 3: (15, {0: 5, 1: 10})}
    for n, (total, dist) in expected.items():
        entries = enumerate_fat_graphs(n, one_vertex=True, exact_edges=True)
        assert sum(e.n_pairings for e in entries) == total
        assert genus_distribution(entries) == dist
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    ok("criterion 3: one-vertex pairing counts 1/3/15 with genus "
       "distributions (1,0)/(2,1)/(5,10) in %.2f s" % elapsed)


def test_criterion_04_morphism_suite():
    pairs = triples = 0
    for entry in enumerate_fat_graphs(4):
        g = entry.graph
        before = sorted((c.genus, c.boundary_count, c.euler_characteristic)
                        for c in g.surface_invariants().components)
        for f1 in forests(g)[1:]:
            g1, m1 = collapse_edges(g, f1)
            okv, why = validate_morphism(m1)
            assert okv, why
            after = sorted(
                (c.genus, c.boundary_count, c.euler_characteristic)
                for c in g1.surface_invariants().components)
            assert before == after
            for f2 in forests(g1)[1:]:
                g2, m2 = collapse_edges(g1, f2)
                m21 = compose(m2, m1)
                okv, why = validate_morphism(m21)
                assert okv, why
                pairs += 1
                for f3 in forests(g2)[1:]:
                    _, m3 = collapse_edges(g2, f3)
                    left = compose(m3, m21)
                    right = compose(compose(m3, m2), m1)
                    assert left.half_map == right.half_map
                    assert left.vertex_map == right.vertex_map
                    triples += 1
    # decorated: cobordism signatures survive collapses
    sig_checked = 0
    for oc in admissible_census_decorations(3):
        collapses = collapses_off_leaves(oc, forests(oc.base)[1:])
        for out, _ in islice(collapses, 4):
            s0, s1 = cobordism_signature(oc), cobordism_signature(out)
            assert s0.source == s1.source and s0.target == s1.target
            assert sorted((c.genus, c.boundary_count)
                          for c in s0.components) == \
                sorted((c.genus, c.boundary_count) for c in s1.components)
            sig_checked += 1
    assert pairs > 500 and triples > 200 and sig_checked > 50
    ok("criterion 4: %d composable pairs, %d triples associative, "
       "%d decorated collapses preserve the cobordism type"
       % (pairs, triples, sig_checked))


def test_criterion_05_gluing_arithmetic():
    cases = composition_cases()
    assert len(cases) >= 20
    for a, b, m in cases:
        out = glue(a, b, m)
        open_pairs = sum(1 for p in m.pairs if p.kind == "interval")
        assert out.base.euler_characteristic() == \
            a.base.euler_characteristic() + b.base.euler_characteristic() \
            - open_pairs
        assert glued_component_data(out) == composed_signature_oracle(a, b, m)
    # associativity up to canonical form on matched triples
    cyl = fx.cylinder()
    c6 = fx.subdivided_incoming(fx.cylinder(), 6)
    p6 = fx.subdivided_incoming(fx.pants(), 6)
    checked = 0
    for x, y, z in ((cyl, cyl, cyl), (fx.pants(), c6, c6),
                    (fx.oc_disjoint_union(c6, c6), p6, c6)):
        x1, y1, mxy = subdivision_match(x, y)
        xy = glue(x1, y1, mxy)
        xy2, z1, m = subdivision_match(xy, z)
        left = glue(xy2, z1, m)
        y2, z2, myz = subdivision_match(y, z)
        yz = glue(y2, z2, myz)
        x2, yz2, m2 = subdivision_match(x, yz)
        right = glue(x2, yz2, m2)
        assert canonical_form(strip_names(left)) == \
            canonical_form(strip_names(right))
        checked += 1
    ok("criterion 5: chi additivity and surface-classification oracle on "
       "%d compositions; %d matched triples associative"
       % (len(cases), checked))


def test_criterion_06_homology_ranks():
    for mk, want in ((fx.cylinder, (0, 0)), (fx.pants, (1, 0)),
                     (fx.mouthpiece, (1, 0)), (fx.flaps, (1, 0))):
        cc = relative_chain_complex(mk())
        assert (cc.rank_h1, cc.rank_h0) == want
    count = 0
    for oc in admissible_census_decorations(3):
        cc = relative_chain_complex(oc)
        assert cc.rank_h0 - cc.rank_h1 == \
            incoming_partition(oc).euler_difference
        count += 1
    assert count > 100
    ok("criterion 6: fixture ranks (0,0)/(1,0)/(1,0)/(1,0); rank identity "
       "holds on %d admissible decorated census graphs" % count)


def test_criterion_07_degree_formula():
    for d in (1, 2, 3):
        assert operation_degree(fx.pants(), d) == -d
        assert operation_degree(fx.flaps(), d) == -d
        assert operation_degree(fx.cylinder(), d) == 0
    ok("criterion 7: degree -d for pants and flaps, 0 for the cylinder, "
       "d in {1,2,3}")


def test_criterion_08_sign_calculus():
    singles, pairs = census_morphism_pairs(4)
    assert len(pairs) >= 500 and len(singles) >= 500
    for m in singles:
        assert morphism_det_sign(m) in (1, -1)   # asserts f-vs-g inside
    for m2, m1 in pairs:
        assert morphism_det_sign(compose(m2, m1)) == \
            morphism_det_sign(m2) * morphism_det_sign(m1)
    fixture_collapses = 0
    negative = []
    for mk in (fx.cylinder, fx.pants, fx.mouthpiece, fx.flaps,
               fx.open_closed_example):
        for oc in (mk(), fx.subdivided_incoming(mk(), 3)):
            for _, m in collapses_off_leaves(oc, single_edges(oc.base)):
                sign = morphism_det_sign(m)
                assert sign in (1, -1)
                fixture_collapses += 1
                if sign == -1:
                    (edge,) = {oc.base.edge_of(h)
                               for h, img in m.half_map.items()
                               if img is None}
                    negative.append((mk.__name__, oc.base.num_edges(), edge))
    # 6 on the fixtures themselves, 18 once their inputs are subdivided;
    # collapsing r1 of the open-closed example reverses its det line
    assert fixture_collapses == 24
    assert negative == [("open_closed_example", 11, "r1"),
                        ("open_closed_example", 13, "r1")]
    signs = [skew_associativity_sign(d) for d in (0, 1, 2, 3)]
    assert signs == [1, -1, 1, -1]
    ok("criterion 8: det-sign functoriality on %d composable pairs, "
       "forward/section agreement throughout, stacking sign (-1)^d"
       % len(pairs))


def test_criterion_09_canonical_form():
    rng = random.Random(20260810)
    fixtures = [fx.figure4(), fx.single_loop(), fx.two_loops_torus(),
                fx.two_loops_planar(), fx.pants().base,
                fx.open_closed_example().base, fx.mouthpiece().base]
    for g in fixtures:
        want = canonical_form(g)
        for _ in range(200):
            assert canonical_form(random_relabel(g, rng)) == want
    entries = enumerate_fat_graphs(4)
    canons = [e.canon for e in entries]
    assert len(set(canons)) == len(canons)
    # completeness cross-check: class counts weighted by rootings match
    # the connected-pair recursion
    conn = {}

    def connected(n):
        if n not in conn:
            total = factorial(2 * n)
            for k in range(1, n):
                total -= comb(n - 1, k - 1) * connected(k) * factorial(2 * (n - k))
            conn[n] = total
        return conn[n]

    for n in range(1, 5):
        rooted = connected(n) * 2 * n // (2 ** n * factorial(n))
        exact = enumerate_fat_graphs(n, exact_edges=True)
        assert sum(2 * n // e.aut_size for e in exact) == rooted
    ok("criterion 9: 200 relabelings stable on %d fixtures; %d census "
       "classes pairwise distinct and complete against the rooted count"
       % (len(fixtures), len(canons)))


def test_criterion_10_cli_golden_files():
    for name, argv in sorted(make_golden.CASES.items()):
        code, out = make_golden.run(argv)
        assert code == 0, name
        with open(os.path.join(GOLDEN_DIR, name + ".txt"), "r",
                  encoding="utf-8") as fh:
            assert out == fh.read(), "golden mismatch: %s" % name
    round_trips = 0
    for fname in sorted(os.listdir(DATA_DIR)):
        if not fname.endswith(".fg"):
            continue
        with open(os.path.join(DATA_DIR, fname), "r", encoding="utf-8") as fh:
            text = fh.read()
        g = parse_graph(text)
        assert serialize(g) == text, fname
        round_trips += 1
    assert round_trips >= 13
    ok("criterion 10: %d golden outputs byte-identical; %d fixture "
       "round-trips exact" % (len(make_golden.CASES), round_trips))
