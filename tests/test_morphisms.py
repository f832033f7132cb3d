import random
from math import comb, factorial

import pytest

from fatcob import fixtures as fx
from fatcob.census import enumerate_fat_graphs, genus_distribution
from fatcob.errors import BoundExceeded, ForestContainsCycle, Mismatch
from fatcob.graphs import new_fat_graph
from fatcob.morphisms import (
    Morphism,
    canonical_form,
    collapse_edges,
    compose,
    find_isomorphism,
    identity_morphism,
    is_isomorphic,
    validate_morphism,
)
from fatcob.openclosed import cobordism_signature


def random_relabel(g, rng):
    vmap = {v: "rv%03d" % i for i, v in
            enumerate(rng.sample(list(g.vertices), len(g.vertices)))}
    edges = list(g.edges())
    emap = {e: "re%03d" % i for i, e in
            enumerate(rng.sample(edges, len(edges)))}
    return g.relabel(vmap, emap)


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

    def test_two_steps_equal_one(self):
        g = fx.pants().base
        one, m_one = collapse_edges(g, ["r1", "r2"])
        mid, m1 = collapse_edges(g, ["r1"])
        end, m2 = collapse_edges(mid, ["r2"])
        assert end == one
        both = compose(m2, m1)
        assert both.vertex_map == m_one.vertex_map
        assert both.half_map == m_one.half_map


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
            forests = [f for f in _forests(e.graph) if f]
            for f1 in forests[:3]:
                g1, m1 = collapse_edges(e.graph, f1)
                for f2 in [f for f in _forests(g1) if f][:2]:
                    g2, m2 = collapse_edges(g1, f2)
                    for f3 in [f for f in _forests(g2) if f][:2]:
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


def _forests(g):
    """Acyclic edge subsets that leave every component some edge."""
    edges = sorted(g.edges())
    comp_edges = {}
    for vs, hs in g.connected_components():
        vset = set(vs)
        comp_edges[vs[0]] = {e for e in edges
                             if g.source(g.edge_halves(e)[0]) in vset}
    out = [frozenset()]
    for e in edges:
        grown = []
        for f in out:
            cand = f | {e}
            if any(cand >= es for es in comp_edges.values()):
                continue
            try:
                collapse_edges(g, cand)
            except ForestContainsCycle:
                continue
            grown.append(cand)
        out.extend(grown)
    return [sorted(f) for f in out]


class TestMorphismInvariants:
    def test_collapses_preserve_surface_data(self):
        for e in enumerate_fat_graphs(3):
            g = e.graph
            before = sorted((c.genus, c.boundary_count)
                            for c in g.surface_invariants().components)
            for f in _forests(g):
                if not f:
                    continue
                out, m = collapse_edges(g, f)
                ok, why = validate_morphism(m)
                assert ok, why
                after = sorted((c.genus, c.boundary_count)
                               for c in out.surface_invariants().components)
                assert before == after


class TestCanonicalForm:
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
                g2 = random_relabel(oc.base, rng)
                # recover the leaf names under the relabeling
                iso = find_isomorphism(oc.base, g2)
                relabeled = type(oc)(
                    g2, [iso.vertex_map[v] for v in oc.in_leaves],
                    [iso.vertex_map[v] for v in oc.out_leaves],
                    {iso.vertex_map[v] for v in oc.closed})
                assert canonical_form(relabeled) == want

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

    def test_parallel_merge_matches_serial(self):
        serial = enumerate_fat_graphs(4)
        parallel = enumerate_fat_graphs(4, jobs=2)
        assert [(e.canon, e.n_pairings, e.aut_size) for e in serial] == \
            [(e.canon, e.n_pairings, e.aut_size) for e in parallel]

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
    code = bytes([len(valences)] + valences + [nl[inv[o]] for o in order])
    return code, nl


def _reference_min_code(sigma, inv, n):
    """``(code, aut, best_start)`` by trying every start."""
    codes = [_reference_relabel(sigma, inv, n, h0)[0] for h0 in range(n)]
    best = min(codes)
    return best, codes.count(best), codes.index(best)


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
                    want = want[0]
                    connected += 1
                assert _canon.census_code(sigma, m, n2, starts) == want, m
        assert connected > 2000

    def test_decorated_canonical_forms_match_all_starts(self):
        from fatcob.census import admissible_decorations
        decorated = [oc for e in enumerate_fat_graphs(3)
                     for oc in admissible_decorations(e.graph)]
        assert len(decorated) > 100
        for oc in decorated:
            assert canonical_form(oc) == _reference_canonical_form(oc)


def _reference_canonical_form(g):
    """``canonical_form`` of a decorated graph, trying every start."""
    from fatcob.morphisms import _decoration_entries, _dense
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
                for kind, gi, h, fl in _decoration_entries(g, hs)))
        codes.append(min(cands))
    return b"".join(len(c).to_bytes(2, "big") + c for c in sorted(codes))


class TestCensusChecks:
    def test_orbit_stabilizer_check_survives_optimize(self):
        import os
        import subprocess
        import sys

        import fatcob
        script = (
            "import fatcob._canon as k\n"
            "from fatcob.census import enumerate_fat_graphs\n"
            "from fatcob.errors import InvariantViolation\n"
            "assert False, 'asserts are on'\n"
            "real = k.min_code\n"
            "def wrong(*a):\n"
            "    code, aut, start = real(*a)\n"
            "    return code, aut + 1, start\n"
            "k.min_code = wrong\n"
            "try:\n"
            "    enumerate_fat_graphs(2)\n"
            "except InvariantViolation as exc:\n"
            "    print('raised', exc)\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(fatcob.__file__))))
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("raised census bookkeeping broken")

    def test_decorate_bug_propagates(self, monkeypatch):
        from fatcob import openclosed
        from fatcob.census import admissible_decorations

        def broken(*args, **kwargs):
            raise RuntimeError("bug in decorate")

        monkeypatch.setattr(openclosed, "decorate", broken)
        with pytest.raises(RuntimeError, match="bug in decorate"):
            admissible_decorations(fx.flaps().base)
