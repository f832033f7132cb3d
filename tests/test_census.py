"""The census tally by slot-group orbits, and its classes from integers.

The tally runs the canonical-labelling kernel once per orbit of the
slot group C(parts) and counts the pairings of a class by closing its
orbit over the stages of ``census._transversals``.  These tests hold
it to the per-pairing tally it replaced, which runs the kernel on
every pairing, and make each of its internal checks fire, also under
``python -O``.

A class becomes its entry where its orbit closes, without a named
graph: its automorphism count comes from the tally's kernel call and
its invariants from the face permutation of the witness.  The tests recompute both from scratch on
every class, and hold the graph to being built only on first use.
"""

import hashlib
from itertools import groupby
from operator import itemgetter

import pytest

from conftest import run_optimized
from fatcob import _canon, census, openclosed
from fatcob.census import (
    _centralizer_order,
    _indexed_pairings,
    _involutions,
    _partitions,
    _sigma_of_partition,
    _tally_partition,
    _transversals,
    _vertex_of_slot,
    enumerate_fat_graphs,
)
from fatcob.errors import BoundExceeded, InvalidParameter, InvariantViolation
from fatcob.graphs import new_fat_graph


def reference_tally(task, pairings):
    """The per-pairing tally: the kernel on every pairing; per code, the
    number of pairings, the automorphism count, which every pairing of
    the class must agree on, and the first pairing in list order."""
    n, parts = task
    sigma = _sigma_of_partition(parts)
    starts = _canon.min_valence_starts(sigma, 2 * n)
    tally = {}
    for m in pairings:
        found = _canon.census_code(sigma, m, 2 * n, starts)
        if found is None:
            continue
        code, aut = found
        hit = tally.get(code)
        if hit is None:
            tally[code] = [1, aut, (parts, m)]
        else:
            assert hit[1] == aut, (code, m)
            hit[0] += 1
    return tally


def census_tasks():
    """Every partition through 5 edges, and the one-vertex 6-edge one."""
    for n in range(1, 6):
        for parts in _partitions(2 * n, 2 * n, 1):
            yield n, parts
    yield 6, (12,)


class TestOrbitTally:
    def test_matches_per_pairing_reference(self):
        classes = 0
        for n, tasks in groupby(census_tasks(), key=itemgetter(0)):
            indexed = _indexed_pairings(2 * n)
            codes = set()
            for task in tasks:
                tally = {e.canon: [e.n_pairings, e.aut_size, e.witness]
                         for e in _tally_partition(task[1], indexed, codes)}
                assert tally == reference_tally(task, indexed[0]), task
                classes += len(tally)
        assert classes == 1004 + 902

    def test_transversals_multiply_out_to_the_slot_group(self):
        # one element or the identity per stage: every product is a
        # distinct symmetry of the slots, and there are |C(parts)|
        for n in (1, 2, 3, 4):
            n2 = 2 * n
            for parts in _partitions(n2, n2, 1):
                sigma = _sigma_of_partition(parts)
                products = {tuple(range(n2))}
                count = 1
                for stage in _transversals(parts):
                    for g in stage:
                        assert sorted(g) == list(range(n2))
                    products |= {tuple(g[s] for s in h)
                                 for h in products for g in stage}
                    count *= len(stage) + 1
                assert count == len(products) == _centralizer_order(parts), \
                    parts
                for g in products:
                    assert all(g[sigma[s]] == sigma[g[s]] for s in range(n2))


class TestOrbitChecks:
    def test_second_orbit_raises_under_optimize(self):
        # a kernel that gives every connected pairing one code, and its
        # true automorphism count: the second orbit to be closed reaches
        # that code again
        script = (
            "import fatcob._canon as k\n"
            "from fatcob.census import enumerate_fat_graphs\n"
            "from fatcob.errors import InvariantViolation\n"
            "assert False, 'asserts are on'\n"
            "real = k.census_code\n"
            "def same(*a):\n"
            "    found = real(*a)\n"
            "    return found and (b'same', found[1])\n"
            "k.census_code = same\n"
            "try:\n"
            "    enumerate_fat_graphs(2)\n"
            "except InvariantViolation as exc:\n"
            "    print('raised', exc)\n")
        out = run_optimized(script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("raised census code b'same'")
        assert "reached by a second orbit" in out.stdout

    def test_code_of_two_partitions_raises(self, monkeypatch):
        # one edge: each partition has a single pairing, so the repeat
        # shows only when (1, 1) reaches the code of (2,)
        real = _canon.census_code

        def same(*args):
            found = real(*args)
            return found and (b"same", found[1])

        monkeypatch.setattr(_canon, "census_code", same)
        with pytest.raises(InvariantViolation,
                           match=r"partition \(1, 1\) is reached by a "
                                 "second orbit"):
            enumerate_fat_graphs(1)

    def test_image_outside_the_pairings_raises_under_optimize(self):
        # a stage element that is not a permutation of the slots sends
        # a pairing to a tuple that is not a pairing
        script = (
            "import fatcob.census as c\n"
            "from fatcob.errors import InvariantViolation\n"
            "assert False, 'asserts are on'\n"
            "c._transversals = lambda parts: [[(0,) * sum(parts)]]\n"
            "try:\n"
            "    c.enumerate_fat_graphs(1)\n"
            "except InvariantViolation as exc:\n"
            "    print('raised', exc)\n")
        out = run_optimized(script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("raised image (0, 0) of pairing (1, 0)")

    def test_rotations_alone_are_caught(self, monkeypatch):
        # without the block permutations a class splits into several
        # orbits; the first of them to close is short, and the
        # orbit-stabilizer check sees that at its closure, before a later
        # orbit could reach the class's code again
        real = census._transversals

        def rotations(parts):
            block = _vertex_of_slot(parts)
            return [stage for stage in real(parts)
                    if all(block[t] == block[s]
                           for g in stage for s, t in enumerate(g))]

        monkeypatch.setattr(census, "_transversals", rotations)
        with pytest.raises(InvariantViolation,
                           match="census bookkeeping broken"):
            enumerate_fat_graphs(3)

    def test_non_symmetry_breaks_orbit_stabilizer(self, monkeypatch):
        # swapping two slots of one vertex does not commute with its
        # rotation; the orbits it closes merge classes, so the count
        # times the kernel's automorphism count overshoots |C(parts)|
        real = census._transversals

        def with_swap(parts):
            n2 = sum(parts)
            swap = list(range(n2))
            swap[0], swap[parts[0] - 1] = swap[parts[0] - 1], swap[0]
            return real(parts) + [[tuple(swap)]]

        monkeypatch.setattr(census, "_transversals", with_swap)
        with pytest.raises(InvariantViolation,
                           match="census bookkeeping broken"):
            enumerate_fat_graphs(2, one_vertex=True, exact_edges=True)


def small_census():
    """Every class through 5 edges and the one-vertex 6-edge classes."""
    return enumerate_fat_graphs(5) + enumerate_fat_graphs(
        6, one_vertex=True, exact_edges=True)


class TestClassesFromIntegers:
    def test_aut_and_invariants_match_recomputation(self):
        entries = small_census()
        assert len(entries) == 1004 + 902
        for e in entries:
            parts, pairing = e.witness
            sigma = _sigma_of_partition(parts)
            code, winners = _canon.min_code(sigma, pairing, 2 * e.n_edges)
            assert (code, len(winners)) == (e.canon, e.aut_size), e.witness
            comps = e.graph.surface_invariants().components
            assert [(c.genus, c.boundary_count, c.euler_characteristic)
                    for c in comps] == [
                (e.genus, e.boundary_count, e.euler_characteristic)]

    def test_graph_is_built_on_first_use_only(self, monkeypatch):
        calls = []
        real = census._build_graph

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(census, "_build_graph", counted)
        entries = enumerate_fat_graphs(3)
        assert sum(e.genus + e.boundary_count + e.euler_characteristic
                   + e.aut_size + e.n_pairings for e in entries) > 0
        assert calls == []
        e = entries[-1]
        assert e.graph is e.graph
        assert calls == [e.witness]

    def test_two_enumerations_compare_equal(self):
        first, second = enumerate_fat_graphs(4), enumerate_fat_graphs(4)
        first[-1].graph
        assert first == second
        assert set(first) == set(second)
        assert len(set(first)) == len(first)

    def test_wrong_graph_raises_under_optimize(self):
        # a builder that always returns the one-vertex torus: the entry
        # of the two-edge one-vertex sphere must refuse it
        script = (
            "import fatcob.census as c\n"
            "from fatcob.errors import InvariantViolation\n"
            "assert False, 'asserts are on'\n"
            "real = c._build_graph\n"
            "c._build_graph = lambda parts, m: real((4,), (2, 3, 0, 1))\n"
            "entries = c.enumerate_fat_graphs(2, one_vertex=True,\n"
            "                                 exact_edges=True)\n"
            "sphere = [e for e in entries if e.genus == 0][0]\n"
            "try:\n"
            "    sphere.graph\n"
            "except InvariantViolation as exc:\n"
            "    print('raised', exc)\n")
        out = run_optimized(script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("raised graph of census class")
        assert "has invariants [(1, 1, -1)], not the" in out.stdout


def recursive_involutions(n2):
    """The pairings of ``0..n2-1`` as the census listed them when it
    paired the first free slot with each later one, recursively."""
    out = []
    pairing = [-1] * n2

    def rec(free):
        if not free:
            out.append(tuple(pairing))
            return
        a = free[0]
        for i in range(1, len(free)):
            b = free[i]
            pairing[a] = b
            pairing[b] = a
            rec(free[1:i] + free[i + 1:])
        pairing[a] = -1
    rec(tuple(range(n2)))
    return out


def census_digest(entries):
    rows = [(e.canon, tuple(e.witness[1]), e.n_pairings, e.aut_size)
            for e in entries]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestPairingOrder:
    # the witness is the first pairing of its orbit in list order, so
    # the order decides which named graph ``CensusEntry.graph`` builds

    def test_involutions_match_the_recursion(self):
        for n2 in range(0, 13, 2):
            got = _involutions(n2)
            assert all(type(m) is bytes for m in got)
            assert [tuple(m) for m in got] == recursive_involutions(n2), n2

    def test_census_digests_are_pinned(self):
        assert census_digest(enumerate_fat_graphs(5)) == (
            "b545f4179dac8ec58be2b0dd698c4fc2798fbedf70c303526eeb44838b70cd9e")
        assert census_digest(enumerate_fat_graphs(
            6, one_vertex=True, exact_edges=True)) == (
            "4d1e20631d8ece72fc1f284cc73bd6dfb6f7997be90ddec89b99b9d064176290")


def unconnectable(n2, sigma):
    """Whether ``sigma`` on ``n2`` slots has more than ``n2 / 2 + 1``
    cycles, the most vertices a connected graph with ``n2 / 2`` edges
    can have."""
    seen = set()
    cycles = 0
    for s in range(n2):
        if s not in seen:
            cycles += 1
            while s not in seen:
                seen.add(s)
                s = sigma[s]
    return cycles > n2 // 2 + 1


class TestPartitionPruning:
    def test_unconnectable_partitions_have_no_connected_pairing(self):
        pruned = 0
        for n in range(1, 5):
            pairings = _involutions(2 * n)
            for parts in _partitions(2 * n, 2 * n, 1):
                if len(parts) > n + 1:
                    assert reference_tally((n, parts), pairings) == {}
                    pruned += 1
        assert pruned == 7

    def test_kernel_never_runs_on_them(self, monkeypatch):
        calls = []
        real = _canon.census_code
        want = enumerate_fat_graphs(4)

        def logged(sigma, inv, n, starts):
            calls.append(unconnectable(n, sigma))
            return real(sigma, inv, n, starts)

        monkeypatch.setattr(_canon, "census_code", logged)
        assert enumerate_fat_graphs(4) == want
        assert len(calls) > len(want)
        assert not any(calls)

    def test_more_than_128_edges_raise_at_once(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(census, "_partitions", no_work)
        monkeypatch.setattr(census, "_involutions", no_work)
        with pytest.raises(BoundExceeded, match="129 exceeds 128"):
            enumerate_fat_graphs(129, bound=129)
        with pytest.raises(BoundExceeded, match="129 exceeds 128"):
            enumerate_fat_graphs(129, bound=200, one_vertex=True)

    @pytest.mark.parametrize("bad", [2.5, True, False, "3", None])
    def test_edge_bound_that_is_no_int_is_refused(self, bad):
        # the count rule of the tensor powers; a bool is no count
        with pytest.raises(InvalidParameter,
                           match="max_edges must be a nonnegative int"):
            enumerate_fat_graphs(bad)

    @pytest.mark.parametrize("bad", [2.5, True, False, "5", -5])
    def test_bound_that_is_no_count_is_refused(self, bad):
        # the count rule of max_edges: "5" must not reach the
        # comparison, nor True pass as the bound 1
        with pytest.raises(InvalidParameter,
                           match="bound must be a nonnegative int"):
            enumerate_fat_graphs(1, bound=bad)

    def test_negative_edge_bound_keeps_its_error(self):
        with pytest.raises(BoundExceeded, match="must be nonnegative"):
            enumerate_fat_graphs(-1)
        with pytest.raises(BoundExceeded, match="must be nonnegative"):
            enumerate_fat_graphs(-1, bound=-5)


class TestOneVertexMinValence:
    def test_valences_below_the_minimum_are_skipped(self):
        # the one vertex of an n-edge graph has valence 2n
        for min_valence in (1, 3, 4, 5, 7):
            entries = enumerate_fat_graphs(3, one_vertex=True,
                                           min_valence=min_valence)
            assert {e.n_edges for e in entries} == {
                n for n in (1, 2, 3) if 2 * n >= min_valence}


def reference_decorations(graph):
    """``admissible_decorations`` by its former loop: every role
    assignment decorated and keyed by ``canonical_form`` on a fresh copy
    of ``graph``, so no key shares a kernel run."""
    from itertools import product
    from fatcob.errors import ClosedSharesCycle
    from fatcob.morphisms import canonical_form
    leaves = sorted(v for v in graph.vertices if graph.is_leaf(v))
    seen, out = set(), []
    for roles in product("-ioIO", repeat=len(leaves)):
        assign = list(zip(leaves, roles))
        try:
            oc = openclosed.decorate(
                graph.relabel(), [v for v, r in assign if r in "iI"],
                [v for v, r in assign if r in "oO"],
                {v for v, r in assign if r in "IO"})
        except ClosedSharesCycle:
            continue
        key = canonical_form(oc)
        if openclosed.is_admissible(oc)[0] and key not in seen:
            seen.add(key)
            out.append((oc, key))
    return out


class TestDecorationKeys:
    """The decorations of one graph share one kernel run, and their keys
    and order are those of keying each one on its own."""

    def test_census_decorations_through_4_edges(self, monkeypatch):
        from fatcob.morphisms import canonical_form
        runs = []
        real = _canon.min_code

        def counted(*args):
            runs.append(args)
            return real(*args)

        digest = hashlib.sha256()
        total = 0
        for e in enumerate_fat_graphs(4):
            want = reference_decorations(e.graph)
            monkeypatch.setattr(_canon, "min_code", counted)
            del runs[:]
            got = census.admissible_decorations(e.graph)
            keys = [canonical_form(oc) for oc in got]
            monkeypatch.setattr(_canon, "min_code", real)
            assert len(runs) == 1
            assert list(zip(got, keys)) == want
            for oc in got:
                digest.update(repr((oc.in_leaves, oc.out_leaves,
                                    sorted(oc.closed))).encode())
            total += len(got)
        assert total == 688
        assert digest.hexdigest() == ("25327e19e5661e7b782d38a6df3b9337"
                                      "9eaaf46ac8b9c7bd7fa509150812d784")


class TestRefusedDecorations:
    def test_skip_agrees_with_decorate(self, monkeypatch):
        # admissible_decorations builds exactly the role assignments that
        # decorate accepts, in product order, and skips the rest unbuilt
        from itertools import product
        from fatcob.errors import ClosedSharesCycle
        real = openclosed.decorate
        built = []

        def counted(*args):
            built.append(args)
            return real(*args)

        tried = refused = 0
        for e in enumerate_fat_graphs(4):
            g = e.graph
            leaves = sorted(v for v in g.vertices if g.is_leaf(v))
            accepted = []
            for roles in product("-ioIO", repeat=len(leaves)):
                assign = list(zip(leaves, roles))
                args = (g, [v for v, r in assign if r in "iI"],
                        [v for v, r in assign if r in "oO"],
                        {v for v, r in assign if r in "IO"})
                tried += 1
                try:
                    real(*args)
                except ClosedSharesCycle:
                    refused += 1
                    continue
                accepted.append(args)
            monkeypatch.setattr(openclosed, "decorate", counted)
            del built[:]
            census.admissible_decorations(g)
            monkeypatch.setattr(openclosed, "decorate", real)
            assert built == accepted
        assert (tried, refused) == (1970, 1064)


class TestDecorationBound:
    def test_more_than_six_leaves_raise_at_once(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(openclosed, "decorate", no_work)
        leaves = ["l%d" % i for i in range(7)]
        edges = [("e%d" % i, "c", v) for i, v in enumerate(leaves)]
        orders = {v: ["e%d.1" % i] for i, v in enumerate(leaves)}
        orders["c"] = ["e%d.0" % i for i in range(7)]
        star = new_fat_graph(["c"] + leaves, edges, orders)
        assert census.MAX_DECORATED_LEAVES == 6
        with pytest.raises(BoundExceeded, match="7 leaves is beyond the "
                                                "decoration bound 6"):
            census.admissible_decorations(star)


def harer_zagier(n):
    """Genus -> number of pairings of the sides of a ``2n``-gon giving a
    surface of that genus, by the Harer-Zagier recursion
    ``(k + 1) e_g(k) = 2 (2k - 1) e_g(k - 1)
    + (k - 1) (2k - 1) (2k - 3) e_{g-1}(k - 2)``
    (Invent. Math. 85, 1986), with ``e_0(0) = 1``."""
    eps = [{0: 1}]
    for k in range(1, n + 1):
        row = {}
        for g in range(k // 2 + 1):
            total = 2 * (2 * k - 1) * eps[k - 1].get(g, 0)
            if k >= 2 and g >= 1:
                total += ((k - 1) * (2 * k - 1) * (2 * k - 3)
                          * eps[k - 2].get(g - 1, 0))
            assert total % (k + 1) == 0
            row[g] = total // (k + 1)
        eps.append(row)
    return eps[n]


class TestHarerZagier:
    @pytest.mark.parametrize("n, dist, pairings, classes", [
        (6, {0: 132, 1: 2310, 2: 6468, 3: 1485}, 11 * 9 * 7 * 5 * 3, 902),
        (7, {0: 429, 1: 12012, 2: 66066, 3: 56628}, 13 * 11 * 9 * 7 * 5 * 3,
         9749),
    ])
    def test_one_vertex_census_matches_the_recursion(self, n, dist,
                                                     pairings, classes):
        entries = enumerate_fat_graphs(n, one_vertex=True, exact_edges=True)
        assert harer_zagier(n) == dist
        assert census.genus_distribution(entries) == dist
        assert sum(e.n_pairings for e in entries) == pairings
        assert len(entries) == classes
