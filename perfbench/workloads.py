"""The three workloads and the checks on their outputs.

Each workload is a class: the constructor is the set-up (input
generation from the seed, plus whatever library work that needs), and
:meth:`run_pass` is one pass of the timed phase.  A pass repeats the
same seeded inputs, builds fresh graphs, records every checked library
call in an :class:`OpLog` and returns a digest of its outputs, so every
pass of a run must give the same digest.  The library is reached only
through the module objects in ``lib``, looked up at call time, so a
traced run sees every call.  WORKLOADS.md says why each workload exists.
"""

import hashlib
import random
import sys
import time
import traceback
from math import comb, factorial

FAILED = object()


class WrongOutput(Exception):
    """A set-up step got an output that contradicts the mathematics."""


class OpLog:
    """Checked library calls of one run: latency, attempts, failures."""

    def __init__(self):
        self.latency_ms = []
        self.attempted = 0
        self.failed = set()

    def call(self, fn, *args, timed=True, **kwargs):
        """Run one op; returns ``(op index, result or FAILED)``.

        ``timed`` ops enter the latency distribution; batch calls whose
        time is the pass itself do not.
        """
        i = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # a failed op is counted and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed.add(i)
            out = FAILED
        if timed:
            self.latency_ms.append((time.perf_counter() - t0) * 1e3)
        return i, out

    def expect(self, i, ok, what):
        """Count op ``i`` as failed unless ``ok``."""
        if not ok:
            self.failed.add(i)
            print("mismatch: %s" % what, file=sys.stderr)


def _digest_update(h, *parts):
    for p in parts:
        h.update(b"FAILED" if p is FAILED else repr(p).encode())
        h.update(b"\x00")


# ---------------------------------------------------------------------------
# census


# connected fat-graph classes by edge count (unrooted orientable maps,
# all genera, any vertex valence)
CLASS_COUNTS = {1: 2, 2: 5, 3: 20, 4: 107, 5: 870}
ONE_VERTEX_EDGES = 6
ONE_VERTEX_CLASSES = 902


def harer_zagier(n):
    """Chord pairings of a 2n-gon by genus of the glued surface.

    (n+1) e(g, n) = 2(2n-1) e(g, n-1) + (n-1)(2n-1)(2n-3) e(g-1, n-2),
    Harer and Zagier, Invent. Math. 85 (1986).
    """
    e = {(0, 0): 1}
    for m in range(1, n + 1):
        for g in range(0, m // 2 + 1):
            total = 2 * (2 * m - 1) * e.get((g, m - 1), 0)
            if m >= 2:
                total += (m - 1) * (2 * m - 1) * (2 * m - 3) \
                    * e.get((g - 1, m - 2), 0)
            assert total % (m + 1) == 0
            e[(g, m)] = total // (m + 1)
    return {g: c for (g, m), c in e.items() if m == n and c}


def rooted_connected(n):
    """Connected fixed-point-free pairings on labelled slots, divided
    into rooted classes: sum over classes of 2n / |Aut|."""
    conn = {}

    def connected(k):
        if k not in conn:
            total = factorial(2 * k)
            for j in range(1, k):
                total -= comb(k - 1, j - 1) * connected(j) \
                    * factorial(2 * (k - j))
            conn[k] = total
        return conn[k]

    return connected(n) * 2 * n // (2 ** n * factorial(n))


def relabel(g, rng):
    """Rename every vertex and edge of ``g`` by a random permutation."""
    verts = list(g.vertices)
    edges = list(g.edges())
    vmap = {v: "rv%03d" % i for i, v in
            enumerate(rng.sample(verts, len(verts)))}
    emap = {e: "re%03d" % i for i, e in
            enumerate(rng.sample(edges, len(edges)))}
    return g.relabel(vmap, emap)


class Census:
    """Isomorphism census plus canonical forms of relabelled classes."""

    name = "census"
    SAMPLE = 60    # classes relabelled from each of the two censuses

    def __init__(self, lib, seed):
        self.lib = lib
        rng = random.Random(seed)
        total5 = sum(CLASS_COUNTS.values())
        self.sample5 = rng.sample(range(total5), self.SAMPLE)
        self.sample6 = rng.sample(range(ONE_VERTEX_CLASSES), self.SAMPLE)
        self.relabel_seed = rng.getrandbits(64)
        self.hz = harer_zagier(ONE_VERTEX_EDGES)

    def run_pass(self, ops):
        census = self.lib.census
        h = hashlib.sha256()
        i, e5 = ops.call(census.enumerate_fat_graphs, 5, bound=5,
                         timed=False)
        if e5 is not FAILED:
            by_edges = {}
            for e in e5:
                by_edges[e.n_edges] = by_edges.get(e.n_edges, 0) + 1
            ops.expect(i, by_edges == CLASS_COUNTS,
                       "census(5) classes by edge count %r" % by_edges)
            for n in CLASS_COUNTS:
                rooted = sum(2 * n // e.aut_size for e in e5
                             if e.n_edges == n)
                ops.expect(i, rooted == rooted_connected(n),
                           "census(5) rooted count at %d edges" % n)
            _digest_update(h, [(e.n_edges, e.n_vertices, e.canon,
                                e.n_pairings, e.aut_size) for e in e5])
        j, e6 = ops.call(census.enumerate_fat_graphs, ONE_VERTEX_EDGES,
                         one_vertex=True, exact_edges=True,
                         bound=ONE_VERTEX_EDGES, timed=False)
        if e6 is not FAILED:
            ops.expect(j, len(e6) == ONE_VERTEX_CLASSES,
                       "one-vertex census has %d classes" % len(e6))
            pairings = sum(e.n_pairings for e in e6)
            ops.expect(j, pairings == factorial(2 * ONE_VERTEX_EDGES) // (
                2 ** ONE_VERTEX_EDGES * factorial(ONE_VERTEX_EDGES)),
                "one-vertex pairings sum to %d" % pairings)
            dist = {}
            for e in e6:
                dist[e.genus] = dist.get(e.genus, 0) + e.n_pairings
            ops.expect(j, dist == self.hz,
                       "one-vertex genus distribution %r, Harer-Zagier %r"
                       % (dist, self.hz))
            _digest_update(h, [(e.canon, e.n_pairings, e.aut_size)
                               for e in e6])
        rng = random.Random(self.relabel_seed)
        canonical_form = self.lib.morphisms.canonical_form
        for entries, sample in ((e5, self.sample5), (e6, self.sample6)):
            if entries is FAILED or not entries:
                continue
            for k in sample:
                g = entries[k % len(entries)].graph
                moved = relabel(g, rng)
                _, want = ops.call(canonical_form, g)
                b, got = ops.call(canonical_form, moved)
                if want is not FAILED and got is not FAILED:
                    ops.expect(b, got == want,
                               "canonical form changed under relabelling")
                _digest_update(h, want)
        return h.hexdigest()


# ---------------------------------------------------------------------------
# sign calculus


def forests(g, avoid):
    """Nonempty acyclic edge sets of ``g`` that miss ``avoid`` and do
    not collapse a whole component, by union-find on the edge ends."""
    edges = sorted(e for e in g.edges() if e not in avoid)
    all_edges = set(g.edges())
    out = []
    for mask in range(1, 1 << len(edges)):
        chosen = [e for k, e in enumerate(edges) if mask >> k & 1]
        if set(chosen) == all_edges:
            continue
        parent = {}

        def find(x):
            while parent.get(x, x) != x:
                x = parent[x]
            return x

        for e in chosen:
            a, b = (find(x) for x in g.edge_ends(e))
            if a == b:
                break
            parent[a] = b
        else:
            out.append(chosen)
    return out


def _leaf_edges(oc):
    b = oc.base
    return {b.edge_of(b.leaf_half(v)) for v in oc.special}


def _halves(*graphs):
    return sum(len(g.base.half_edges) for g in graphs)


def spread_sample(pool, k, rng, size):
    """``k`` items spread evenly over ``pool`` sorted by ``size``, from
    a seeded offset: every seed draws the same mix of small and large
    items, so the cost of a pass hardly depends on the seed."""
    ranked = sorted(range(len(pool)), key=lambda i: (size(pool[i]), i))
    step = len(ranked) / k
    offset = rng.random() * step
    return [pool[ranked[int(offset + j * step)]] for j in range(k)]


def _signature_key(sig):
    return (sig.source, sig.target, sig.components)


class SignCalculus:
    """Determinant-line signs of collapse morphisms and composites."""

    name = "sign_calculus"
    MAX_EDGES = 4
    FIRST = 6      # forests collapsed per decorated graph
    SECOND = 3     # forests collapsed again on each result
    SINGLES = 80   # single morphisms per pass
    PAIRS = 40     # composable pairs per pass

    def __init__(self, lib, seed):
        self.lib = lib
        rng = random.Random(seed)
        census, oc_mod, morphisms = lib.census, lib.openclosed, lib.morphisms
        FatcobError = lib.errors.FatcobError
        singles, pairs = [], []
        for entry in census.enumerate_fat_graphs(self.MAX_EDGES,
                                                 bound=self.MAX_EDGES):
            for oc in census.admissible_decorations(entry.graph):
                if not oc.in_leaves and not oc.out_leaves:
                    continue
                cands = forests(oc.base, _leaf_edges(oc))
                want = _signature_key(oc_mod.cobordism_signature(oc))
                for f1 in rng.sample(cands, min(self.FIRST, len(cands))):
                    try:
                        mid, m1 = morphisms.collapse_edges(oc, f1)
                    except FatcobError:
                        continue
                    if not oc_mod.is_admissible(mid)[0]:
                        continue
                    got = _signature_key(oc_mod.cobordism_signature(mid))
                    if got != want:
                        raise WrongOutput("collapsing %s changed the "
                                          "cobordism type" % (f1,))
                    singles.append(m1)
                    cands2 = forests(mid.base, _leaf_edges(mid))
                    for f2 in rng.sample(cands2,
                                         min(self.SECOND, len(cands2))):
                        try:
                            end, m2 = morphisms.collapse_edges(mid, f2)
                        except FatcobError:
                            continue
                        if oc_mod.is_admissible(end)[0]:
                            pairs.append((m2, m1))
        self.pool_sizes = (len(singles), len(pairs))
        self.singles = spread_sample(singles, self.SINGLES, rng,
                                     lambda m: _halves(m.source, m.target))
        self.pairs = spread_sample(pairs, self.PAIRS, rng,
                                   lambda p: _halves(p[1].source, p[0].source,
                                                     p[0].target))

    def run_pass(self, ops):
        det_sign = self.lib.homology.morphism_det_sign
        compose = self.lib.morphisms.compose
        h = hashlib.sha256()
        for m in self.singles:
            i, s = ops.call(det_sign, m)
            if s is not FAILED:
                ops.expect(i, s in (1, -1), "sign %r is not a unit" % (s,))
            _digest_update(h, s)
        for m2, m1 in self.pairs:
            i1, s1 = ops.call(det_sign, m1)
            i2, s2 = ops.call(det_sign, m2)
            i3, s3 = ops.call(lambda: det_sign(compose(m2, m1)))
            for i, s in ((i1, s1), (i2, s2), (i3, s3)):
                if s is not FAILED:
                    ops.expect(i, s in (1, -1),
                               "sign %r is not a unit" % (s,))
            if FAILED not in (s1, s2, s3):
                ops.expect(i3, s3 == s1 * s2,
                           "sign(m2.m1)=%r but sign(m2)*sign(m1)=%r"
                           % (s3, s1 * s2))
            _digest_update(h, s1, s2, s3)
        return h.hexdigest()


# ---------------------------------------------------------------------------
# glue tower


def interior_edges(oc):
    """Edges that are neither leaf edges nor on an incoming circle."""
    b = oc.base
    skip = _leaf_edges(oc)
    for v in oc.in_leaves:
        if v in oc.closed:
            skip.update(b.edge_of(h) for h in oc.circle_edges(v))
    return sorted(e for e in b.edges() if e not in skip)


class GlueTower:
    """Stacks of cylinders and pants with their gluing det-lines.

    A tower is ``SUBDIVIDE`` interior subdivisions of the base pants,
    then the pieces of ``PIECES``, each fed the tower's outgoing circle
    at a seeded input slot.  Tower ``t`` stacks the pieces rotated by
    ``t``, so a pass holds every order once and every seed builds
    complexes of the same sizes; only the subdivided edges and the
    slots vary.  The cost grows with the cube of the cells, so a
    seeded order would change a pass's time by up to a third.
    """

    name = "glue_tower"
    SUBDIVIDE = 4
    PIECES = ("pants", "pants", "cylinder")
    DIMS = (1, 2, 3)

    def __init__(self, lib, seed):
        self.lib = lib
        rng = random.Random(seed)
        self.plans = []
        for t in range(len(self.PIECES)):
            cuts = [rng.randrange(1 << 16) for _ in range(self.SUBDIVIDE)]
            pieces = self.PIECES[t:] + self.PIECES[:t]
            slots = [rng.randrange(1 << 16) for _ in pieces]
            self.plans.append((cuts, list(zip(pieces, slots))))

    def run_pass(self, ops):
        lib = self.lib
        fx, gluing, homology = lib.fixtures, lib.gluing, lib.homology
        fg, morphisms = lib.fgformat, lib.morphisms
        h = hashlib.sha256()
        for cuts, stages in self.plans:
            tower = fx.pants()
            for c in cuts:
                edges = interior_edges(tower)
                base, _ = tower.base.subdivide_edge(edges[c % len(edges)])
                tower = tower.with_base(base)
            for piece, slot in stages:
                top = getattr(fx, piece)()
                pair = (0, slot % len(top.in_leaves))
                _, got = ops.call(gluing.subdivision_match, tower, top,
                                  pairs=[pair])
                if got is FAILED:
                    _digest_update(h, got)
                    break
                g1, g2, match = got
                lines = [ops.call(homology.gluing_det_iso, g1, g2, match, d)
                         for d in self.DIMS]
                _, glued = ops.call(gluing.glue, g1, g2, match)
                if glued is FAILED:
                    _digest_update(h, glued)
                    break
                _, cc = ops.call(homology.relative_chain_complex, glued)
                for d, (k, line) in zip(self.DIMS, lines):
                    if line is not FAILED and cc is not FAILED:
                        ops.expect(k, line.degree == d * cc.degree,
                                   "det-line degree %d, expected %d x %d"
                                   % (line.degree, d, cc.degree))
                    _digest_update(h, line if line is FAILED
                                   else (line.degree, line.scalar))
                k, text = ops.call(fg.serialize, glued)
                k2, back = ops.call(fg.parse_graph, text) \
                    if text is not FAILED else (k, FAILED)
                if back is not FAILED:
                    ops.expect(k2, back == glued,
                               "parse_graph(serialize(g)) differs from g")
                _, canon = ops.call(morphisms.canonical_form, glued)
                _digest_update(h, text, canon)
                tower = glued
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (Census, SignCalculus, GlueTower)}
