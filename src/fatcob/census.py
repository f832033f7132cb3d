"""Exhaustive census of connected fat graphs up to isomorphism.

A fat graph with ``n`` edges and prescribed vertex valences is a
fixed-point-free pairing of the ``2n`` half-edge slots of a reference
vertex structure: the slots of vertex ``j`` form one block, cyclically
ordered.  Enumerating all pairings over all valence partitions of
``2n`` and deduplicating by canonical form yields every isomorphism
class exactly once; the number of pairings that landed on a class is
recorded (for one-vertex graphs this is the classical count of chord
pairings of a ``2n``-gon realizing the class).  A connected graph has
``chi <= 1``, so only the partitions into at most ``n + 1`` parts are
tallied.

A pairing is a byte string, byte ``s`` the slot paired with ``s``; so
a census reaches at most 128 edges (256 slots).  The pairings of
``2n`` slots are built from those of ``2n - 2``: pairing slot 0 with
each later slot in turn, the smaller pairings are relabelled onto the
other slots by ``bytes.translate``.

Two pairings give isomorphic graphs exactly when they lie in one orbit
of the slot group C(parts), the permutations of the slots that commute
with the block rotations (rotations within blocks, permutations of
equal-size blocks), and the stabilizer of a connected pairing is the
automorphism group of its graph.  So the tally walks the pairings in
order and runs the canonical-labeling kernel (see :mod:`fatcob._canon`)
once on each pairing not yet seen: once per class, plus once per
disconnected pairing.  For a connected pairing it then closes the orbit
over a transversal chain of C(parts): stages of slot permutations whose
products, one element or the identity per stage, are each element of
C(parts) once.  Each stage conjugates every member found so far by each
of its elements, so an orbit costs at most |C(parts)| - 1 conjugates,
exactly that when the class has no automorphism, and fewer when
conjugates coincide.  A conjugate costs one ``translate`` and one fixed
``itemgetter``; each member is then marked seen once, by its position
in the pairing list.  The orbit size is the class's pairing count, its
first member the witness, and the kernel's count of the witness's
minimal starts its automorphism count.  The kernel's starts are
computed once per partition, and the pairings of ``2n`` slots and
their index once per edge count.

The census is one pass over the valence partitions, and a class
becomes its :class:`CensusEntry` where its orbit closes, from integers
alone.  A class lies in one partition, but one set of codes per edge
count catches a code reached twice, within a partition or across two.
Orbit-stabilizer checks each closure against the kernel: the orbit
size times the automorphism count must be the order of C(parts).
The boundary count is the number of cycles of ``sigma∘pairing`` on the
slots, ``chi`` is vertices minus edges and the genus follows from
``2 - 2g = chi + b``.  No named graph is built: a :class:`CensusEntry`
keeps its witness and builds its graph on first use, checking the
graph's surface invariants against the counted ones.  The
orbit-stabilizer check, that graph check, a code reached by a second
orbit, and an orbit member that is not a pairing each raise
:class:`~fatcob.errors.InvariantViolation`.
"""

from __future__ import annotations

import os
from itertools import product
from math import factorial
from operator import itemgetter

from . import _canon
from ._record import FrozenRecord
from .errors import (
    BoundExceeded,
    InvariantViolation,
    NonIntegerGenus,
    _require_count,
)
from .graphs import half_id, new_fat_graph

DEFAULT_MAX_EDGES = 8
# a pairing keeps its slot numbers in bytes: at most 256 slots
MAX_PAIRING_EDGES = 128
# admissible_decorations tries all 5 ** leaves roles of the leaves
MAX_DECORATED_LEAVES = 6


def _edge_bound():
    raw = os.environ.get("FATCOB_MAX_EDGES")
    if not raw:
        return DEFAULT_MAX_EDGES
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise BoundExceeded(
            "FATCOB_MAX_EDGES=%r is not a nonnegative integer" % raw)
    return value


class CensusEntry(FrozenRecord):
    """One isomorphism class of connected fat graphs.

    ``witness`` is ``(parts, pairing)``: a valence partition and a
    pairing of its slots, as ``bytes``, that realises the class.  It determines the
    graph, so entries compare and hash by it and by the numbers, never
    by a graph.  :attr:`graph` builds the named graph from the witness
    on first use and keeps it.  An entry of a ``cobordism=`` census
    carries its decorated graph in ``decorated`` and hands that out
    instead.  The built graph sits in the private slot ``_built``,
    outside equality, hashing and ``repr``.
    """
    _fields = ("canon", "witness", "n_edges", "n_vertices", "genus",
               "boundary_count", "euler_characteristic", "n_pairings",
               "aut_size", "decorated")
    __slots__ = _fields + ("_built",)

    def __init__(self, canon, witness, n_edges, n_vertices, genus,
                 boundary_count, euler_characteristic, n_pairings,
                 aut_size, decorated=None):
        init = object.__setattr__
        init(self, "canon", canon)
        init(self, "witness", witness)
        init(self, "n_edges", n_edges)
        init(self, "n_vertices", n_vertices)
        init(self, "genus", genus)
        init(self, "boundary_count", boundary_count)
        init(self, "euler_characteristic", euler_characteristic)
        init(self, "n_pairings", n_pairings)
        init(self, "aut_size", aut_size)
        init(self, "decorated", decorated)
        init(self, "_built", None)

    @property
    def graph(self):
        """The fat graph of the class, built and checked on first use.

        The graph goes through the full validation of
        :func:`~fatcob.graphs.new_fat_graph`, and its surface invariants
        must be one component equal to the entry's; otherwise
        :class:`~fatcob.errors.InvariantViolation` is raised.
        """
        if self.decorated is not None:
            return self.decorated
        if self._built is None:
            graph = _build_graph(*self.witness)
            got = [(c.genus, c.boundary_count, c.euler_characteristic)
                   for c in graph.surface_invariants().components]
            want = (self.genus, self.boundary_count,
                    self.euler_characteristic)
            if got != [want]:
                raise InvariantViolation(
                    "graph of census class %r has invariants %r, not the "
                    "(genus, boundary, chi) %r counted from its pairing"
                    % (self.canon, got, want))
            object.__setattr__(self, "_built", graph)
        return self._built


def _partitions(total, max_part, min_part):
    """Partitions of ``total`` into parts in [min_part, max_part],
    weakly decreasing."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), min_part - 1, -1):
        for rest in _partitions(total - first, first, min_part):
            yield (first,) + rest


def _involutions(n2):
    """All fixed-point-free pairings of ``0..n2-1``, ``n2`` even, as byte
    strings.

    The order is that of the recursion pairing slot 0 with each later
    slot ``b`` in turn and the remaining slots among themselves, so the
    list for ``m`` slots is built from the one for ``m - 2``: for each
    ``b``, byte 0 is ``b``, byte ``b`` is 0, and the other bytes are a
    smaller pairing relabelled onto the other slots by one
    ``translate``.
    """
    pairings = [b""]
    for m in range(2, n2 + 1, 2):
        out = []
        for b in range(1, m):
            rest = (bytes(range(1, b)) + bytes(range(b + 1, m))).ljust(
                256, b"\0")
            head = bytes((b,))
            out += [head + t[:b - 1] + b"\0" + t[b - 1:]
                    for t in [q.translate(rest) for q in pairings]]
        pairings = out
    return pairings


def _sigma_of_partition(parts):
    sigma = []
    off = 0
    for k in parts:
        sigma.extend(off + (i + 1) % k for i in range(k))
        off += k
    return sigma


def _vertex_of_slot(parts):
    out = []
    for j, k in enumerate(parts):
        out.extend([j] * k)
    return out


def _build_graph(parts, pairing):
    """Named representative of the pairing on the reference structure."""
    slot_vertex = _vertex_of_slot(parts)
    vnames = ["v%02d" % j for j in range(len(parts))]
    edges = []
    slot_half = {}
    idx = 0
    for p in range(len(pairing)):
        q = pairing[p]
        if p < q:
            name = "e%02d" % idx
            idx += 1
            edges.append((name, vnames[slot_vertex[p]], vnames[slot_vertex[q]]))
            slot_half[p] = half_id(name, 0)
            slot_half[q] = half_id(name, 1)
    orders = {}
    off = 0
    for j, k in enumerate(parts):
        orders[vnames[j]] = [slot_half[off + i] for i in range(k)]
        off += k
    return new_fat_graph(vnames, edges, orders)


def _invariants(sigma, pairing, n_vertices):
    """``(genus, boundary count, Euler characteristic)`` of a connected
    pairing: the boundary cycles are the cycles of ``sigma∘pairing`` on
    the slots, and ``chi`` is vertices minus edges."""
    n2 = len(pairing)
    seen = bytearray(n2)
    b = 0
    for s in range(n2):
        if seen[s]:
            continue
        b += 1
        while not seen[s]:
            seen[s] = 1
            s = sigma[pairing[s]]
    chi = n_vertices - n2 // 2
    two_g = 2 - chi - b
    if two_g < 0 or two_g % 2:
        raise NonIntegerGenus(
            "pairing %r has 2-chi-b = %d" % (tuple(pairing), two_g))
    return two_g // 2, b, chi


def _centralizer_order(parts):
    """Order of the symmetry group of the reference slot structure."""
    mult = {}
    for k in parts:
        mult[k] = mult.get(k, 0) + 1
    out = 1
    for k, a in mult.items():
        out *= (k ** a) * factorial(a)
    return out


def _transversals(parts):
    """A transversal chain of the slot group C(parts): a list of stages,
    each a list of slot permutations, such that the products of one
    element or the identity per stage are each element of C(parts)
    exactly once.

    ``parts`` is weakly decreasing, so equal blocks are adjacent.  For
    each block size, with blocks B_1..B_a of that size, stage i holds
    the swaps of B_i with each later B_l; these stages multiply out to
    every permutation of the a blocks.  Then each block of size k > 1
    has one stage of its k - 1 nontrivial rotations; the rotations are
    a normal subgroup, so every element of C(parts) is one product of
    rotations after one of block permutations.
    """
    n2 = sum(parts)
    offs = [0]
    for k in parts:
        offs.append(offs[-1] + k)

    def swap(i, j):
        g = list(range(n2))
        g[offs[i]:offs[i + 1]] = range(offs[j], offs[j + 1])
        g[offs[j]:offs[j + 1]] = range(offs[i], offs[i + 1])
        return tuple(g)

    def rotation(i, by):
        g = list(range(n2))
        off, k = offs[i], parts[i]
        g[off:off + k] = [off + (t + by) % k for t in range(k)]
        return tuple(g)

    nb = len(parts)
    blocks = [[swap(i, j) for j in range(i + 1, nb) if parts[j] == parts[i]]
              for i in range(nb)]
    rotations = [[rotation(i, by) for by in range(1, parts[i])]
                 for i in range(nb)]
    return [stage for stage in blocks + rotations if stage]


def _indexed_pairings(n2):
    """``_involutions(n2)`` and the map from each pairing to its position."""
    pairings = _involutions(n2)
    return pairings, {m: i for i, m in enumerate(pairings)}


def _tally_partition(parts, indexed, codes):
    """The census classes of one valence partition, one
    :class:`CensusEntry` per orbit of connected pairings, each built
    where its orbit closes.

    ``indexed`` is ``_indexed_pairings(sum(parts))``; ``codes`` holds
    the codes found so far at this edge count, and each new code joins
    it.
    """
    n2 = sum(parts)
    sigma = _sigma_of_partition(parts)
    order = _centralizer_order(parts)
    pairings, index = indexed
    starts = _canon.min_valence_starts(sigma, n2)
    stages = []
    for stage in _transversals(parts):
        conj = []
        for g in stage:
            ginv = [0] * n2
            for s, t in enumerate(g):
                ginv[t] = s
            conj.append((bytes(g).ljust(256, b"\0"), itemgetter(*ginv)))
        stages.append(conj)
    seen = bytearray(len(pairings))
    out = []
    for i, m in enumerate(pairings):
        if seen[i]:
            continue
        found = _canon.census_code(sigma, m, n2, starts)
        if found is None:
            continue
        code, aut = found
        if code in codes:
            raise InvariantViolation(
                "census code %r of partition %r is reached by a second "
                "orbit of the slot group" % (code, parts))
        codes.add(code)
        # the conjugate g p g^-1 sends g(s) to g(p(s)): its entry j is
        # g[p[ginv[j]]]: p translated by g, read in ginv order
        orbit = {m}
        for conj in stages:
            orbit.update([bytes(at_ginv(p.translate(gt)))
                          for p in orbit for gt, at_ginv in conj])
        try:
            for p in orbit:
                seen[index[p]] = 1
        except KeyError:
            raise InvariantViolation(
                "image %r of pairing %r is not a pairing: a transversal "
                "of the slot group of %r holds a map that is not a "
                "permutation of the slots"
                % (tuple(p), tuple(m), parts)) from None
        # orbit-stabilizer: pairings realizing the class, times the
        # automorphism count, is the slot-symmetry order
        if len(orbit) * aut != order:
            raise InvariantViolation(
                "census bookkeeping broken for %r: %d pairings times %d "
                "automorphisms is not %d" % (code, len(orbit), aut, order))
        g, b, chi = _invariants(sigma, m, len(parts))
        out.append(CensusEntry(
            canon=code, witness=(parts, m), n_edges=n2 // 2,
            n_vertices=len(parts), genus=g, boundary_count=b,
            euler_characteristic=chi, n_pairings=len(orbit), aut_size=aut))
    return out


def enumerate_fat_graphs(max_edges, genus=None, surface=None, cobordism=None,
                         one_vertex=False, min_valence=1, exact_edges=False,
                         bound=None):
    """All connected fat-graph classes with at most ``max_edges`` edges.

    ``genus`` filters classes by genus, ``surface`` by a
    :class:`~fatcob.graphs.SurfaceSignature` (single component), and
    ``min_valence``/``one_vertex`` restrict the vertex structure.  Use
    ``exact_edges`` to keep only the top edge count.  Entries come
    back in (edge count, vertex count, canonical form) order.

    Passing a :class:`~fatcob.openclosed.CobordismSignature` as
    ``cobordism`` switches the census to decorated graphs: the leaves
    of every class are marked incoming/outgoing/closed in all
    admissible ways and the classes whose cobordism type matches are
    returned (see :func:`admissible_decorations`).  A ``max_edges``
    that is not an ``int`` raises :class:`InvalidParameter`, and a
    negative or too large one :class:`BoundExceeded`.
    """
    if isinstance(max_edges, int) and max_edges < 0:
        raise BoundExceeded("max_edges must be nonnegative")
    _require_count(max_edges, "max_edges")
    limit = bound if bound is not None else _edge_bound()
    if max_edges > limit:
        raise BoundExceeded(
            "max_edges=%d exceeds the configured bound %d" % (max_edges, limit))
    if max_edges > MAX_PAIRING_EDGES:
        raise BoundExceeded(
            "max_edges=%d exceeds %d, the most edges whose slots fit in "
            "the bytes of a pairing" % (max_edges, MAX_PAIRING_EDGES))
    sizes = range(max_edges, max_edges + 1) if exact_edges \
        else range(1, max_edges + 1)
    out = []
    for n in sizes:
        if n == 0:
            continue
        if one_vertex:
            partitions = [(2 * n,)] if 2 * n >= min_valence else []
        else:
            # a connected graph has chi <= 1: at most n + 1 vertices
            partitions = [parts for parts in _partitions(2 * n, 2 * n,
                                                         max(1, min_valence))
                          if len(parts) <= n + 1]
        indexed = _indexed_pairings(2 * n) if partitions else None
        codes = set()
        for parts in partitions:
            out += _tally_partition(parts, indexed, codes)
    if genus is not None:
        out = [e for e in out if e.genus == genus]
    if surface is not None:
        want = sorted((c.genus, c.boundary_count) for c in surface.components)
        out = [e for e in out if [(e.genus, e.boundary_count)] == want]
    out.sort(key=lambda e: (e.n_edges, e.n_vertices, e.canon))
    if cobordism is not None:
        out = _decorated_census(out, cobordism)
    return out


def _signature_key(sig):
    return (sig.source, sig.target,
            tuple(sorted((c.genus, c.incoming_circles, c.incoming_intervals,
                          c.outgoing_circles, c.outgoing_intervals,
                          c.free_cycles) for c in sig.components)))


def admissible_decorations(graph):
    """Every admissible way of decorating the leaves of ``graph``.

    Each leaf may stay bare or become an open/closed incoming or
    outgoing leaf; the In/Out orderings follow leaf-name order.
    Results are deduplicated by decorated canonical form, for which
    the kernel runs once on ``graph``.  A graph with
    more than ``MAX_DECORATED_LEAVES`` leaves raises
    :class:`BoundExceeded`.
    """
    from .morphisms import canonical_form
    from .openclosed import decorate, is_admissible
    leaves = sorted(v for v in graph.vertices if graph.is_leaf(v))
    if len(leaves) > MAX_DECORATED_LEAVES:
        raise BoundExceeded(
            "%d leaves is beyond the decoration bound %d"
            % (len(leaves), MAX_DECORATED_LEAVES))
    # decorate refuses a closed leaf that shares its boundary cycle with
    # another special leaf, so those assignments are skipped unbuilt
    h2c = graph.boundary_cycles().half_edge_to_cycle
    cycles = [h2c[graph.leaf_half(v)] for v in leaves]
    seen = set()
    out = []
    for roles in product("-ioIO", repeat=len(leaves)):
        on = [c for c, r in zip(cycles, roles) if r != "-"]
        if any(r in "IO" and on.count(c) > 1
               for c, r in zip(cycles, roles)):
            continue
        assign = list(zip(leaves, roles))
        ins = [v for v, r in assign if r in ("i", "I")]
        outs = [v for v, r in assign if r in ("o", "O")]
        closed = {v for v, r in assign if r in ("I", "O")}
        oc = decorate(graph, ins, outs, closed)
        if not is_admissible(oc)[0]:
            continue
        key = canonical_form(oc)
        if key not in seen:
            seen.add(key)
            out.append(oc)
    return out


def _decorated_census(entries, cobordism):
    from .openclosed import cobordism_signature
    want = _signature_key(cobordism)
    out = []
    for e in entries:
        for oc in admissible_decorations(e.graph):
            if _signature_key(cobordism_signature(oc)) == want:
                out.append(e._replace(decorated=oc))
    return out


def genus_distribution(entries):
    """Map genus -> number of pairings over the classes of that genus."""
    out = {}
    for e in entries:
        out[e.genus] = out.get(e.genus, 0) + e.n_pairings
    return out
