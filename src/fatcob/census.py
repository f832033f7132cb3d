"""Exhaustive census of connected fat graphs up to isomorphism.

A fat graph with ``n`` edges and prescribed vertex valences is a
fixed-point-free pairing of the ``2n`` half-edge slots of a reference
vertex structure: the slots of vertex ``j`` form one block, cyclically
ordered.  Enumerating all pairings over all valence partitions of
``2n`` and deduplicating by canonical form yields every isomorphism
class exactly once; the number of pairings that landed on a class is
recorded (for one-vertex graphs this is the classical count of chord
pairings of a ``2n``-gon realizing the class).

The inner loop runs the canonical-labeling kernel once per pairing
(the kernel tries only the starts at minimum-valence vertices and
drops a start once its partial code exceeds the best; see
:mod:`fatcob._canon`).  Those starts depend only on the partition, so
they are computed once per partition; the pairings of ``2n`` slots do
not depend on it at all, so the serial path generates them once per
edge count.  Work is split by valence partition; partial tallies merge by
summing counts and keeping the lexicographically smallest witness, a
commutative merge that makes the parallel path schedule-independent.
Each class is checked by orbit-stabilizer: its pairing count times its
automorphism count is the order of the slot-symmetry group, or
:class:`~fatcob.errors.InvariantViolation` is raised.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import factorial

from . import _canon
from .errors import BoundExceeded, FatcobError, InvariantViolation
from .graphs import new_fat_graph

DEFAULT_MAX_EDGES = 8


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


@dataclass(frozen=True)
class CensusEntry:
    """One isomorphism class of connected fat graphs."""
    canon: bytes
    graph: object
    n_edges: int
    n_vertices: int
    genus: int
    boundary_count: int
    euler_characteristic: int
    n_pairings: int
    aut_size: int


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
    """All fixed-point-free pairings of ``0..n2-1`` as flat tuples."""
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
            slot_half[p] = name + ".0"
            slot_half[q] = name + ".1"
    orders = {}
    off = 0
    for j, k in enumerate(parts):
        orders[vnames[j]] = [slot_half[off + i] for i in range(k)]
        off += k
    return new_fat_graph(vnames, edges, orders)


def _centralizer_order(parts):
    """Order of the symmetry group of the reference slot structure."""
    mult = {}
    for k in parts:
        mult[k] = mult.get(k, 0) + 1
    out = 1
    for k, a in mult.items():
        out *= (k ** a) * factorial(a)
    return out


def _tally_partition(task, pairings=None):
    """Census tally for one valence partition: code -> [count, witness].

    ``pairings`` is ``_involutions(2 * n)`` when the caller has it.
    """
    n, parts = task
    sigma = _sigma_of_partition(parts)
    n2 = 2 * n
    if pairings is None:
        pairings = _involutions(n2)
    starts = _canon.min_valence_starts(sigma, n2)
    tally = {}
    for m in pairings:
        code = _canon.census_code(sigma, m, n2, starts)
        if code is None:
            continue
        hit = tally.get(code)
        if hit is None:
            tally[code] = [1, (parts, m)]
        else:
            hit[0] += 1
    return n, tally


def _merge(target, n, tally):
    for code, (count, witness) in tally.items():
        hit = target.get((n, code))
        if hit is None:
            target[(n, code)] = [count, witness]
        else:
            hit[0] += count
            if witness < hit[1]:
                hit[1] = witness
    return target


def enumerate_fat_graphs(max_edges, genus=None, surface=None, cobordism=None,
                         one_vertex=False, min_valence=1, exact_edges=False,
                         bound=None, jobs=None):
    """All connected fat-graph classes with at most ``max_edges`` edges.

    ``genus`` filters classes by genus, ``surface`` by a
    :class:`~fatcob.graphs.SurfaceSignature` (single component), and
    ``min_valence``/``one_vertex`` restrict the vertex structure.  Use
    ``exact_edges`` to keep only the top edge count, ``jobs`` to fan
    the per-partition tallies out to worker processes.  Entries come
    back in (edge count, vertex count, canonical form) order.

    Passing a :class:`~fatcob.openclosed.CobordismSignature` as
    ``cobordism`` switches the census to decorated graphs: the leaves
    of every class are marked incoming/outgoing/closed in all
    admissible ways and the classes whose cobordism type matches are
    returned (see :func:`admissible_decorations`).
    """
    limit = bound if bound is not None else _edge_bound()
    if max_edges > limit:
        raise BoundExceeded(
            "max_edges=%d exceeds the configured bound %d" % (max_edges, limit))
    if max_edges < 0:
        raise BoundExceeded("max_edges must be nonnegative")
    tasks = []
    sizes = range(max_edges, max_edges + 1) if exact_edges \
        else range(1, max_edges + 1)
    for n in sizes:
        if n == 0:
            continue
        if one_vertex:
            tasks.append((n, (2 * n,)))
        else:
            tasks.extend((n, parts)
                         for parts in _partitions(2 * n, 2 * n,
                                                  max(1, min_valence)))
    merged = {}
    if jobs and jobs > 1:
        import multiprocessing
        with multiprocessing.Pool(jobs) as pool:
            for n, tally in pool.imap_unordered(_tally_partition, tasks):
                _merge(merged, n, tally)
    else:
        # tasks come grouped by edge count; one pairing list at a time
        pairings, pairings_n = None, None
        for task in tasks:
            if task[0] != pairings_n:
                pairings_n = task[0]
                pairings = _involutions(2 * pairings_n)
            n, tally = _tally_partition(task, pairings)
            _merge(merged, n, tally)
    out = []
    for (n, code), (count, (parts, pairing)) in merged.items():
        graph = _build_graph(parts, pairing)
        comp = graph.surface_invariants().components[0]
        sigma = _sigma_of_partition(parts)
        _, aut, _ = _canon.min_code(sigma, pairing, 2 * n)
        # orbit-stabilizer: pairings realizing the class, times the
        # automorphism count, is the slot-symmetry order
        want = _centralizer_order(parts)
        if count * aut != want:
            raise InvariantViolation(
                "census bookkeeping broken for %r: %d pairings times %d "
                "automorphisms is not %d" % (code, count, aut, want))
        out.append(CensusEntry(
            canon=code, graph=graph, n_edges=n, n_vertices=len(parts),
            genus=comp.genus, boundary_count=comp.boundary_count,
            euler_characteristic=comp.euler_characteristic,
            n_pairings=count, aut_size=aut))
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


def admissible_decorations(graph, max_leaves=6):
    """Every admissible way of decorating the leaves of ``graph``.

    Each leaf may stay bare or become an open/closed incoming or
    outgoing leaf; the In/Out orderings follow leaf-name order.
    Results are deduplicated by decorated canonical form.
    """
    from .morphisms import canonical_form
    from .openclosed import decorate, is_admissible
    leaves = sorted(v for v in graph.vertices if graph.is_leaf(v))
    if len(leaves) > max_leaves:
        raise BoundExceeded(
            "%d leaves is beyond the decoration bound %d"
            % (len(leaves), max_leaves))
    assignments = [[]]
    for v in leaves:
        assignments = [a + [(v, r)] for a in assignments
                       for r in ("-", "i", "o", "I", "O")]
    seen = set()
    out = []
    for assign in assignments:
        ins = [v for v, r in assign if r in ("i", "I")]
        outs = [v for v, r in assign if r in ("o", "O")]
        closed = {v for v, r in assign if r in ("I", "O")}
        try:
            oc = decorate(graph, ins, outs, closed)
        except FatcobError:
            continue
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
                out.append(CensusEntry(
                    canon=e.canon, graph=oc, n_edges=e.n_edges,
                    n_vertices=e.n_vertices, genus=e.genus,
                    boundary_count=e.boundary_count,
                    euler_characteristic=e.euler_characteristic,
                    n_pairings=e.n_pairings, aut_size=e.aut_size))
    return out


def genus_distribution(entries, by_pairings=True):
    """Map genus -> count over classes or over raw pairings."""
    out = {}
    for e in entries:
        w = e.n_pairings if by_pairings else 1
        out[e.genus] = out.get(e.genus, 0) + w
    return out
