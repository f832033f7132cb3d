"""Canonical-labeling kernel.

Works on a dense integer encoding of one connected fat graph: half-edges
are ``0..n-1``, ``sigma[i]`` is the next half-edge counterclockwise at
the same vertex and ``inv[i]`` the other half of the same edge.  Both
may be any sequences of integers; the census passes ``inv`` as
``bytes``, one pairing of its slots.

The canonical code is the lexicographic minimum, over all starting
half-edges, of the sequence

    [number of vertices] [valences in visit order] [relabelled inv]

produced by a breadth-first relabelling: starting at ``h0`` we label
the whole fan of its vertex in sigma-order, then process the partners
of the labelled half-edges first-in-first-out, labelling each untouched
fan as it is reached.  Two connected graphs are isomorphic exactly when
their minimal codes agree.  The starts achieving the minimum are the
*winners*; each winner's relabelling is a canonical labelling, and
mapping one winner's labels onto another's is an automorphism, so
there are as many winners as automorphisms.  The sequence is written
one byte per entry up to 255 half-edges and in wider entries above
(:func:`encode`).

The search skips the starts that cannot reach the minimum (McKay's
pruning of a branch whose partial code already exceeds the best):

- Every start of a connected graph reaches all ``nv`` vertices, so the
  second entry, the valence of the start vertex, decides first.  Only
  the half-edges at vertices of minimum valence are tried
  (:func:`min_valence_starts`).
- While a start sweeps its fans, each new valence is compared with the
  best code's valence at that position; the start is dropped at the
  first larger one.  When all valences are equal, the relabelled
  ``inv`` is compared entry by entry up to the first difference.  The
  code bytes are built only for a start that wins.
- Starts are tried in increasing order.  A strictly smaller code
  resets the winners, an equal one joins them, so the winners come in
  increasing start order; a dropped start is strictly greater than the
  best, so no winner is missed.

A graph with one vertex (a chord diagram) needs no search.  When the
fan of the first start holds all ``n`` half-edges and every half-edge
is a start, the relabelling from the start at fan position ``r``
labels ``h`` by ``(pos[h] - r) % n``, ``pos[h]`` the fan position of
``h``: it is a rotation.  With ``P = [pos[inv[h]] for h in fan]``,
that start's relabelled ``inv`` is ``(P + P)[r:r + n]`` with ``r``
subtracted mod ``n`` from every entry.  The code is ``[1, n]`` and the
least of these ``n`` rotations, and the winners are the starts whose
rotation equals it: the same ``(code, winners)`` as the search, read
from the input alone.  Below 256 half-edges ``P`` is a byte string and
each rotation one ``translate`` through a table built once per ``n``
(:func:`_one_fan`); from 256 on the rotations are tuples of integers
(:func:`_one_fan_wide`).
"""

from functools import cache
from operator import itemgetter

from .errors import DisconnectedGraph

# the implementation, as recorded with every perfbench run
BACKEND = "python"


def encode(values, top):
    """Byte string of nonnegative integers at most ``top``.

    One byte per value while ``top`` is below 256.  Otherwise a zero
    byte, the width ``w`` and ``w`` big-endian bytes per value, so the
    strings of one width compare like their integer sequences.
    """
    if top < 256:
        return bytes(values)
    w = (top.bit_length() + 7) // 8
    return bytes([0, w]) + b"".join(v.to_bytes(w, "big") for v in values)


def _fan(sigma, h):
    """The half-edges of the vertex of ``h``, in sigma-order from ``h``."""
    fan = [h]
    cur = sigma[h]
    while cur != h:
        fan.append(cur)
        cur = sigma[cur]
    return fan


def min_valence_starts(sigma, n):
    """The half-edges at vertices of minimum valence, in increasing order.

    Only these starts can give the minimal code of a connected graph.
    """
    seen = [False] * n
    least = n + 1
    starts = []
    for h in range(n):
        if seen[h]:
            continue
        fan = _fan(sigma, h)
        for cur in fan:
            seen[cur] = True
        if len(fan) < least:
            least, starts = len(fan), fan
        elif len(fan) == least:
            starts += fan
    starts.sort()
    return starts


@cache
def _shift_tables(n):
    """For each ``r < n``, the ``translate`` table subtracting ``r`` mod
    ``n`` from the bytes below ``n``."""
    return tuple(bytes([(x - r) % n for x in range(n)]).ljust(256, b"\0")
                 for r in range(n))


def _one_fan(inv, n, fan, starts):
    """``(code, winners)`` of a graph whose one fan, ``fan``, holds all
    ``n < 256`` half-edges, each a start: every relabelling is a
    rotation (see the module docstring)."""
    pos = bytearray(n)
    for r, h in enumerate(fan):
        pos[h] = r
    p = bytes(map(inv.__getitem__, fan)).translate(pos.ljust(256, b"\0"))
    pp = p + p
    shifts = _shift_tables(n)
    tails = [pp[r:r + n].translate(t) for r, t in enumerate(shifts)]
    best = min(tails)
    winners = [(h, list(pos.translate(shifts[pos[h]]))) for h in starts
               if tails[pos[h]] == best]
    return bytes([1, n]) + best, winners


def _one_fan_wide(inv, n, fan, starts):
    """:func:`_one_fan` for ``n >= 256`` half-edges.

    It gives the same answer below 256 too, but there the byte strings
    of :func:`_one_fan` are faster: at 12 half-edges this form takes
    half as long again per call.  The rotations are tuples of integers,
    which compare like their :func:`encode`d strings.
    ``ring[n - r:2 * n - r]`` maps ``x < n`` to ``(x - r) % n``.  Entry
    ``j`` of rotation ``r`` is ``(first[r + j] + j) % n``, where
    ``first[i] = (P[i] - i) % n`` is the first entry of rotation ``i``.
    So rotations ``r`` and ``s`` are equal exactly when ``first`` is
    invariant under the shift by ``s - r``, and only the starts of one
    period of ``first`` with the least first entry are rotated.
    """
    pos = [0] * n
    for r, h in enumerate(fan):
        pos[h] = r
    p = [pos[inv[h]] for h in fan]
    ring = list(range(n)) * 2
    first = [(x - r) % n for r, x in enumerate(p)]
    least = min(first)
    period = next(q for q in range(1, n + 1)
                  if n % q == 0 and first[q:] + first[:q] == first)
    shift_p = itemgetter(*p)
    best = None
    for r in range(period):
        if first[r] == least:
            tail = shift_p(ring[n - r:2 * n - r])
            tail = tail[r:] + tail[:r]
            if best is None or tail < best:
                best, won = tail, r
    shift_pos = itemgetter(*pos)
    winners = [(h, list(shift_pos(ring[n - pos[h]:2 * n - pos[h]])))
               for h in starts if pos[h] % period == won]
    return encode((1, n) + best, n), winners


def _search(sigma, inv, n, starts):
    """``(code, winners)`` over ``starts``, or ``None`` when the graph
    is disconnected or empty (see the module docstring).

    ``winners`` lists ``(start, new_label)`` for each start reaching
    the minimal code, in increasing start order; ``new_label`` maps old
    index -> canonical label.
    """
    if n and len(starts) == n:
        fan = _fan(sigma, starts[0])
        if len(fan) == n:
            return (_one_fan if n < 256 else _one_fan_wide)(
                inv, n, fan, starts)
    return _bfs(sigma, inv, n, starts)


def _bfs(sigma, inv, n, starts):
    """:func:`_search` by the pruned breadth-first search from each
    start, for any graph."""
    best_vals = best_tail = None
    winners = []
    for h0 in starts:
        nl = [-1] * n
        order = []
        push = order.append
        vals = []
        tied = best_vals is not None
        lost = False
        lab = i = 0
        h = h0
        while True:
            first = lab
            while nl[h] < 0:
                nl[h] = lab
                lab += 1
                push(h)
                h = sigma[h]
            cnt = lab - first
            if tied:
                b = best_vals[len(vals)]
                if cnt != b:
                    if cnt > b:
                        lost = True
                        break
                    tied = False
            vals.append(cnt)
            if lab == n:
                break
            while i < lab:
                h = inv[order[i]]
                i += 1
                if nl[h] < 0:
                    break
            else:
                break
        if lost:
            continue
        if best_vals is None and lab != n:
            return None
        if tied:
            for o, b in zip(order, best_tail):
                t = nl[inv[o]]
                if t != b:
                    break
            else:
                winners.append((h0, nl))
                continue
            if t > b:
                continue
        best_vals, winners = vals, [(h0, nl)]
        if n < 256:
            best_tail = bytes(map(inv.__getitem__, order)).translate(
                bytes(nl).ljust(256, b"\0"))
        else:
            best_tail = [nl[inv[o]] for o in order]
    if best_vals is None:
        return None
    if n < 256:
        code = bytes([len(best_vals)]) + bytes(best_vals) + best_tail
    else:
        code = encode([len(best_vals)] + best_vals + best_tail, n)
    return code, winners


def min_code(sigma, inv, n):
    """Minimal code over all starts, with its winners.

    Returns ``(code, winners)`` as in :func:`_search`: one
    ``(start, new_label)`` pair per automorphism of the connected fat
    graph, in increasing start order.  A disconnected or empty graph
    raises :class:`~fatcob.errors.DisconnectedGraph`.
    """
    found = _search(sigma, inv, n, min_valence_starts(sigma, n))
    if found is None:
        raise DisconnectedGraph("graph is not connected")
    return found


def census_code(sigma, inv, n, starts):
    """``(code, aut)``, ``aut`` the number of winners of
    :func:`min_code`, or ``None`` when the graph is disconnected.

    ``starts`` is ``min_valence_starts(sigma, n)``, which the census
    computes once for all the pairings on one ``sigma``.
    """
    found = _search(sigma, inv, n, starts)
    return None if found is None else (found[0], len(found[1]))
