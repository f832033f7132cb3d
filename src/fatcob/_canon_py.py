"""Pure-Python canonical-labeling kernel.

Works on a dense integer encoding of one connected fat graph: half-edges
are ``0..n-1``, ``sigma[i]`` is the next half-edge counterclockwise at
the same vertex and ``inv[i]`` the other half of the same edge.

The canonical code is the lexicographic minimum, over all starting
half-edges, of the byte string

    [number of vertices] [valences in visit order] [relabelled inv]

produced by a breadth-first relabelling: starting at ``h0`` we label
the whole fan of its vertex in sigma-order, then process the partners
of the labelled half-edges first-in-first-out, labelling each untouched
fan as it is reached.  Two connected graphs are isomorphic exactly when
their minimal codes agree, and the number of starts achieving the
minimum is the order of the automorphism group.

The search skips the starts that cannot reach the minimum (McKay's
pruning of a branch whose partial code already exceeds the best):

- Every start of a connected graph reaches all ``nv`` vertices, so the
  second byte, the valence of the start vertex, decides first.  Only
  the half-edges at vertices of minimum valence are tried
  (:func:`min_valence_starts`).
- While a start sweeps its fans, each new valence is compared with the
  best code's valence at that position; the start is dropped at the
  first larger one.  When all valences are equal, the relabelled
  ``inv`` is compared entry by entry up to the first difference.  The
  code bytes are built only for a start that wins.
- Starts are tried in increasing order and only a strictly smaller
  code replaces the best, so ``min_code`` reports the smallest start
  achieving the minimum; a dropped start is strictly greater than the
  best, so the count of starts equal to the minimum is exact.

:mod:`fatcob._canon_fast` is a compiled drop-in replacement; the active
backend is chosen in :mod:`fatcob._canon`.
"""

BACKEND = "python"


def relabel_from(sigma, inv, n, h0):
    """BFS relabelling started at ``h0``.

    Returns ``(new_label, visit_order, valences)`` where ``new_label``
    maps old index -> new index (-1 when unreachable) and
    ``visit_order`` is its inverse list.
    """
    nl = [-1] * n
    order = []
    valences = []

    def sweep(h):
        cnt = 0
        cur = h
        while nl[cur] < 0:
            nl[cur] = len(order)
            order.append(cur)
            cur = sigma[cur]
            cnt += 1
        valences.append(cnt)

    sweep(h0)
    i = 0
    while i < len(order):
        p = inv[order[i]]
        if nl[p] < 0:
            sweep(p)
        i += 1
    return nl, order, valences


def code_from(sigma, inv, n, h0):
    """Code of the relabelling started at ``h0`` (graph must be connected)."""
    nl, order, valences = relabel_from(sigma, inv, n, h0)
    if len(order) != n:
        raise ValueError("graph is not connected")
    return bytes([len(valences)]) + bytes(valences) + \
        bytes(nl[inv[order[k]]] for k in range(n))


def is_connected(sigma, inv, n):
    if n == 0:
        return True
    _, order, _ = relabel_from(sigma, inv, n, 0)
    return len(order) == n


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
        fan = [h]
        cur = sigma[h]
        while cur != h:
            fan.append(cur)
            cur = sigma[cur]
        for cur in fan:
            seen[cur] = True
        if len(fan) < least:
            least, starts = len(fan), fan
        elif len(fan) == least:
            starts += fan
    starts.sort()
    return starts


def _search(sigma, inv, n):
    """``(code, aut, best_start)`` over the minimum-valence starts, or
    ``None`` when the graph is disconnected (see the module docstring).
    """
    best_vals = best_tail = None
    best_start = aut = 0
    for h0 in min_valence_starts(sigma, n):
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
                aut += 1
                continue
            if t > b:
                continue
        best_vals, best_start, aut = vals, h0, 1
        best_tail = bytes(map(inv.__getitem__, order)).translate(
            bytes(nl).ljust(256, b"\0"))
    if best_vals is None:
        return None, 0, 0
    return bytes([len(best_vals)]) + bytes(best_vals) + best_tail, aut, \
        best_start


def min_code(sigma, inv, n):
    """Minimal code over all starts, with automorphism count.

    Returns ``(code, aut, best_start)``; ``aut`` is the number of
    starting half-edges whose code equals the minimum, i.e. the order
    of the automorphism group of the connected fat graph, and
    ``best_start`` the smallest of them.
    """
    found = _search(sigma, inv, n)
    if found is None:
        raise ValueError("graph is not connected")
    return found


def census_code(sigma, inv, n):
    """Minimal code, or ``None`` when the graph is disconnected."""
    if n == 0:
        return b"\x00"
    found = _search(sigma, inv, n)
    return None if found is None else found[0]
