"""Canonical-labeling kernel.

Works on a dense integer encoding of one connected fat graph: half-edges
are ``0..n-1``, ``sigma[i]`` is the next half-edge counterclockwise at
the same vertex and ``inv[i]`` the other half of the same edge.

The canonical code is the lexicographic minimum, over all starting
half-edges, of the sequence

    [number of vertices] [valences in visit order] [relabelled inv]

produced by a breadth-first relabelling: starting at ``h0`` we label
the whole fan of its vertex in sigma-order, then process the partners
of the labelled half-edges first-in-first-out, labelling each untouched
fan as it is reached.  Two connected graphs are isomorphic exactly when
their minimal codes agree, and the number of starts achieving the
minimum is the order of the automorphism group.  The sequence is
written one byte per entry up to 255 half-edges and in wider entries
above (:func:`encode`).

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
- Starts are tried in increasing order and only a strictly smaller
  code replaces the best, so ``min_code`` reports the smallest start
  achieving the minimum; a dropped start is strictly greater than the
  best, so the count of starts equal to the minimum is exact.
"""

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


def code_of(inv, nl, order, valences):
    """Code of a relabelling from :func:`relabel_from` that reached
    every half-edge."""
    return encode([len(valences)] + valences + [nl[inv[o]] for o in order],
                  len(order))


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


def _search(sigma, inv, n, starts):
    """``(code, aut, best_start)`` over ``starts``, or ``None`` when the
    graph is disconnected (see the module docstring).
    """
    best_vals = best_tail = None
    best_start = aut = 0
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
                aut += 1
                continue
            if t > b:
                continue
        best_vals, best_start, aut = vals, h0, 1
        if n < 256:
            best_tail = bytes(map(inv.__getitem__, order)).translate(
                bytes(nl).ljust(256, b"\0"))
        else:
            best_tail = [nl[inv[o]] for o in order]
    if best_vals is None:
        return None, 0, 0
    if n < 256:
        code = bytes([len(best_vals)]) + bytes(best_vals) + best_tail
    else:
        code = encode([len(best_vals)] + best_vals + best_tail, n)
    return code, aut, best_start


def min_code(sigma, inv, n):
    """Minimal code over all starts, with automorphism count.

    Returns ``(code, aut, best_start)``; ``aut`` is the number of
    starting half-edges whose code equals the minimum, i.e. the order
    of the automorphism group of the connected fat graph, and
    ``best_start`` the smallest of them.
    """
    found = _search(sigma, inv, n, min_valence_starts(sigma, n))
    if found is None:
        raise ValueError("graph is not connected")
    return found


def census_code(sigma, inv, n, starts):
    """Minimal code, or ``None`` when the graph is disconnected.

    ``starts`` is ``min_valence_starts(sigma, n)``, which the census
    computes once for all the pairings on one ``sigma``.
    """
    if n == 0:
        return b"\x00"
    found = _search(sigma, inv, n, starts)
    return None if found is None else found[0]
