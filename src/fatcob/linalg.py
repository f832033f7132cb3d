"""Small exact integer matrix routines used by the homology module.

Matrices are lists of rows of Python ``int``s, and every result is an
``int``: the ratios of determinants are formed by the callers in
:mod:`fatcob.homology`.  The homology bases and differentials
themselves are integer graph data there; what is left here are the
determinants of the small induced matrices (an exact determinant does
not change under transposition, so callers pass lists of columns) and
the lift corrections (:func:`solve`, through :func:`rref`) on incidence
columns.  Incidence matrices are totally unimodular, so their row
reductions meet only +-1 pivots and stay integral; any other pivot
raises.  Everything is deterministic: row reduction always picks the
leftmost usable pivot column and the first nonzero row below it, so
repeated runs give identical bases and signs.
"""

from .errors import InvariantViolation


def rref(m):
    """Reduced row echelon form; returns ``(R, pivot_columns)``.

    Each step negates and subtracts only at the columns where the pivot
    row is nonzero: every other entry would be negated or have zero
    subtracted, which leaves its value unchanged.  A pivot of 1 leaves
    its row as it is and a pivot of -1 negates it, so integer rows stay
    integers; any other pivot raises :class:`InvariantViolation`.
    """
    r = [list(row) for row in m]
    rows = len(r)
    cols = len(r[0]) if rows else 0
    pivots = []
    lead = 0
    for col in range(cols):
        pivot_row = None
        for i in range(lead, rows):
            if r[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        r[lead], r[pivot_row] = r[pivot_row], r[lead]
        prow = r[lead]
        support = [k for k, x in enumerate(prow) if x]
        pv = prow[col]
        if pv == -1:
            for k in support:
                prow[k] = -prow[k]
        elif pv != 1:
            raise InvariantViolation("row reduction met the pivot %r, not +-1"
                                     % (pv,))
        for i in range(rows):
            row = r[i]
            f = row[col]
            if i != lead and f:
                for k in support:
                    row[k] -= f * prow[k]
        pivots.append(col)
        lead += 1
        if lead == rows:
            break
    return r, pivots


def solve(m, b):
    """One exact solution of ``m x = b`` (free variables zero), or None.

    ``m`` is totally unimodular.  An inconsistent system may also raise
    from :func:`rref`, when its right-hand side becomes a pivot other
    than +-1.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return [0] * cols if all(x == 0 for x in b) else None
    aug = [list(row) + [b[i]] for i, row in enumerate(m)]
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [0] * cols
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx][cols]
    return x


def det(m):
    """Exact determinant of a square matrix of ``int``s, as an ``int``.

    Fraction-free Bareiss elimination (Bareiss 1968): step ``k``
    replaces every entry below and right of the pivot by the 2x2 minor
    with the pivot, divided by the previous pivot, a division that is
    always exact.  The last pivot is then the determinant.  The empty
    matrix has determinant 1.  An entry that is not an ``int`` raises
    :class:`InvariantViolation`.
    """
    n = len(m)
    if not n:
        return 1
    a = []
    for row in m:
        if len(row) != n:
            raise InvariantViolation("determinant needs a square matrix")
        if not all(type(x) is int for x in row):
            raise InvariantViolation("determinant needs integer entries")
        a.append(list(row))
    sign = 1
    prev = 1
    for k in range(n):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        rowk = a[k]
        pv = rowk[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (pv * row[j] - f * rowk[j]) // prev
        prev = pv
    return sign * prev
