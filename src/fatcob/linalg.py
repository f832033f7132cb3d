"""Small exact-rational matrix routines used by the homology module.

Matrices are lists of rows of :class:`fractions.Fraction`.  The homology
bases and differentials themselves are integer graph data in
:mod:`fatcob.homology`; what is left here are the determinants of the
small induced matrices (an exact determinant does not change under
transposition, so callers pass lists of columns), the lift corrections
(:func:`solve`), the kernel of the connecting map and the unit
complement of its image (:func:`rref`).  Everything is deterministic:
row reduction always picks the leftmost usable pivot column and the
first nonzero row below it, so repeated runs give identical bases and
signs.
"""

from fractions import Fraction

from .errors import InvariantViolation

ZERO = Fraction(0)
ONE = Fraction(1)


def zeros(rows, cols):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = ONE
    return out


def transpose(m):
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def copy(m):
    return [list(row) for row in m]


def rref(m):
    """Reduced row echelon form; returns ``(R, pivot_columns)``.

    Each step divides and subtracts only at the columns where the pivot
    row is nonzero: every other entry would be divided or have zero
    subtracted, which leaves its value unchanged.
    """
    r = copy(m)
    rows = len(r)
    cols = len(r[0]) if rows else 0
    pivots = []
    lead = 0
    for col in range(cols):
        pivot_row = None
        for i in range(lead, rows):
            if _nonzero(r[i][col]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        r[lead], r[pivot_row] = r[pivot_row], r[lead]
        prow = r[lead]
        support = [k for k, x in enumerate(prow) if _nonzero(x)]
        pv = prow[col]
        if pv != 1:
            for k in support:
                prow[k] = prow[k] / pv
        for i in range(rows):
            row = r[i]
            f = row[col]
            if i != lead and _nonzero(f):
                for k in support:
                    row[k] -= f * prow[k]
        pivots.append(col)
        lead += 1
        if lead == rows:
            break
    return r, pivots


def _nonzero(x):
    # the identity test skips Fraction.__eq__ for the shared ZERO entries
    return x is not ZERO and x != 0


def kernel_basis(m, cols):
    """``(basis, pivots)`` from one row reduction of ``m``: a null-space
    basis, one vector per free column in column order with a 1 at its
    free column, and the pivot columns of ``m``."""
    if cols == 0:
        return [], []
    if not m:
        return identity(cols), []
    r, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(cols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [ZERO] * cols
        v[j] = ONE
        for row_idx, pc in enumerate(pivots):
            v[pc] = -r[row_idx][j]
        basis.append(v)
    return basis, pivots


def solve(m, b):
    """One exact solution of ``m x = b`` (free variables zero), or None."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return [ZERO] * cols if all(x == 0 for x in b) else None
    aug = [list(row) + [b[i]] for i, row in enumerate(m)]
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx][cols]
    return x


def det(m):
    """Determinant by fraction-free-ish Gaussian elimination."""
    n = len(m)
    if n == 0:
        return ONE
    if any(len(row) != n for row in m):
        raise InvariantViolation("determinant needs a square matrix")
    a = copy(m)
    sign = ONE
    out = ONE
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if a[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        pv = a[col][col]
        out *= pv
        for i in range(col + 1, n):
            if a[i][col] != 0:
                f = a[i][col] / pv
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return sign * out

