"""Small exact matrix routines used by the homology module.

Matrices are lists of rows of Python ``int``s; a ``Fraction`` appears
only where a row reduction divides by a pivot other than +-1, and in
the determinant, which is always returned as a ``Fraction`` so that
ratios of determinants stay exact.  The homology bases and
differentials themselves are integer graph data in
:mod:`fatcob.homology`; what is left here are the determinants of the
small induced matrices (an exact determinant does not change under
transposition, so callers pass lists of columns), the lift corrections
(:func:`solve`), and the one reduction of a connecting map beside the
unit columns (:func:`rref`), which gives its kernel and the unit
complement of its image together.  Incidence matrices are
totally unimodular, so their row reductions meet only +-1 pivots and
stay integral.  Everything is deterministic: row reduction always
picks the leftmost usable pivot column and the first nonzero row below
it, so repeated runs give identical bases and signs.
"""

import math
from fractions import Fraction

from .errors import InvariantViolation

_ONE = Fraction(1)


def rref(m):
    """Reduced row echelon form; returns ``(R, pivot_columns)``.

    Each step divides and subtracts only at the columns where the pivot
    row is nonzero: every other entry would be divided or have zero
    subtracted, which leaves its value unchanged.  A pivot of 1 leaves
    its row as it is and a pivot of -1 negates it, so integer rows stay
    integers; only another pivot divides, through ``Fraction``.
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
            inv = 1 / Fraction(pv)
            for k in support:
                prow[k] = prow[k] * inv
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
    """One exact solution of ``m x = b`` (free variables zero), or None."""
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
    """Exact determinant of a square matrix of ints or ``Fraction``s, as a
    :class:`Fraction`.

    Each row is first scaled by the lcm of its entries' denominators, so
    the elimination runs on integers; the product of the scales divides
    out at the end.  Fraction-free Bareiss elimination (Bareiss 1968):
    step ``k`` replaces every entry below and right of the pivot by the
    2x2 minor with the pivot, divided by the previous pivot, a division
    that is always exact.  The last pivot is then the determinant.
    The empty matrix, whose determinant is 1, returns one shared
    ``Fraction(1)`` at once.
    """
    n = len(m)
    if not n:
        return _ONE
    a = []
    scale = 1
    for row in m:
        if len(row) != n:
            raise InvariantViolation("determinant needs a square matrix")
        lcm = math.lcm(*[x.denominator for x in row])
        a.append([x.numerator * (lcm // x.denominator) for x in row])
        scale *= lcm
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
                return Fraction(0)
        rowk = a[k]
        pv = rowk[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (pv * row[j] - f * rowk[j]) // prev
        prev = pv
    return Fraction(sign * prev, scale)
