"""Relative chain complexes, determinant lines and the sign calculus.

For an admissible decorated graph the pair (graph, incoming boundary)
is computed by a two-term integer complex: one 1-cell per extra
half-edge, one 0-cell per extra edge midpoint and per extra vertex,
with ``d(h) = [midpoint of h's edge] - [source of h]`` and the source
term dropped when it lies on the incoming part.  Every differential
is the incidence matrix of a graph on the 0-cells plus one ground
node (the incoming part), and it is stored only as that graph's arcs,
one ``(plus, minus)`` pair of endpoints per 1-cell.  Kernel and
cokernel bases come from a union-find spanning forest instead of row
reduction, and so does the split of a gluing's connecting map; they are
the bases leftmost-pivot row reduction would pick, so every sign below
is reproducible.  Only the lift corrections still solve by row
reduction, on a dense copy of the columns they need.  Each complex is
read off the graph's maps through name-to-position dicts.
It is built once per graph object, by :func:`relative_chain_complex`,
and kept on the graph: a graph is immutable, and any one graph is the
source or target of many morphisms and gluings, which all share its
complex, so the complex is stored read-only.  A morphism that passed
the one morphism check in :func:`fatcob.morphisms.require_valid` is
not validated again.  A chain map between two complexes is
a cell map, which sends each source cell to a sum of target cells with
coefficient +1, stored as the tuple of their indices (empty for a cell
sent to zero); its preimages give the projection onto a quotient and
the section of a collapse, which :func:`morphism_det_sign` checks to be
the exact inverse of the forward map on H1 and H0.  Every chain, basis
vector and coordinate vector holds Python ``int``s: incidence matrices
are totally unimodular, so even the lift corrections stay integral, and
so are the determinants.  ``Fraction`` enters only in the det-line
scalars, the ratios of those determinants.

The determinant line of a complex is the top exterior power of its
degree-1 homology tensored with the dual top power of its degree-0
homology; it carries an integer degree (rank H1 - rank H0) and, once
bases are fixed, morphisms and gluings act on it by explicit nonzero
rationals.  A gluing cuts the matched outgoing leaf cells, which are
acyclic, out of the first graph's complex: a quasi-isomorphism.  The
rest spans a subcomplex of the glued graph's own complex, with the
second graph's complex as quotient, and the one six-term exact
homology sequence of that extension produces the gluing isomorphism of
determinant lines.  That isomorphism on the d-th tensor power is the
d=1 scalar to the d-th power times a Koszul sign, so a
:class:`~fatcob.gluing.GluingMatch` glues and runs the six-term sequence
once and keeps that scalar for every d; the complexes stay on their
graphs.

The two ways of stacking two pairs of pants give gluing scalars on two
glued graphs.  Each scalar is carried along admissible collapses, by
their det-line signs, to a graph both glued graphs collapse onto, and
there the ratio is the dimension-parity sign of the composition
product.  Collapses and isomorphisms keep the ordered incoming circles,
and in genus 0 an arc between two of them has one class, so every
common graph gives the same ratio.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import linalg
from ._record import Record
from .errors import (InvalidMorphism, InvalidParameter, InvariantViolation,
                     ResultInvalid, _require_count)
from .graphs import _find
# validate_morphism is not called here, but
# perfbench/test_perfbench.py reads it from this module
from .morphisms import (canonical_form, collapse_edges, compose,
                        find_isomorphism, require_valid, validate_morphism)
from .openclosed import _require_decorated, incoming_partition, is_admissible


def _check(ok, message):
    """Raise :class:`InvariantViolation` unless ``ok``, also under -O."""
    if not ok:
        raise InvariantViolation(message)


class ChainComplexPair:
    """A two-term complex ``C1 -> C0`` with chosen homology bases.

    ``basis1`` labels the 1-cells, ``basis0`` the 0-cells.  The complex
    is the incidence complex of a graph: its nodes are the 0-cells and a
    ground node (index ``len(basis0)``) standing in for a missing
    endpoint, and 1-cell ``j`` is an arc from ``minus[j]`` to
    ``plus[j]``, so ``d[j] = [plus[j]] - [minus[j]]`` with the ground
    term dropped.  The arcs are the only stored form of the
    differential; an endpoint outside ``0..len(basis0)`` raises.

    The bases are the ones leftmost-pivot row reduction would choose,
    read off a union-find scan of the arcs in basis order
    (:func:`_forest_bases`).  An arc that
    joins two components is a pivot; every other arc is free, and its
    ``h1_basis`` vector is its fundamental cycle in the spanning forest
    of the pivots (a 1 at the free column, entries in {0, +-1}).  The
    degree-0 homology is the cokernel, coordinatized by the unit vectors
    at the free 0-cells: the last 0-cell of each component not joined
    to ground.  The class of a 0-chain sums it over those components.

    A graph's complex is shared by everything that meets the graph, so
    it is read-only: the arcs, the bases and the index lists are tuples,
    the label-to-index dicts are built here, and nothing changes after
    construction.
    """

    __slots__ = ("basis1", "basis0", "plus", "minus", "h1_basis",
                 "_pos1", "_pos0", "_free1", "_free0", "_class0", "_cycles")

    def __init__(self, basis1, basis0, plus, minus):
        self.basis1 = tuple(basis1)
        self.basis0 = tuple(basis0)
        self.plus, self.minus = tuple(plus), tuple(minus)
        n1, n0 = len(self.basis1), len(self.basis0)
        ends = self.plus + self.minus
        _check(len(self.plus) == len(self.minus) == n1
               and (not ends or (min(ends) >= 0 and max(ends) <= n0)),
               "arc endpoints do not lie on the 0-cells and ground")
        self._pos1 = {c: i for i, c in enumerate(self.basis1)}
        self._pos0 = {c: i for i, c in enumerate(self.basis0)}
        self._free1, self._free0, self._class0, self._cycles = \
            _forest_bases(self.plus, self.minus, n0)
        self.h1_basis = tuple(tuple(cycle.get(j, 0) for j in range(n1))
                              for cycle in self._cycles)

    # -- ranks ------------------------------------------------------------

    @property
    def rank_h1(self):
        return len(self.h1_basis)

    @property
    def rank_h0(self):
        return len(self._free0)

    @property
    def degree(self):
        """Degree of the determinant line: rank H1 - rank H0."""
        return self.rank_h1 - self.rank_h0

    @property
    def h0_basis(self):
        """Unit-vector representatives of the cokernel basis classes."""
        out = []
        for i in self._free0:
            v = [0] * len(self.basis0)
            v[i] = 1
            out.append(v)
        return out

    # -- coordinates -------------------------------------------------------

    def boundary(self, vec):
        """The differential applied to a 1-chain, as a list over
        ``basis0``."""
        out = [0] * (len(self.basis0) + 1)
        for x, p, m in zip(vec, self.plus, self.minus):
            if x:
                out[p] += x
                out[m] -= x
        out.pop()
        return out

    def h1_coords(self, vec):
        """Coordinates of a kernel vector in the chosen H1 basis."""
        _check(not any(self.boundary(vec)), "vector is not a cycle")
        coords = [vec[j] for j in self._free1]
        check = [0] * len(self.basis1)
        for c, cycle in zip(coords, self._cycles):
            if c:
                for j, x in cycle.items():
                    check[j] += c * x
        _check(check == list(vec), "kernel coordinates failed to reproduce")
        return coords

    def h0_class(self, vec):
        """Coordinates of the class of ``vec`` in the cokernel basis."""
        out = [0] * len(self._free0)
        for x, k in zip(vec, self._class0):
            if x and k is not None:
                out[k] += x
        return out

    def positions1(self):
        """``{label: index}`` over ``basis1``; read it, do not change it."""
        return self._pos1

    def positions0(self):
        """``{label: index}`` over ``basis0``; read it, do not change it."""
        return self._pos0

    def index1(self, label):
        try:
            return self.positions1()[label]
        except KeyError:
            raise InvalidParameter("%r is not a 1-cell" % (label,)) from None

    def index0(self, label):
        try:
            return self.positions0()[label]
        except KeyError:
            raise InvalidParameter("%r is not a 0-cell" % (label,)) from None


def _forest_bases(plus, minus, n0):
    """``(free1, free0, class0, cycles)`` of the arcs from ``minus[j]``
    to ``plus[j]`` on ``n0`` nodes and ground (node ``n0``), read off
    one union-find scan of the arcs in order.

    ``free1`` lists the arcs that close a cycle, every other arc joining
    two components; ``cycles[k]`` is the fundamental cycle of
    ``free1[k]`` as a ``{arc: +-1}`` dict; ``free0`` lists the last node
    of each component not joined to ground, and ``class0[i]`` is the
    position in ``free0`` of node ``i``'s component, or None on ground's.
    """
    root = list(range(n0 + 1))
    forest = [[] for _ in range(n0 + 1)]
    free1 = []
    for j, (p, m) in enumerate(zip(plus, minus)):
        a, b = _find(root, p), _find(root, m)
        if a == b:
            free1.append(j)
        else:
            root[a] = b
            forest[p].append((m, j, -1))
            forest[m].append((p, j, 1))
    top = [_find(root, u) for u in range(n0 + 1)]
    ground = top[n0]
    last = {}
    for i in range(n0):
        last[top[i]] = i
    free0 = tuple(sorted(i for r, i in last.items() if r != ground))
    slot = {top[i]: k for k, i in enumerate(free0)}
    class0 = tuple(slot.get(top[i]) for i in range(n0))
    up, depth = _root_forest(forest)
    cycles = tuple(_fundamental_cycle(up, depth, j, plus[j], minus[j])
                   for j in free1)
    return tuple(free1), free0, class0, cycles


def _root_forest(forest):
    """``(up, depth)`` of the spanning forest, rooted at ground (the last
    node) and at the first node of every other tree.  ``up[u]`` is
    ``(parent, arc, sign)``, where ``sign`` times the arc's boundary is
    ``[u] - [parent]``."""
    n = len(forest)
    up = [None] * n
    depth = [-1] * n
    for r in [n - 1] + list(range(n - 1)):
        if depth[r] >= 0:
            continue
        depth[r] = 0
        stack = [r]
        while stack:
            u = stack.pop()
            for w, arc, sign in forest[u]:
                if depth[w] < 0:
                    depth[w] = depth[u] + 1
                    up[w] = (u, arc, sign)
                    stack.append(w)
    return up, depth


def _fundamental_cycle(up, depth, j, p, m):
    """The kernel vector of the free arc ``j`` from ``m`` to ``p``, as a
    ``{column: value}`` dict: 1 at ``j`` minus the forest path from
    ``m`` to ``p``, each arc signed by its direction on the path."""
    out = {j: 1}
    while p != m:
        if depth[p] >= depth[m]:
            p, arc, sign = up[p]
            out[arc] = -sign
        else:
            m, arc, sign = up[m]
            out[arc] = sign
    return out


def relative_chain_complex(g):
    """The two-term complex of ``g`` relative to its incoming boundary.

    The first successful call builds and checks the complex and keeps it
    in ``g``'s ``_cc`` slot; later calls return that same object.  A
    call that raises keeps nothing.
    """
    _require_decorated(g)
    if g._cc is not None:
        return g._cc
    part = incoming_partition(g)
    base = g.base
    n_e = len(part.e_e)
    ground = n_e + len(part.e_v)
    # edge and vertex names may coincide, so each kind has its own dict
    epos = {e: i for i, e in enumerate(part.e_e)}
    vpos = {v: i for i, v in enumerate(part.e_v, n_e)}
    edge_of, source = base.edge_map, base.source_map
    plus = [epos[edge_of[h]] for h in part.e_h]
    minus = [vpos.get(source[h], ground) for h in part.e_h]
    basis0 = [("E", e) for e in part.e_e] + [("V", v) for v in part.e_v]
    cc = ChainComplexPair(part.e_h, basis0, plus, minus)
    _check(cc.rank_h0 - cc.rank_h1 == part.euler_difference,
           "homology ranks disagree with the cell count")
    g._cc = cc
    return cc


def relative_euler_char(g):
    """``|eV| - |eE|``, the degree-shift unit of the induced operation."""
    return incoming_partition(g).euler_difference


def operation_degree(g, dim):
    """Degree shift of the operation on a ``dim``-manifold's loop homology."""
    _require_count(dim, "manifold dimension")
    return dim * relative_euler_char(g)


# ---------------------------------------------------------------------------
# graded lines


class GradedLine(namedtuple("GradedLine", "degree scalar")):
    """A one-dimensional graded piece: integer degree, nonzero scale.

    Every way of making one checks the scalar, ``_replace`` included.
    """
    __slots__ = ()

    def __new__(cls, degree, scalar):
        # an int or a float here means an exact ratio was lost upstream
        if not isinstance(scalar, Fraction):
            raise InvalidParameter("graded line scalar %r is not a Fraction"
                                   % (scalar,))
        if scalar == 0:
            raise InvalidParameter("graded line scalar must be nonzero")
        return tuple.__new__(cls, (degree, scalar))

    @classmethod
    def _make(cls, values):
        return cls(*values)

    @property
    def sign(self):
        return 1 if self.scalar > 0 else -1


def tensor(l1, l2):
    return GradedLine(l1.degree + l2.degree, l1.scalar * l2.scalar)


def swap(l1, l2):
    """Koszul sign of exchanging the two factors."""
    return -1 if (l1.degree * l2.degree) % 2 else 1


def power(line, d):
    _require_count(d, "tensor power")
    return GradedLine(d * line.degree, line.scalar ** d)


# ---------------------------------------------------------------------------
# chain maps of morphisms


def _scatter(vec, cell_map, n):
    """Image of ``vec`` under a cell map, as a length-``n`` vector.

    ``cell_map[i]`` holds the target indices that source cell ``i`` maps
    to with coefficient +1; ``vec[i]`` is added at each of them.
    """
    out = [0] * n
    for x, targets in zip(vec, cell_map):
        if x:
            for t in targets:
                out[t] += x
    return out


def _check_chain_map(F, T, f1, f0):
    """Raise unless ``f0 . dF == dT . f1``, compared 1-cell by 1-cell on
    the arc endpoints; the ground node maps to and counts as zero.

    With every coefficient +1, ``f0[p] - f0[m] == sum(T.plus - T.minus)``
    over the targets is the equality of the nonnegative endpoint counts
    ``f0[p] + T.minus == f0[m] + T.plus``, each read as a sorted list
    of target 0-cells with ground left out."""
    f0 = list(f0) + [()]
    ground = len(T.basis0)
    tplus, tminus = T.plus, T.minus
    for targets, p, m in zip(f1, F.plus, F.minus):
        lhs = list(f0[p])
        rhs = list(f0[m])
        for t in targets:
            lhs.append(tminus[t])
            rhs.append(tplus[t])
        if lhs != rhs:
            lhs = sorted(u for u in lhs if u != ground)
            rhs = sorted(u for u in rhs if u != ground)
            _check(lhs == rhs,
                   "chain map does not commute with the differentials")


class ChainMap(Record):
    """A morphism's cell maps between the relative complexes
    (:class:`ChainComplexPair`): ``f_eH`` on the 1-cells, ``f_eEV`` on
    the 0-cells."""
    _fields = __slots__ = ("source_cc", "target_cc", "f_eH", "f_eEV")

    def __init__(self, source_cc, target_cc, f_eH, f_eEV):
        self.source_cc = source_cc
        self.target_cc = target_cc
        self.f_eH = f_eH
        self.f_eEV = f_eEV


def chain_map_of_morphism(m):
    """The induced map on relative complexes of an admissible morphism.

    Half-edges map to their image half-edge (zero when collapsed or
    when the image lies on the incoming part); midpoints follow their
    edge, collapsed midpoints and vertices go to the image vertex, and
    anything landing on the incoming part is zero in the relative
    complex.  The pair commutes with the differentials.  A morphism
    that :func:`~fatcob.morphisms.require_valid` has not checked, such
    as one built with ``Morphism(...)``, is checked and marked here, so
    it is validated once however often it is used.
    """
    require_valid(m)
    src, tgt = m.source, m.target
    # the first build of each complex checks its graph's admissibility,
    # and the graph is immutable, so a kept complex needs no new check
    A = relative_chain_complex(src)
    B = relative_chain_complex(tgt)
    sbase, tbase = src.base, tgt.base
    pos1, pos0 = B.positions1(), B.positions0()
    f1 = [(pos1[m.half_map[h]],) if m.half_map[h] in pos1 else ()
          for h in A.basis1]
    f0 = []
    for kind, name in A.basis0:
        if kind == "V":
            img = ("V", m.vertex_map[name])
        else:
            h0, _ = sbase.edge_halves(name)
            h1 = m.half_map[h0]
            img = (("V", m.vertex_map[sbase.source(h0)]) if h1 is None
                   else ("E", tbase.edge_of(h1)))
        f0.append((pos0[img],) if img in pos0 else ())
    _check_chain_map(A, B, f1, f0)
    return ChainMap(A, B, f_eH=f1, f_eEV=f0)


def _preimages(cell_map, n):
    """The inverse of a cell map onto ``n`` target cells: entry ``t``
    lists, in increasing order, the source cells sent onto cell ``t``."""
    pre = [[] for _ in range(n)]
    for i, targets in enumerate(cell_map):
        for t in targets:
            pre[t].append(i)
    return pre


def _induced_h1_matrix(A, B, cell_map):
    """The induced H1 map as its list of columns, which has the same
    determinant as the matrix."""
    return [B.h1_coords(_scatter(vec, cell_map, len(B.basis1)))
            for vec in A.h1_basis]


def _induced_h0_matrix(A, B, cell_map):
    """The induced H0 map as its list of columns."""
    return [B.h0_class(_scatter(rep, cell_map, len(B.basis0)))
            for rep in A.h0_basis]


def _dense(cc, cols):
    """The differential's columns ``cols`` as dense integer rows over
    ``basis0``, for :func:`linalg.solve`."""
    rows = [[0] * len(cols) for _ in range(len(cc.basis0) + 1)]
    for k, j in enumerate(cols):
        rows[cc.plus[j]][k] += 1
        rows[cc.minus[j]][k] -= 1
    rows.pop()
    return rows


def _quasi_iso_dets(A, B, f1, f0, error):
    """``(det H1(f), det H0(f))`` of cell maps ``f1``, ``f0`` from ``A``
    to ``B``; raises ``error`` unless ``f`` is a quasi-isomorphism."""
    if A.rank_h1 != B.rank_h1 or A.rank_h0 != B.rank_h0:
        raise error("map is not a quasi-isomorphism")
    det1 = linalg.det(_induced_h1_matrix(A, B, f1))
    det0 = linalg.det(_induced_h0_matrix(A, B, f0))
    if det1 == 0 or det0 == 0:
        raise error("induced homology map is singular")
    return det1, det0


def morphism_det_sign(m):
    """Sign of the induced isomorphism on the determinant line.

    Read off the forward chain map.  Its section is the preimage of the
    forward cell maps: the unique preimage of each half-edge, and the
    first preimage of each 0-cell (a collapsed tree's cells share one H0
    class).  The section is a chain map only up to corrections on the
    collapsed cells, an acyclic subcomplex, so it acts on homology, and
    that action must be the exact inverse of the forward one on H1 and H0.
    """
    cm = chain_map_of_morphism(m)
    A, B = cm.source_cc, cm.target_cc
    det1_f, det0_f = _quasi_iso_dets(A, B, cm.f_eH, cm.f_eEV,
                                     InvalidMorphism)
    g1 = _preimages(cm.f_eH, len(B.basis1))
    _check(all(len(pre) == 1 for pre in g1),
           "a target half-edge has no unique preimage")
    g0 = _preimages(cm.f_eEV, len(B.basis0))
    _check(all(g0), "a target 0-cell has no preimage")
    g0 = [pre[:1] for pre in g0]
    # H1 action of the section: lift and correct inside the collapsed
    # cells, which the forward map kills and which carry no homology
    k_cols = [j for j, targets in enumerate(cm.f_eH) if not targets]
    d_restricted = _dense(A, k_cols)
    cols = []
    for vec in B.h1_basis:
        lift = _scatter(vec, g1, len(A.basis1))
        defect = A.boundary(lift)
        x = linalg.solve(d_restricted, defect)
        _check(x is not None, "collapsed cells failed to absorb the defect")
        for idx, col in enumerate(k_cols):
            lift[col] -= x[idx]
        cols.append(A.h1_coords(lift))
    det1_g = linalg.det(cols)
    det0_g = linalg.det(_induced_h0_matrix(B, A, g0))
    _check(det1_f * det1_g == 1 and det0_f * det0_g == 1,
           "section is not the inverse of the forward map on homology")
    return 1 if det1_f * det0_f > 0 else -1


# ---------------------------------------------------------------------------
# the six-term sequence of an extension of complexes


def _split_connecting(delta_cols, n0):
    """``(kernel, pivots, complement)`` of a connecting map given as its
    list of columns over an ``n0``-dimensional H0.

    A lifted fundamental cycle leaves and re-enters the subcomplex at
    most once, so each column holds at most one +1 and at most one -1;
    anything else raises.  Each column is then an arc on the ``n0``
    classes plus ground, and one spanning forest
    (:func:`_forest_bases`) gives all three: the kernel is the
    fundamental cycles, the pivots are the arcs that join two
    components, and the unit vectors at the free nodes complement the
    image.  Kernel and pivots are the ones leftmost-pivot row reduction
    would pick.
    """
    plus, minus = [], []
    for v in delta_cols:
        ends = {1: n0, -1: n0}
        for i, x in enumerate(v):
            if x:
                _check(ends.get(x) == n0,
                       "connecting map is not an incidence matrix")
                ends[x] = i
        plus.append(ends[1])
        minus.append(ends[-1])
    free1, free0, _, cycles = _forest_bases(plus, minus, n0)
    n = len(delta_cols)
    kernel = [[cycle.get(j, 0) for j in range(n)] for cycle in cycles]
    pivots = sorted(set(range(n)) - set(free1))
    return kernel, pivots, list(free0)


def _ses_det_scalar(A, B, C, incl1, incl0, sect1, sect0):
    """Scalar of det(H A) (x) det(H C) -> det(H B) for an extension.

    ``incl*`` map A-indices to B-indices and ``sect*`` map C-indices to
    the B-indices of the cells over them.  The scalar is assembled from
    four base changes: splitting H1(B) over H1(A) and the kernel of the
    connecting map, splitting H1(C) over that kernel, splitting H0(A)
    over the connecting image, and splitting H0(B) under H0(C).  The
    kernel, the image and its unit complement come from one spanning
    forest (:func:`_split_connecting`), and the kernel lifts solve
    against one dense copy of A's differential.
    """
    nB1, nB0 = len(B.basis1), len(B.basis0)
    inc1, inc0, sec1, sec0 = ([(b,) for b in index]
                              for index in (incl1, incl0, sect1, sect0))
    outside0 = sorted(set(range(nB0)) - set(incl0))

    def a_part0(vec):
        _check(not any(vec[i] for i in outside0),
               "boundary left the subcomplex")
        return [vec[i] for i in incl0]

    # connecting map on H1(C)
    delta_cols = []
    for vec in C.h1_basis:
        lifted = _scatter(vec, sec1, nB1)
        delta_cols.append(A.h0_class(a_part0(B.boundary(lifted))))
    kerK, piv, comp_idx = _split_connecting(delta_cols, A.rank_h0)
    _check(len(piv) + len(comp_idx) == A.rank_h0,
           "connecting image has no complement")
    # s2: (kernel basis | chosen complements) against the H1(C) basis
    unitsW = [[int(k == p) for k in range(len(C.h1_basis))] for p in piv]
    s2 = linalg.det(kerK + unitsW)
    # s3: (connecting images | unit complement) in H0(A)
    s3 = linalg.det([delta_cols[p] for p in piv]
                    + [[int(k == q) for k in range(A.rank_h0)]
                       for q in comp_idx])
    # s1: (H1(A) | corrected lifts of the kernel) in H1(B)
    colsB = _induced_h1_matrix(A, B, inc1)
    dA = _dense(A, range(len(A.basis1)))
    for kvec in kerK:
        zC = [0] * len(C.basis1)
        for c, bvec in zip(kvec, C.h1_basis):
            for i in range(len(zC)):
                zC[i] += c * bvec[i]
        lifted = _scatter(zC, sec1, nB1)
        defect = a_part0(B.boundary(lifted))
        y = linalg.solve(dA, defect)
        _check(y is not None, "kernel lift is not correctable")
        corrected = [a - b for a, b in zip(lifted, _scatter(y, inc1, nB1))]
        colsB.append(B.h1_coords(corrected))
    _check(len(colsB) == B.rank_h1, "rank bookkeeping broken in degree 1")
    s1 = linalg.det(colsB)
    # s4: (H0(A) complement | lifts of H0(C)) in H0(B)
    h0A = _induced_h0_matrix(A, B, inc0)
    cols0 = [h0A[q] for q in comp_idx] + _induced_h0_matrix(C, B, sec0)
    _check(len(cols0) == B.rank_h0, "rank bookkeeping broken in degree 0")
    s4 = linalg.det(cols0)
    _check(s1 and s2 and s3 and s4, "six-term base change is singular")
    _check(B.degree == A.degree + C.degree, "degrees fail to add")
    return Fraction(s1 * s4, s2 * s3)


def _restrict(cc, idx1, idx0):
    """The complex on the 1-cells ``idx1`` and 0-cells ``idx0`` of ``cc``,
    endpoints re-indexed; an endpoint outside ``idx0`` goes to ground."""
    ground = len(idx0)
    pos = {i: k for k, i in enumerate(idx0)}
    return ChainComplexPair([cc.basis1[j] for j in idx1],
                            [cc.basis0[i] for i in idx0],
                            [pos.get(cc.plus[j], ground) for j in idx1],
                            [pos.get(cc.minus[j], ground) for j in idx1])


def _drop_scalar(cc, dropped_halves, dropped_cells):
    """det-line scalar of cutting an acyclic set of cells out of ``cc``.

    Returns ``(subcomplex, scalar)`` where scalar carries
    det(H sub) -> det(H cc).  The kept cells must span a subcomplex, and
    the dropped ones are acyclic exactly when its inclusion is a
    quasi-isomorphism (the long exact sequence of the pair).  Then the
    six-term sequence has no connecting map, and its scalar is the
    product of the inclusion's determinants on H1 and H0.
    """
    keep1 = [i for i, lab in enumerate(cc.basis1) if lab not in dropped_halves]
    keep0 = [i for i, lab in enumerate(cc.basis0) if lab not in dropped_cells]
    sub = _restrict(cc, keep1, keep0)
    incl1, incl0 = [(i,) for i in keep1], [(i,) for i in keep0]
    _check_chain_map(sub, cc, incl1, incl0)
    det1, det0 = _quasi_iso_dets(sub, cc, incl1, incl0, ResultInvalid)
    return sub, Fraction(det1 * det0)


def _gluing_scalar(g1, g2, match):
    """d=1 scalar of the gluing isomorphism.

    Steps: cut the matched outgoing leaf cells out of the first complex
    (an acyclic drop), place that complex and the second graph's complex
    on their cells in the glued graph's own complex, check that they are
    its subcomplex and quotient, and run the six-term sequence of that
    extension.  None of it depends on the tensor power, so a match
    computes the scalar once and keeps it in its ``_det_line`` slot; the
    three complexes stay on their graphs, the glued one on
    ``match._glued``.  The match's graphs are checked on every call;
    admissibility only by the first build of each graph's complex, as
    graphs are immutable.  A computation that raises keeps nothing.
    """
    match.require_graphs(g1, g2)
    if match._det_line is None:
        object.__setattr__(match, "_det_line",
                           _compute_gluing_scalar(g1, g2, match))
    return match._det_line


def _compute_gluing_scalar(g1, g2, match):
    """The d=1 scalar, afresh."""
    from .gluing import glue
    cc1 = relative_chain_complex(g1)
    cc2 = relative_chain_complex(g2)
    glued, data = glue(g1, g2, match, with_data=True)
    halves1, edges1, vertices1 = (cells[0] for cells in data)
    dropped_halves = {h for h, img in halves1.items() if img is None}
    dropped_cells = {("E", e) for e, img in edges1.items() if img is None} | \
        {("V", v) for v, img in vertices1.items() if img is None}
    if dropped_halves or dropped_cells:
        cc1p, s_drop = _drop_scalar(cc1, dropped_halves, dropped_cells)
    else:
        cc1p, s_drop = cc1, 1
    ccG = relative_chain_complex(glued)

    def glued_cell(i, cell):
        kind, name = cell
        return (kind, (data.edges if kind == "E" else data.vertices)[i][name])

    try:
        incl1 = [ccG.index1(data.halves[0][h]) for h in cc1p.basis1]
        incl0 = [ccG.index0(glued_cell(0, c)) for c in cc1p.basis0]
        sect1 = [ccG.index1(data.halves[1][h]) for h in cc2.basis1]
        sect0 = [ccG.index0(glued_cell(1, c)) for c in cc2.basis0]
    except ValueError as exc:
        raise ResultInvalid(
            "glued cells disagree with the two graphs' cells: %s" % exc)
    _check(sorted(incl1 + sect1) == list(range(len(ccG.basis1)))
           and sorted(incl0 + sect0) == list(range(len(ccG.basis0))),
           "glued cells are not a bijection")
    # the first graph's cells span a subcomplex of the glued complex, and
    # sending them to zero leaves the second graph's complex
    _check_chain_map(cc1p, ccG, [(i,) for i in incl1],
                     [(i,) for i in incl0])
    _check_chain_map(ccG, cc2,
                     _preimages([(i,) for i in sect1], len(ccG.basis1)),
                     _preimages([(i,) for i in sect0], len(ccG.basis0)))
    s_ses = _ses_det_scalar(cc1p, ccG, cc2, incl1, incl0, sect1, sect0)
    return s_ses / s_drop


def gluing_det_iso(g1, g2, match, d):
    """The gluing isomorphism on d-th tensor powers of det lines.

    Returns a :class:`GradedLine` whose degree is the degree of the
    glued line and whose scalar is the image of the canonical basis
    element of det(g1-line)^(x)d (x) det(g2-line)^(x)d, including the
    Koszul sign of interleaving the d copies of the two factors.  The
    scalar is the d=1 scalar to the d-th power, which the match
    computes once for every d.

    Raises :class:`InvalidParameter` for a bad ``d`` and
    :class:`InvalidMatch` for a match computed for other graphs.  An
    internal fault surfaces as itself, never as :class:`NotGluable`:
    :class:`ResultInvalid` from the gluing or the cell bookkeeping,
    :class:`InvariantViolation` from a failed consistency check.
    """
    _require_count(d, "tensor power")
    scalar = _gluing_scalar(g1, g2, match)
    # the first gluing kept all three complexes on their graphs
    ccG = relative_chain_complex(match._glued[0])
    deg1 = relative_chain_complex(g1).degree
    deg2 = relative_chain_complex(g2).degree
    _check(ccG.degree == deg1 + deg2, "glued degree is not the sum")
    shuffle = -1 if (deg1 * deg2 * (d * (d - 1) // 2)) % 2 else 1
    return GradedLine(d * ccG.degree, Fraction(shuffle) * scalar ** d)


# ---------------------------------------------------------------------------
# skew-associativity of the composition product


def _collapse_closure(m):
    """Every graph that admissible collapses of one edge, never a loop or
    a special leaf's edge, reach from ``m``'s target, keyed by canonical
    form, with the composite morphism from ``m``'s source that found it."""
    reached = {canonical_form(m.target): m}
    todo = [m]
    while todo:
        path = todo.pop(0)
        g = path.target
        base = g.base
        leaf_edges = {base.edge_of(base.leaf_half(v)) for v in g.special}
        for e in base.edges():
            u, w = base.edge_ends(e)
            if u == w or e in leaf_edges:
                continue
            out, step = collapse_edges(g, [e])
            key = canonical_form(out)
            if key not in reached and is_admissible(out)[0]:
                reached[key] = compose(step, path)
                todo.append(reached[key])
    return reached


def _stacking_closure(inner, outer, in_slot):
    """``(scalar, closure)`` of gluing ``inner`` into input ``in_slot`` of
    ``outer``: the d=1 gluing scalar, and the :func:`_collapse_closure`
    of the glued graph, inputs in composite order, smoothed by collapsing
    the least-named edge at each bivalent vertex."""
    from .gluing import gluable
    match = gluable(inner, outer, pairs=[(0, in_slot)])
    scalar = _gluing_scalar(inner, outer, match)
    glued = match._glued[0]
    if in_slot == 1:
        # the relative complex does not depend on the input order
        glued = glued.reorder_inputs(
            (glued.in_leaves[2], glued.in_leaves[0], glued.in_leaves[1]))
    base = glued.base
    forest = {min(base.edge_of(h) for h in base.fan(v))
              for v in base.bivalent_vertices()}
    smooth, m = collapse_edges(glued, forest)
    _check(is_admissible(smooth)[0], "smoothing made a stacking inadmissible")
    return scalar, _collapse_closure(m)


def _transport_ratio(left, right, key):
    """Ratio of two :func:`_stacking_closure` scalars carried to the graph
    ``key`` that both closures reach, left onto right by isomorphism."""
    (s_left, reached_left), (s_right, reached_right) = left, right
    m_left, m_right = reached_left[key], reached_right[key]
    psi = find_isomorphism(m_left.target, m_right.target)
    return (s_left * morphism_det_sign(compose(psi, m_left))
            / (s_right * morphism_det_sign(m_right)))


def skew_associativity_sign(d):
    """Ratio of the two ways of stacking two multiplications.

    Both stackings feed one pair of pants into an input of a second
    one whose incoming circles were pre-subdivided to the size of the
    outgoing cycle.  Each gluing scalar is carried by det-line transport
    to the least graph, by canonical form, that collapses of both glued
    graphs reach; the ratio is -1 to the d-th power.
    """
    _require_count(d, "manifold dimension")
    from .fixtures import pants, subdivided_incoming
    inner = pants()
    k_out = len(inner.leaf_cycle_normal_form(inner.out_leaves[0])) - 2
    outer = subdivided_incoming(pants(), k_out)
    left, right = (_stacking_closure(inner, outer, slot) for slot in (0, 1))
    common = min(left[1].keys() & right[1].keys())
    ratio = _transport_ratio(left, right, common)
    _check(ratio in (1, -1), "stacking comparison is not a sign")
    return 1 if (ratio ** d) > 0 else -1
