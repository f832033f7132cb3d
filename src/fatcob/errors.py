"""Exception hierarchy for fatcob.

Every structural or semantic failure raises a subclass of
:class:`FatcobError`, so callers can catch the whole family at once.
The CLI maps these to exit code 1 (domain failure) while
:class:`ParseError` is mapped to exit code 2.

A domain error is raised once, by the check that decides it, and no
handler relabels it.  :class:`NotGluable` is the family of gluability
failures.  :class:`InvariantViolation` and :class:`ResultInvalid` mark
internal faults: they reach the caller as themselves.  The rule for
count arguments, :func:`_require_count`, is kept here, where every
module can import it.
"""


class FatcobError(Exception):
    """Base class of all fatcob errors."""


# -- graph construction ------------------------------------------------------

class DuplicateName(FatcobError):
    """A vertex or edge name was used twice."""


class DanglingHalfEdge(FatcobError):
    """A half-edge is missing from the cyclic order of its source vertex."""


class WrongVertexOrder(FatcobError):
    """A half-edge is listed in the cyclic order of a vertex that is not
    its source."""


class UnknownEdge(FatcobError):
    """An operation referenced an edge that does not exist."""


class IsolatedVertex(FatcobError, ValueError):
    """Surface invariants were asked of a graph with isolated vertices."""


class DisconnectedGraph(FatcobError, ValueError):
    """The canonical-labelling kernel was handed a disconnected graph."""


class NonIntegerGenus(FatcobError):
    """`2 - chi - b` came out odd; the graph data is corrupted."""


# -- decorations -------------------------------------------------------------

class NotALeaf(FatcobError):
    """A decorated vertex is not a valence-1 vertex."""


class InOutOverlap(FatcobError):
    """The ordered incoming and outgoing leaf lists intersect."""


class ClosedNotSpecial(FatcobError):
    """A closed leaf is not listed as incoming or outgoing."""


class ClosedSharesCycle(FatcobError):
    """A closed leaf shares its boundary cycle with another special leaf."""


class NotAdmissible(FatcobError):
    """An operation requiring embedded incoming circles was handed a
    non-admissible graph."""


# -- morphisms ---------------------------------------------------------------

class InvalidMorphism(FatcobError):
    """A cell map violates one of the morphism conditions."""


class ForestContainsCycle(FatcobError):
    """The edge set chosen for collapsing contains a cycle."""


class DecorationDestroyed(FatcobError):
    """Collapsing would remove or merge a decorated leaf."""


class Mismatch(FatcobError):
    """Tried to compose morphisms whose middle graphs differ."""


class BoundExceeded(FatcobError):
    """Enumeration was asked to exceed the configured edge bound."""


# -- gluing ------------------------------------------------------------------

class NotGluable(FatcobError):
    """The pair of graphs cannot be glued: the base of every
    gluability failure."""


class SignatureMismatch(NotGluable):
    """The outgoing boundary of the first graph does not match the incoming
    boundary of the second as ordered 1-manifolds."""


class EdgeCountMismatch(NotGluable):
    """A matched pair of boundary cycles carries different edge counts."""

    def __init__(self, pair_index, k_out, k_in):
        super().__init__(
            "matched cycles of pair %d carry %d vs %d circle edges"
            % (pair_index, k_out, k_in))
        self.pair_index = pair_index
        self.k_out = k_out
        self.k_in = k_in


class InvalidMatch(FatcobError):
    """A gluing match does not fit the graphs it was applied to."""


class ResultInvalid(FatcobError):
    """Gluing produced an invalid graph (internal invariant violation)."""


class NotGluablePairMorphism(NotGluable):
    """A pair of morphisms collapses a circle edge on one side of a matched
    cycle but not the corresponding edge on the other side."""


# -- homology ----------------------------------------------------------------

class InvalidParameter(FatcobError, ValueError):
    """A numeric argument lies outside its domain: a negative manifold
    dimension or tensor power, an edge bound that is not an ``int``, or
    a zero graded-line scalar."""


def _require_count(n, what):
    """Raise :class:`InvalidParameter` unless ``n``, a count such as a
    tensor power or a manifold dimension, is a nonnegative ``int``
    (``bool`` refused)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise InvalidParameter("%s must be a nonnegative int, not %r"
                               % (what, n))


# -- file format -------------------------------------------------------------

class ParseError(FatcobError):
    """Syntax error in a .fg document."""

    def __init__(self, message, line=None):
        if line is not None:
            message += " (line %d)" % line
        super().__init__(message)
        self.line = line


class SemanticError(FatcobError):
    """The document parsed but the described graph is invalid."""


# -- internal checks ---------------------------------------------------------

class InvariantViolation(FatcobError):
    """An internal consistency check failed: a bug, not bad input."""
