"""The ``.fg`` text format.

Line-based, ``#`` starts a comment, tokens are whitespace-separated and
case-sensitive::

    fatgraph
    vertex <name> [isolated]
    edge <name> <src> <dst>         # half-edges <name>.0 / <name>.1
    order <vertex> <half-edge> ...  # cyclic order at the vertex
    in <leaf> ...                   # ordered incoming leaves
    out <leaf> ...                  # ordered outgoing leaves
    closed <leaf> ...               # subset of the special leaves

Serialization emits vertices, edges and orders sorted by name, each
cyclic order rotated to start at its smallest half-edge, so parsing a
serialized graph reproduces it with identical identifiers.  A vertex or
edge name that would not read back as one token (empty, or holding
whitespace or ``#``) is refused with :class:`SemanticError`.
"""

from __future__ import annotations

from ._record import Record
from .errors import ParseError, SemanticError
from .graphs import FatGraph, new_fat_graph
from .openclosed import OpenClosedFatGraph, decorate


class GraphDocument(Record):
    """Parsed form of a ``.fg`` file: ``vertices`` lists ``(name,
    isolated)`` pairs, ``edges`` ``(name, src, dst)`` triples, and
    ``orders`` maps a vertex to its list of half-edges."""
    _fields = __slots__ = ("vertices", "edges", "orders", "in_leaves",
                           "out_leaves", "closed")

    def __init__(self, vertices=None, edges=None, orders=None,
                 in_leaves=None, out_leaves=None, closed=None):
        self.vertices = [] if vertices is None else vertices
        self.edges = [] if edges is None else edges
        self.orders = {} if orders is None else orders
        self.in_leaves = in_leaves
        self.out_leaves = out_leaves
        self.closed = closed

    @property
    def decorated(self):
        return (self.in_leaves is not None or self.out_leaves is not None
                or self.closed is not None)

    def build(self):
        """Construct the validated graph described by the document."""
        g = new_fat_graph(
            [name for name, _ in self.vertices],
            self.edges,
            self.orders,
            isolated=[name for name, iso in self.vertices if iso])
        if not self.decorated:
            return g
        return decorate(g, self.in_leaves or [], self.out_leaves or [],
                        set(self.closed or []))


def parse(text):
    """Parse ``.fg`` text into a :class:`GraphDocument`."""
    doc = GraphDocument()
    seen_header = False
    seen_order = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not seen_header:
            if tokens != ["fatgraph"]:
                raise ParseError("missing fatgraph header", line=lineno)
            seen_header = True
            continue
        word, args = tokens[0], tokens[1:]
        if word == "vertex":
            if len(args) == 1:
                doc.vertices.append((args[0], False))
            elif len(args) == 2 and args[1] == "isolated":
                doc.vertices.append((args[0], True))
            else:
                raise ParseError("vertex takes a name and an optional "
                                 "'isolated' flag", line=lineno)
        elif word == "edge":
            if len(args) != 3:
                raise ParseError("edge takes name, source and target",
                                 line=lineno)
            doc.edges.append(tuple(args))
        elif word == "order":
            if len(args) < 2:
                raise ParseError("order takes a vertex and its half-edges",
                                 line=lineno)
            if args[0] in seen_order:
                raise SemanticError(
                    "duplicate order line for vertex %r (line %d)"
                    % (args[0], lineno))
            seen_order.add(args[0])
            doc.orders[args[0]] = list(args[1:])
        elif word in ("in", "out", "closed"):
            attr = {"in": "in_leaves", "out": "out_leaves",
                    "closed": "closed"}[word]
            if getattr(doc, attr) is not None:
                raise SemanticError(
                    "duplicate %r line (line %d)" % (word, lineno))
            setattr(doc, attr, list(args))
        else:
            raise ParseError("unknown directive %r" % word, line=lineno)
    if not seen_header:
        raise ParseError("missing fatgraph header", line=1)
    return doc


def parse_graph(text):
    return parse(text).build()


def load(path):
    """Parse the ``.fg`` file at ``path``, which must be UTF-8; a byte
    order mark is read as text, so it fails the header check."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's line as parse numbers lines: the text before it,
        # then one character in its place
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError("invalid UTF-8 byte 0x%02x" % data[exc.start],
                         line=line) from None
    return parse_graph(text)


def _token(kind, name):
    """``name`` as written, if it reads back as the one token it was."""
    text = str(name)
    if "#" in text or text.split() != [text]:
        raise SemanticError("%s name %r is not a single .fg token"
                            % (kind, name))
    return text


def serialize(g):
    """Serialize a (decorated) fat graph; inverse of :func:`parse`."""
    oc = g if isinstance(g, OpenClosedFatGraph) else None
    base = oc.base if oc else g
    if not isinstance(base, FatGraph):
        raise TypeError("cannot serialize %r" % type(g).__name__)
    out = ["fatgraph"]
    for v in base.vertices:
        flag = " isolated" if base.is_isolated(v) else ""
        out.append("vertex %s%s" % (_token("vertex", v), flag))
    for e in base.edges():
        h0, h1 = base.edge_halves(e)
        out.append("edge %s %s %s" % (_token("edge", e), base.source(h0),
                                      base.source(h1)))
    for v in base.vertices:
        if base.is_isolated(v):
            continue
        out.append("order %s %s" % (v, " ".join(base.fan(v))))
    if oc is not None:
        # a bare "in" line keeps a graph without special leaves decorated
        if oc.in_leaves or not oc.special:
            out.append(" ".join(["in", *oc.in_leaves]))
        if oc.out_leaves:
            out.append("out %s" % " ".join(oc.out_leaves))
        if oc.closed:
            out.append("closed %s" % " ".join(sorted(oc.closed)))
    return "\n".join(out) + "\n"
