"""Independent genus oracle: explicit disk-and-band CW complex.

Thicken a fat graph by hand: every vertex becomes a polygon, every
edge a rectangular band glued to two polygon sides.  Counting cells
gives the Euler characteristic, walking the degree-two boundary graph
counts boundary circles, and the genus follows from the surface
classification.  No boundary-walk permutation is composed anywhere, so
this is a genuinely separate route to the invariants computed by
``surface_invariants``.
"""


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            return True
        return False


def band_surface_invariants(g):
    """Per-component ``(genus, boundary_count, chi)`` via the band model."""
    halves = g.half_edges
    # CW vertices: both endpoints of every attachment side
    nodes = [(h, side) for h in halves for side in ("L", "R")]
    uf = _UnionFind()
    for x in nodes:
        uf.add(x)
    edges = []
    # attachment side of each band: from (h, L) to (h, R)
    for h in halves:
        edges.append(((h, "L"), (h, "R"), "att"))
    # polygon corners: from (h, R) to (sigma(h), L) around each vertex
    for h in halves:
        edges.append(((h, "R"), (g.next_at_vertex(h), "L"), "bdry"))
    # free band sides; the band glues with a half twist of parameters,
    # so (h, L) meets the far side's R end
    for e in g.edges():
        h0, h1 = g.edge_halves(e)
        edges.append(((h0, "R"), (h1, "L"), "bdry"))
        edges.append(((h1, "R"), (h0, "L"), "bdry"))
    for a, b, _ in edges:
        uf.union(a, b)
    # cells per surface component
    comp_nodes = {}
    for x in nodes:
        comp_nodes.setdefault(uf.find(x), set()).add(x)
    comp_edges = {r: 0 for r in comp_nodes}
    for a, b, _ in edges:
        comp_edges[uf.find(a)] += 1
    comp_faces = {r: 0 for r in comp_nodes}
    for v in g.vertices:
        h = next(x for x in halves if g.source(x) == v)
        comp_faces[uf.find((h, "L"))] += 1
    for e in g.edges():
        h0, _ = g.edge_halves(e)
        comp_faces[uf.find((h0, "L"))] += 1
    # boundary circles: components of the degree-two boundary graph
    buf = _UnionFind()
    for a, b, kind in edges:
        if kind == "bdry":
            buf.add(a)
            buf.add(b)
    comp_boundary = {r: set() for r in comp_nodes}
    for a, b, kind in edges:
        if kind == "bdry":
            buf.union(a, b)
    for a, b, kind in edges:
        if kind == "bdry":
            comp_boundary[uf.find(a)].add(buf.find(a))
    out = []
    for r in comp_nodes:
        chi = len(comp_nodes[r]) - comp_edges[r] + comp_faces[r]
        b = len(comp_boundary[r])
        two_g = 2 - chi - b
        if two_g < 0 or two_g % 2:  # a raise, so it also holds under -O
            raise AssertionError("band model is inconsistent")
        out.append((two_g // 2, b, chi))
    out.sort()
    return out
