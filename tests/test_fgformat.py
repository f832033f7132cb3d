import os

import pytest

from conftest import DATA_DIR, data_path
from corpus import admissible_census_decorations
from fatcob import fixtures as fx
from fatcob.census import enumerate_fat_graphs
from fatcob.errors import ParseError, SemanticError, WrongVertexOrder
from fatcob.fgformat import load, parse, parse_graph, serialize
from fatcob.graphs import new_fat_graph
from fatcob.morphisms import is_isomorphic
from fatcob.openclosed import OpenClosedFatGraph


FIG4_TEXT = """\
fatgraph
# the four-banded torus
vertex u
vertex v
edge A u v
edge B u v
edge C u v
edge D u v
order u A.0 B.0 C.0 D.0
order v A.1 B.1 C.1 D.1
"""


class TestParse:
    def test_figure4_document(self):
        g = parse_graph(FIG4_TEXT)
        assert g.boundary_cycles().cycles == (
            ("A.0", "B.1", "C.0", "D.1"), ("A.1", "B.0", "C.1", "D.0"))

    def test_empty_file(self):
        with pytest.raises(ParseError) as info:
            parse("")
        assert "missing fatgraph header" in str(info.value)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse("vertex u\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse("fatgraph\nflurb u\n")

    def test_duplicate_order_line(self):
        with pytest.raises(SemanticError):
            parse("fatgraph\nvertex u\nedge a u u\n"
                  "order u a.0 a.1\norder u a.1 a.0\n")

    def test_empty_order_line_rejected(self):
        with pytest.raises(ParseError):
            parse("fatgraph\nvertex u\nvertex v\nedge e u v\n"
                  "order u e.0 e.1\norder v\n")

    def test_wrong_vertex_order_delegated(self):
        doc = parse("fatgraph\nvertex u\nvertex v\nedge e u v\n"
                    "order u e.0 e.1\n")
        with pytest.raises(WrongVertexOrder):
            doc.build()

    def test_comments_and_blank_lines(self):
        g = parse_graph("fatgraph\n\n# nothing\nvertex u  # trailing\n"
                        "edge a u u\norder u a.0 a.1\n")
        assert g.num_edges() == 1

    def test_decorations(self):
        g = parse_graph("fatgraph\nvertex p\nvertex q\nedge e p q\n"
                        "order p e.0\norder q e.1\nin p\nout q\n")
        assert isinstance(g, OpenClosedFatGraph)
        assert g.in_leaves == ("p",)

    def test_isolated(self):
        g = parse_graph("fatgraph\nvertex u\nvertex w isolated\n"
                        "edge a u u\norder u a.0 a.1\n")
        assert g.is_isolated("w")


class TestLoad:
    @pytest.mark.parametrize("data,line", [
        (b"\xff", 1),
        (b"fatgraph\nvertex \xff\xfe\n", 2),
        (b"fatgraph\r\nvertex u\rvertex \xc3(\n", 3),
        (b"fatgraph\nvertex \xc3\xa9\n\nedge \xe2\x82", 4),
    ])
    def test_bytes_that_are_not_utf8(self, tmp_path, data, line):
        path = tmp_path / "bad.fg"
        path.write_bytes(data)
        with pytest.raises(ParseError) as info:
            load(str(path))
        assert info.value.line == line
        assert str(info.value).endswith("(line %d)" % line)

    def test_byte_order_mark_is_text(self, tmp_path):
        path = tmp_path / "bom.fg"
        path.write_bytes(b"\xef\xbb\xbf" + FIG4_TEXT.encode())
        with pytest.raises(ParseError) as info:
            load(str(path))
        assert str(info.value) == "missing fatgraph header (line 1)"

    def test_utf8_names(self, tmp_path):
        path = tmp_path / "names.fg"
        path.write_bytes("fatgraph\nvertex \u00e9\nedge a \u00e9 \u00e9\n"
                         "order \u00e9 a.0 a.1\n".encode())
        assert load(str(path)).vertices == ("\u00e9",)


class TestRoundTrip:
    def test_all_shipped_fixtures(self):
        for name in sorted(os.listdir(DATA_DIR)):
            if not name.endswith(".fg"):
                continue
            with open(data_path(name), "r", encoding="utf-8") as fh:
                text = fh.read()
            g = parse_graph(text)
            assert serialize(g) == text, name

    def test_serialize_parse_identity(self):
        for g in (fx.figure4(), fx.pants(), fx.open_closed_example()):
            back = parse_graph(serialize(g))
            assert serialize(back) == serialize(g)
            assert is_isomorphic(back, g)

    def test_identifiers_survive(self):
        back = parse_graph(serialize(fx.pants()))
        assert back.in_leaves == ("p1", "p2")
        assert sorted(back.base.edges()) == sorted(fx.pants().base.edges())

    def test_isolated_roundtrip(self):
        text = "fatgraph\nvertex u\nvertex w isolated\nedge a u u\norder u a.0 a.1\n"
        g = parse_graph(text)
        assert serialize(g) == text

    def test_census_graphs_round_trip(self):
        entries = enumerate_fat_graphs(4)
        assert len(entries) == 134
        for entry in entries:
            assert parse_graph(serialize(entry.graph)) == entry.graph
        decorated = admissible_census_decorations(3)
        assert len(decorated) == 106
        # some of them have no special leaf at all
        assert any(not oc.special for oc in decorated)
        for oc in decorated:
            assert parse_graph(serialize(oc)) == oc


@pytest.mark.parametrize("name", ["", "a b", "a#b"])
class TestUnwritableNames:
    def test_vertex_name(self, name):
        g = new_fat_graph([name], [("e", name, name)],
                          {name: ["e.0", "e.1"]})
        with pytest.raises(SemanticError, match="vertex name %r" % name):
            serialize(g)

    def test_edge_name(self, name):
        g = new_fat_graph(["v"], [(name, "v", "v")],
                          {"v": [name + ".0", name + ".1"]})
        with pytest.raises(SemanticError, match="edge name %r" % name):
            serialize(g)
