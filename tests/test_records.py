"""The record classes: plain classes compiled with their modules.

Each record keeps its field names, its ``Name(field=value, ...)`` repr,
equality and hashing within its own type, and, when frozen, refuses
assignment with :class:`AttributeError`.  Importing the package
generates no code, so neither ``dataclasses`` nor ``inspect`` loads.
"""

import copy
import pickle
from fractions import Fraction
from types import MappingProxyType

import pytest

from conftest import run_python
from fatcob import (census, fgformat, gluing, graphs, homology, morphisms,
                    openclosed)
from fatcob import fixtures as fx
from fatcob.errors import InvalidParameter
from fatcob.homology import GradedLine


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site hook imports anything before the package does
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import fatcob, fatcob.cli, fatcob.fixtures\n"
              "print(sorted({'dataclasses', 'inspect'}\n"
              "             & (set(sys.modules) - before)))\n")
    out = run_python(script, "-S")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


# (type, fields, repr, frozen, hashable)
RECORDS = [
    (graphs.BoundaryCycles,
     dict(cycles=(("a.0", "a.1"),), half_edge_to_cycle={"a.0": 0, "a.1": 0}),
     "BoundaryCycles(cycles=(('a.0', 'a.1'),), "
     "half_edge_to_cycle={'a.0': 0, 'a.1': 0})", True, False),
    (graphs.ComponentSignature,
     dict(genus=0, boundary_count=2, euler_characteristic=0,
          vertices=("u",), cycles=(0, 1)),
     "ComponentSignature(genus=0, boundary_count=2, euler_characteristic=0, "
     "vertices=('u',), cycles=(0, 1))", True, True),
    (graphs.SurfaceSignature, dict(components=()),
     "SurfaceSignature(components=())", True, True),
    (graphs.CellCorrespondence,
     dict(vertex_map={"u": "u"}, edge_map={"a": ("a:a", "a:b")},
          new_vertices=("a:m",)),
     "CellCorrespondence(vertex_map={'u': 'u'}, "
     "edge_map={'a': ('a:a', 'a:b')}, new_vertices=('a:m',))", True, False),
    (openclosed.AdmissibilityWitness,
     dict(leaf="x", reason="incoming cycle repeats an edge", cell="a"),
     "AdmissibilityWitness(leaf='x', reason='incoming cycle repeats an "
     "edge', cell='a')", True, True),
    (openclosed.IncomingPartition,
     dict(v_in=("x",), e_in=("a",), h_in=("a.0", "a.1"), e_v=("u",),
          e_e=(), e_h=()),
     "IncomingPartition(v_in=('x',), e_in=('a',), h_in=('a.0', 'a.1'), "
     "e_v=('u',), e_e=(), e_h=())", True, True),
    (openclosed.BoundaryCycleClass,
     dict(index=0, kind="open", open_in=("x",)),
     "BoundaryCycleClass(index=0, kind='open', closed_leaf=None, "
     "open_in=('x',), open_out=())", True, True),
    (openclosed.ComponentCobordism,
     dict(genus=0, euler_characteristic=-1, incoming_circles=2,
          incoming_intervals=0, outgoing_circles=1, outgoing_intervals=0,
          free_cycles=0, boundary_count=3),
     "ComponentCobordism(genus=0, euler_characteristic=-1, "
     "incoming_circles=2, incoming_intervals=0, outgoing_circles=1, "
     "outgoing_intervals=0, free_cycles=0, boundary_count=3)", True, True),
    (openclosed.CobordismSignature,
     dict(components=(), source=("circle",), target=(), cycle_classes=()),
     "CobordismSignature(components=(), source=('circle',), target=(), "
     "cycle_classes=())", True, True),
    (census.CensusEntry,
     dict(canon=b"\x01\x02", witness=((2,), b"\x01\x00"), n_edges=1,
          n_vertices=1, genus=0, boundary_count=2, euler_characteristic=0,
          n_pairings=1, aut_size=2),
     r"CensusEntry(canon=b'\x01\x02', witness=((2,), b'\x01\x00'), "
     "n_edges=1, n_vertices=1, genus=0, boundary_count=2, "
     "euler_characteristic=0, n_pairings=1, aut_size=2, decorated=None)",
     True, True),
    (gluing.MatchPair,
     dict(kind="circle", out_index=0, in_index=1, out_leaf="y", in_leaf="x",
          a_halves=("a.0",), b_halves=("b.1",)),
     "MatchPair(kind='circle', out_index=0, in_index=1, out_leaf='y', "
     "in_leaf='x', a_halves=('a.0',), b_halves=('b.1',))", True, True),
    (gluing.GluingMatch, dict(g1="g1", g2="g2", pairs=()),
     "GluingMatch(g1='g1', g2='g2', pairs=())", True, True),
    (gluing.GlueData,
     dict(halves=(MappingProxyType({"e.0": None}),
                  MappingProxyType({"b.1": "1:a.1"})),
          edges=(MappingProxyType({"e": None}), MappingProxyType({})),
          vertices=(MappingProxyType({"u": "1:u"}),
                    MappingProxyType({"v": "1:u"}))),
     "GlueData(halves=(mappingproxy({'e.0': None}), "
     "mappingproxy({'b.1': '1:a.1'})), edges=(mappingproxy({'e': None}), "
     "mappingproxy({})), vertices=(mappingproxy({'u': '1:u'}), "
     "mappingproxy({'v': '1:u'})))", True, False),
    (homology.GradedLine, dict(degree=-1, scalar=Fraction(-2, 3)),
     "GradedLine(degree=-1, scalar=Fraction(-2, 3))", True, True),
    (homology.ChainMap,
     dict(source_cc="A", target_cc="B", f_eH=[(0,), ()], f_eEV=[(1,)]),
     "ChainMap(source_cc='A', target_cc='B', f_eH=[(0,), ()], "
     "f_eEV=[(1,)])", False, False),
    (fgformat.GraphDocument,
     dict(vertices=[("u", False)], edges=[("a", "u", "u")],
          orders={"u": ["a.0", "a.1"]}),
     "GraphDocument(vertices=[('u', False)], edges=[('a', 'u', 'u')], "
     "orders={'u': ['a.0', 'a.1']}, in_leaves=None, out_leaves=None, "
     "closed=None)", False, False),
]


@pytest.mark.parametrize("cls, fields, text, frozen, hashable", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_repr_equality_and_assignment(cls, fields, text, frozen,
                                             hashable):
    a, b = cls(**fields), cls(**fields)
    assert repr(a) == text
    assert a == b and not a != b
    first, value = next(iter(fields.items()))
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    if frozen:
        with pytest.raises(AttributeError):
            setattr(a, first, value)
        with pytest.raises(AttributeError):
            a.unknown_field = 1
        assert a == b
    else:
        setattr(a, first, "changed")
        assert a != b


def test_len_counts_cycles_and_components():
    # neither record is a sequence of its fields
    g = graphs.disjoint_union(fx.figure4(), fx.single_loop())
    cycles, surface = g.boundary_cycles(), g.surface_invariants()
    assert len(cycles) == 4
    assert len(surface) == 2
    assert len(fx.figure4().surface_invariants()) == 1
    assert not graphs.SurfaceSignature(())
    for record in (cycles, surface):
        with pytest.raises(TypeError):
            record[0]


def test_replace_on_records_that_count_their_contents():
    g = graphs.disjoint_union(fx.figure4(), fx.single_loop())
    cycles, surface = g.boundary_cycles(), g.surface_invariants()
    fewer = cycles._replace(cycles=cycles.cycles[1:])
    assert len(fewer) == 3
    assert fewer.half_edge_to_cycle is cycles.half_edge_to_cycle
    one = surface._replace(components=surface.components[:1])
    assert len(one) == 1 and one.genera == (1,)
    assert surface._replace() == surface


COPIES = [copy.copy, copy.deepcopy,
          lambda record: pickle.loads(pickle.dumps(record))]


@pytest.mark.parametrize("duplicate", COPIES,
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_keep_the_fields_and_start_with_empty_caches(duplicate):
    entry = census.enumerate_fat_graphs(1)[0]
    entry.graph
    g1, g2, match = gluing.subdivision_match(fx.pants(), fx.cylinder())
    gluing.glue(g1, g2, match)
    assert entry._built is not None and match._glued is not None
    for record, caches in ((entry, ("_built",)),
                           (match, ("_glued", "_det_line"))):
        twin = duplicate(record)
        assert type(twin) is type(record) and twin == record
        assert hash(twin) == hash(record) and repr(twin) == repr(record)
        assert all(getattr(twin, c) is None for c in caches)
        with pytest.raises(AttributeError):
            setattr(twin, record._fields[0], None)
    assert duplicate(entry).graph == entry.graph
    # a checked morphism's copy is unchecked, with plain dicts, and is
    # validated on first use
    _, m = morphisms.collapse_edges(fx.pants(), ["r1"])
    assert m._checked and type(m.half_map) is MappingProxyType
    twin = duplicate(m)
    assert type(twin) is morphisms.Morphism and not twin._checked
    assert (twin.source, twin.target) == (m.source, m.target)
    assert type(twin.vertex_map) is type(twin.half_map) is dict
    assert twin.vertex_map == m.vertex_map and twin.half_map == m.half_map
    assert homology.morphism_det_sign(twin) == homology.morphism_det_sign(m)
    assert morphisms.require_valid(twin)._checked


def test_caches_stay_out_of_equality_and_repr():
    entry = census.enumerate_fat_graphs(1)[0]
    twin = entry._replace()
    entry.graph
    assert entry._built is not None and twin._built is None
    assert entry == twin and hash(entry) == hash(twin)
    assert repr(entry) == repr(twin) and "_built" not in repr(entry)
    with pytest.raises(AttributeError):
        entry._built = None


@pytest.mark.parametrize("make", [
    lambda: GradedLine(1, 1),
    lambda: GradedLine(0, Fraction(0)),
    lambda: GradedLine(1, Fraction(1))._replace(scalar=Fraction(0)),
], ids=["int scalar", "zero scalar", "replace"])
def test_graded_line_checks_every_construction(make):
    with pytest.raises(InvalidParameter):
        make()
