"""The sizes of the shared census corpora, and the collapses they build."""

import random

import pytest

import corpus
from fatcob import fixtures as fx
from fatcob import morphisms
from fatcob.census import enumerate_fat_graphs


@pytest.fixture
def collapsed(monkeypatch):
    """The forest of every collapse built, by the corpus or directly."""
    made = []
    collapse = morphisms.collapse_edges

    def counted(g, forest):
        made.append(forest)
        return collapse(g, forest)

    for module in (morphisms, corpus):
        monkeypatch.setattr(module, "collapse_edges", counted)
    return made


def test_forests_build_no_collapse(collapsed):
    entries = enumerate_fat_graphs(4)
    assert sum(len(corpus.forests(e.graph)) for e in entries) == 584
    assert collapsed == []


def test_single_edges_are_the_one_edge_forests():
    graphs = [e.graph for e in enumerate_fat_graphs(5)]
    assert len(graphs) == 1004
    graphs += [g.base for a, b, _ in corpus.composition_cases()
               for g in (a, b)]
    for g in graphs:
        assert corpus.single_edges(g) == \
            [f for f in corpus.forests(g) if len(f) == 1]


@pytest.mark.parametrize("builder, max_edges, sizes, built", [
    (corpus.census_collapse_pairs, 3, (102, 40), 142),
    (corpus.census_collapse_pairs, 4, (1238, 966), 2205),
    (corpus.census_morphism_pairs, 3, (130, 63), 193),
    (corpus.census_morphism_pairs, 4, (1308, 924), 2234),
], ids=["collapse-pairs-3", "collapse-pairs-4", "morphism-pairs-3",
        "morphism-pairs-4"])
def test_pair_builders(collapsed, builder, max_edges, sizes, built):
    # each collapse is built once and kept unless it is inadmissible:
    # at 4 edges, one for census_collapse_pairs and two for
    # census_morphism_pairs
    singles, pairs = builder(max_edges)
    assert (len(singles), len(pairs)) == sizes
    assert len(collapsed) == built


def test_relabel_carries_the_decoration():
    oc = fx.pants()
    vmap = {v: v.upper() for v in oc.base.vertices}
    emap = {e: "x" + e for e in oc.base.edges()}
    out = corpus.relabel(oc, vmap, emap)
    assert out.base == oc.base.relabel(vmap, emap)
    assert out.in_leaves == tuple(v.upper() for v in oc.in_leaves)
    assert out.out_leaves == tuple(v.upper() for v in oc.out_leaves)
    assert out.closed == {v.upper() for v in oc.closed}
    # a decorated graph's base is renamed by the same draws as the bare one
    oc = fx.open_closed_example()
    assert corpus.random_relabel(oc, random.Random(4)).base == \
        corpus.random_relabel(oc.base, random.Random(4))
