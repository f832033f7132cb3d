"""Tests of the benchmark itself: wrapper coverage, oracles, refusal.

Run from the repository root with ``python3 -m pytest perfbench``.
The coverage test traces the set-up and one pass of each workload and
requires every layer to record calls on the workload it is assigned
to in WORKLOADS.md, so a missed binding cannot silently read zero.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    OpLog,
    WrongOutput,
    harer_zagier,
    rooted_connected,
)

# layer -> the workload whose traced set-up and pass must call it
ASSIGNED = {
    "census": (
        "census.enumerate_fat_graphs", "census.involutions",
        "census.build_graph", "kernel.census_code", "kernel.min_code",
        "graphs.new_fat_graph", "graphs.surface_invariants",
        "graphs.boundary_cycles", "morphisms.canonical_form",
    ),
    "sign_calculus": (
        "census.admissible_decorations", "openclosed.is_admissible",
        "openclosed.incoming_partition", "openclosed.cobordism_signature",
        "morphisms.canonical_form", "morphisms.collapse_edges",
        "morphisms.compose", "morphisms.validate_morphism",
        "homology.relative_chain_complex", "homology.chain_map_of_morphism",
        "homology.morphism_det_sign", "linalg.rref", "linalg.det",
        "linalg.solve",
    ),
    "glue_tower": (
        "graphs.subdivide_edge", "gluing.subdivision_match", "gluing.glue",
        "homology.relative_chain_complex", "homology.gluing_det_iso",
        "linalg.rref", "fgformat.serialize", "fgformat.parse_graph",
    ),
}

COUNTERS_ASSIGNED = {
    "census": ("census.classes", "census.candidates", "census.class_ratio"),
    "sign_calculus": ("homology.complexes_built",),
    "glue_tower": ("homology.complexes_built", "homology.cells_max",
                   "linalg.rref.entries", "linalg.rref_per_gluing"),
}


def test_every_layer_is_assigned():
    assigned = {name for names in ASSIGNED.values() for name in names}
    assert assigned == {name for name, _, _ in LAYERS}


@pytest.fixture(scope="module")
def traced_totals():
    lib, _ = run.load_library()
    modules = run.fatcob_modules()
    tracer = Tracer()
    for name, cls in WORKLOADS.items():
        tracer.workload = name
        tracer.install(modules)
        try:
            ops = OpLog()
            cls(lib, 7).run_pass(ops)
        finally:
            tracer.uninstall()
        assert ops.attempted and not ops.failed
    assert not tracer.missing
    return {name: tracer.layer_totals({name}) for name in WORKLOADS}


@pytest.mark.parametrize("workload", sorted(ASSIGNED))
def test_wrappers_record_calls_on_their_workload(traced_totals, workload):
    totals = traced_totals[workload]
    for layer in ASSIGNED[workload]:
        assert totals[layer + ".calls"] > 0, layer
        assert totals[layer + ".self_s"] > 0, layer
    for counter in COUNTERS_ASSIGNED[workload]:
        assert totals[counter] > 0, counter


def test_census_counts(traced_totals):
    assert traced_totals["census"]["census.classes"] == 1004 + 902


def test_wrappers_are_removed_again():
    lib, _ = run.load_library()
    before = (lib.census.enumerate_fat_graphs, lib.homology.validate_morphism,
              lib.graphs.FatGraph.__dict__["boundary_cycles"])
    tracer = Tracer()
    tracer.install(run.fatcob_modules())
    assert lib.enumerate_fat_graphs is lib.census.enumerate_fat_graphs
    assert lib.homology.validate_morphism is lib.morphisms.validate_morphism
    assert lib.census.enumerate_fat_graphs is not before[0]
    tracer.uninstall()
    assert (lib.census.enumerate_fat_graphs, lib.homology.validate_morphism,
            lib.graphs.FatGraph.__dict__["boundary_cycles"]) == before


def test_missing_private_name_is_reported(monkeypatch):
    lib, _ = run.load_library()
    monkeypatch.delattr(lib.census, "_involutions")
    tracer = Tracer()
    tracer.install(run.fatcob_modules())
    tracer.uninstall()
    assert tracer.missing == ["census.involutions"]
    assert "census.involutions.calls" not in tracer.layer_totals()


def test_oracles():
    assert harer_zagier(3) == {0: 5, 1: 10}
    assert harer_zagier(6) == {0: 132, 1: 2310, 2: 6468, 3: 1485}
    assert [rooted_connected(n) for n in (1, 2, 3)] == [2, 10, 74]


def test_refuses_without_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_setup_output_fails_the_run(monkeypatch, capsys):
    def wrong(lib, seed):
        raise WrongOutput("collapse changed the cobordism type")

    monkeypatch.setitem(run.WORKLOADS, "sign_calculus", wrong)
    code = run.main(["--workload", "sign_calculus", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert (result["correct"], result["failed"]) == (False, 1)
