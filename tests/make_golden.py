#!/usr/bin/env python3
"""Regenerate the committed golden outputs for the CLI test-suite.

Run from anywhere:  python tests/make_golden.py
Commands execute with the repository root as working directory so the
recorded file arguments stay relative and portable.
"""

import io
import os
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden")


def data(name):
    return os.path.join("tests", "data", name)


CASES = {
    "validate_fig4": ["validate", data("fig4.fg")],
    "invariants_fig4": ["invariants", data("fig4.fg")],
    "invariants_loop": ["invariants", data("loop.fg")],
    "invariants_planar2": ["invariants", data("twoloops_planar.fg")],
    "boundary_fig4": ["boundary", data("fig4.fg")],
    "boundary_pants": ["boundary", data("pants.fg")],
    "admissible_pants": ["admissible", data("pants.fg")],
    "admissible_embedded_xy": ["admissible", data("embedded_xy.fg")],
    "signature_openclosed": ["signature", data("openclosed.fg")],
    "signature_pants": ["signature", data("pants.fg")],
    "signature_cylinder": ["signature", data("cylinder.fg")],
    "glue_cyl_cyl": ["glue", data("cylinder.fg"), data("cylinder.fg")],
    "glue_pants_cyl": ["glue", "--subdivide", data("pants.fg"),
                       data("cylinder.fg")],
    "homology_cylinder": ["homology", data("cylinder.fg")],
    "homology_pants": ["homology", data("pants.fg")],
    "homology_mouthpiece": ["homology", data("mouthpiece.fg")],
    "homology_flaps": ["homology", data("flaps.fg")],
    "degree_pants_3": ["degree", "--dim", "3", data("pants.fg")],
    "degree_cylinder_2": ["degree", "--dim", "2", data("cylinder.fg")],
    "degree_mouthpiece_1": ["degree", "--dim", "1", data("mouthpiece.fg")],
    "detsign_cyl_cyl": ["det-sign", data("cylinder.fg"), data("cylinder.fg")],
    "detsign_pants_cyl": ["det-sign", data("pants.fg"), data("cylinder.fg")],
    "detsign_torus_cyl_pants_json": ["--json", "det-sign",
                                     data("torus_cyl.fg"), data("pants.fg")],
    "assoc_sign_0": ["assoc-sign", "--dim", "0"],
    "assoc_sign_1": ["assoc-sign", "--dim", "1"],
    "assoc_sign_2": ["assoc-sign", "--dim", "2"],
    "assoc_sign_3": ["assoc-sign", "--dim", "3"],
    "enumerate_2": ["enumerate", "--edges", "2"],
    "enumerate_3_one_vertex": ["enumerate", "--edges", "3", "--one-vertex"],
    "enumerate_2_json": ["--json", "enumerate", "--edges", "2"],
    "enumerate_4_one_vertex_json": ["--json", "enumerate", "--edges", "4",
                                    "--one-vertex"],
    "canon_fig4": ["canon", data("fig4.fg")],
    "canon_pants": ["canon", data("pants.fg")],
    "iso_loops": ["iso", data("loop.fg"), data("loop_relabeled.fg")],
    "invariants_fig4_json": ["--json", "invariants", data("fig4.fg")],
}


def run(argv):
    from fatcob.cli import main
    old = os.getcwd()
    os.chdir(ROOT)
    try:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()
    finally:
        os.chdir(old)


def main_make():
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, out = run(argv)
        if code != 0:
            raise SystemExit("%s: fatcob %s exited with %r"
                             % (name, " ".join(argv), code))
        with open(os.path.join(GOLDEN, name + ".txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(out)
        print("wrote %s (%d bytes)" % (name, len(out)))


if __name__ == "__main__":
    sys.exit(main_make())
