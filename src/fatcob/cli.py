"""Command-line front end.

Every subcommand is a thin adapter over exactly one library operation;
``--json`` wraps the same result in a ``{command, inputs, result,
warnings}`` report with stable key order; ``warnings`` names an edge
bound taken from ``FATCOB_MAX_EDGES``.  Exit codes: 0 success, 1
domain failure (invalid, inadmissible, not gluable), 2 parse error, 3
usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import census as census_mod
from . import fgformat
from .errors import FatcobError, ParseError
from .gluing import gluable, glue, subdivision_match
from .homology import (
    gluing_det_iso,
    operation_degree,
    relative_chain_complex,
    skew_associativity_sign,
)
from .morphisms import base_of, canonical_form, is_isomorphic
from .openclosed import cobordism_signature, is_admissible

USAGE_EXIT = 3
PARSE_EXIT = 2
DOMAIN_EXIT = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, "%s: error: %s\n" % (self.prog, message))


def _int_range(low):
    """argparse type: an integer no less than ``low``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("%d is below %d" % (value, low))
        return value
    parse.__name__ = "int"  # argparse reports bad text as "invalid int value"
    return parse


def _fmt_list(values):
    values = list(values)
    return ",".join(str(v) for v in values) if values else "-"


def _sign_str(s):
    return "+1" if s > 0 else "-1"


def cmd_validate(args):
    g = fgformat.load(args.file)
    base = base_of(g)
    text = "ok vertices=%d edges=%d" % (len(base.vertices), base.num_edges())
    return text, {"ok": True, "vertices": len(base.vertices),
                  "edges": base.num_edges()}, 0


def cmd_invariants(args):
    g = fgformat.load(args.file)
    base = base_of(g)
    sig = base.surface_invariants()
    text = "components=%d chi=%d genus=%s boundary=%s" % (
        len(sig), sig.total_euler_characteristic,
        _fmt_list(sig.genera), _fmt_list(sig.boundary_counts))
    return text, {"components": len(sig),
                  "chi": sig.total_euler_characteristic,
                  "genus": list(sig.genera),
                  "boundary": list(sig.boundary_counts)}, 0


def cmd_boundary(args):
    g = fgformat.load(args.file)
    base = base_of(g)
    cycles = base.boundary_cycles().cycles
    text = "\n".join("(%s)" % " ".join(c) for c in cycles)
    return text, [list(c) for c in cycles], 0


def cmd_admissible(args):
    g = fgformat.load(args.file)
    ok, witness = is_admissible(g)
    if ok:
        return "admissible", {"admissible": True}, 0
    return ("not admissible: %s" % (witness,),
            {"admissible": False, "witness": str(witness)}, DOMAIN_EXIT)


def cmd_signature(args):
    g = fgformat.load(args.file)
    sig = cobordism_signature(g)
    genera = [c.genus for c in sig.components]
    bounds = [c.boundary_count for c in sig.components]
    free = sum(c.free_cycles for c in sig.components)
    text = ("in=%s out=%s components=%d genus=%s boundary=%s free=%d chi=%d"
            % (_fmt_list(sig.source), _fmt_list(sig.target),
               len(sig.components), _fmt_list(genera), _fmt_list(bounds),
               free, sig.total_euler_characteristic))
    return text, {"in": list(sig.source), "out": list(sig.target),
                  "components": len(sig.components), "genus": genera,
                  "boundary": bounds, "free": free,
                  "chi": sig.total_euler_characteristic}, 0


def cmd_glue(args):
    g1 = fgformat.load(args.first)
    g2 = fgformat.load(args.second)
    if args.subdivide:
        g1, g2, match = subdivision_match(g1, g2)
    else:
        match = gluable(g1, g2)
    out = glue(g1, g2, match)
    text = fgformat.serialize(out).rstrip("\n")
    return text, {"graph": text.splitlines()}, 0


def cmd_homology(args):
    g = fgformat.load(args.file)
    cc = relative_chain_complex(g)
    return ("H1=%d H0=%d" % (cc.rank_h1, cc.rank_h0),
            {"h1": cc.rank_h1, "h0": cc.rank_h0}, 0)


def cmd_degree(args):
    g = fgformat.load(args.file)
    deg = operation_degree(g, args.dim)
    return str(deg), {"degree": deg}, 0


def cmd_det_sign(args):
    g1 = fgformat.load(args.first)
    g2 = fgformat.load(args.second)
    g1, g2, match = subdivision_match(g1, g2)
    line = gluing_det_iso(g1, g2, match, 1)
    return (_sign_str(line.sign),
            {"sign": line.sign, "degree": line.degree,
             "scalar": str(line.scalar)}, 0)


def cmd_assoc_sign(args):
    s = skew_associativity_sign(args.dim)
    return _sign_str(s), {"sign": s}, 0


def cmd_enumerate(args):
    entries = census_mod.enumerate_fat_graphs(
        args.edges, genus=args.genus, one_vertex=args.one_vertex,
        min_valence=args.min_valence)
    if os.environ.get("FATCOB_MAX_EDGES"):
        args.warnings.append("edge bound %d taken from FATCOB_MAX_EDGES"
                             % census_mod._edge_bound())
    lines = ["classes=%d" % len(entries)]
    rows = []
    for e in entries:
        lines.append(
            "edges=%d vertices=%d genus=%d boundary=%d chi=%d "
            "pairings=%d aut=%d" % (
                e.n_edges, e.n_vertices, e.genus, e.boundary_count,
                e.euler_characteristic, e.n_pairings, e.aut_size))
        rows.append({"edges": e.n_edges, "vertices": e.n_vertices,
                     "genus": e.genus, "boundary": e.boundary_count,
                     "chi": e.euler_characteristic,
                     "pairings": e.n_pairings, "aut": e.aut_size,
                     "canon": e.canon.hex()})
    return "\n".join(lines), {"classes": len(entries), "entries": rows}, 0


def cmd_canon(args):
    g = fgformat.load(args.file)
    code = canonical_form(g).hex()
    return code, {"canon": code}, 0


def cmd_iso(args):
    g1 = fgformat.load(args.first)
    g2 = fgformat.load(args.second)
    if is_isomorphic(g1, g2):
        return "isomorphic", {"isomorphic": True}, 0
    return "not isomorphic", {"isomorphic": False}, DOMAIN_EXIT


def build_parser():
    parser = _Parser(prog="fatcob",
                     description="open-closed fat graphs and their "
                                 "surface, gluing and sign calculus")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of plain text")
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit a JSON report instead of plain text")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add(name, fn, **files):
        p = sub.add_parser(name, parents=[common])
        for arg, help_text in files.items():
            p.add_argument(arg, help=help_text)
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate, file=".fg file")
    add("invariants", cmd_invariants, file=".fg file")
    add("boundary", cmd_boundary, file=".fg file")
    add("admissible", cmd_admissible, file=".fg file")
    add("signature", cmd_signature, file=".fg file")
    p = add("glue", cmd_glue, first="left .fg file", second="right .fg file")
    p.add_argument("--subdivide", action="store_true",
                   help="subdivide circles to matching sizes first")
    add("homology", cmd_homology, file=".fg file")
    p = add("degree", cmd_degree, file=".fg file")
    p.add_argument("--dim", type=_int_range(0), required=True,
                   help="dimension of the underlying manifold")
    add("det-sign", cmd_det_sign, first="left .fg file",
        second="right .fg file")
    p = add("assoc-sign", cmd_assoc_sign)
    p.add_argument("--dim", type=_int_range(0), required=True)
    p = add("enumerate", cmd_enumerate)
    p.add_argument("--edges", type=_int_range(0), required=True)
    p.add_argument("--one-vertex", action="store_true")
    p.add_argument("--genus", type=_int_range(0), default=None)
    p.add_argument("--min-valence", type=_int_range(0), default=1)
    add("canon", cmd_canon, file=".fg file")
    add("iso", cmd_iso, first="left .fg file", second="right .fg file")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    inputs = [getattr(args, name) for name in ("file", "first", "second")
              if hasattr(args, name)]
    args.warnings = []
    try:
        text, result, code = args.fn(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return PARSE_EXIT
    except FatcobError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return DOMAIN_EXIT
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return DOMAIN_EXIT
    if args.json:
        report = {"command": args.command, "inputs": inputs,
                  "result": result, "warnings": args.warnings}
        text = json.dumps(report, indent=2, sort_keys=False)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (``| head``): send what is
        # still buffered to os.devnull, so that the flush at exit cannot
        # fail again, as the note on SIGPIPE in Python's signal docs does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return DOMAIN_EXIT
    return code


if __name__ == "__main__":
    sys.exit(main())
