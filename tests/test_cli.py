import io
import json
import os
import sys

import pytest

import make_golden
from conftest import GOLDEN_DIR, data_path, run_optimized
from fatcob import cli
from fatcob.fgformat import parse_graph
from fatcob.openclosed import cobordism_signature


def run_cli(argv):
    return make_golden.run(argv)


class TestGolden:
    @pytest.mark.parametrize("name", sorted(make_golden.CASES))
    def test_output_matches_golden(self, name):
        code, out = run_cli(make_golden.CASES[name])
        assert code == 0
        with open(os.path.join(GOLDEN_DIR, name + ".txt"), "r",
                  encoding="utf-8") as fh:
            want = fh.read()
        assert out == want

    def test_make_golden_stops_at_a_failing_command(self):
        # a failing command writes no golden and names its case, also
        # under -O
        proc = run_optimized(
            "import os, sys, tempfile\n"
            "sys.path.insert(0, %r)\n"
            "import make_golden\n"
            "make_golden.run = lambda argv: (2, 'bad output')\n"
            "with tempfile.TemporaryDirectory() as d:\n"
            "    make_golden.GOLDEN = d\n"
            "    try:\n"
            "        make_golden.main_make()\n"
            "    finally:\n"
            "        print(os.listdir(d))\n"
            % os.path.dirname(os.path.abspath(make_golden.__file__)))
        assert proc.returncode == 1
        assert proc.stdout == "[]\n"
        first = sorted(make_golden.CASES)[0]
        assert proc.stderr == "%s: fatcob %s exited with 2\n" % (
            first, " ".join(make_golden.CASES[first]))


class TestExitCodes:
    def test_success(self):
        code, _ = run_cli(["validate", data_path("fig4.fg")])
        assert code == 0

    def test_domain_failure_not_admissible(self):
        code, out = run_cli(["admissible", data_path("embedded_z.fg")])
        assert code == 1

    def test_domain_failure_not_gluable(self):
        code, _ = run_cli(["glue", data_path("cylinder.fg"),
                           data_path("pants.fg")])
        assert code == 1

    def test_domain_failure_not_isomorphic(self):
        code, _ = run_cli(["iso", data_path("loop.fg"),
                           data_path("fig4.fg")])
        assert code == 1

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.fg"
        bad.write_text("not a fatgraph\n")
        code, _ = run_cli(["validate", str(bad)])
        assert code == 2

    def test_bytes_that_are_not_utf8_are_a_parse_error(self, tmp_path,
                                                       capsys):
        bad = tmp_path / "bad.fg"
        bad.write_bytes(b"fatgraph\nvertex \xff\xfe\n")
        code, _ = run_cli(["validate", str(bad)])
        assert code == 2
        assert capsys.readouterr().err == \
            "parse error: invalid UTF-8 byte 0xff (line 2)\n"

    def test_usage_error(self):
        with pytest.raises(SystemExit) as info:
            run_cli(["degree", data_path("pants.fg")])  # missing --dim
        assert info.value.code == 3
        with pytest.raises(SystemExit) as info:
            run_cli(["no-such-command"])
        assert info.value.code == 3

    def test_negative_dim_is_usage_error(self):
        for argv in (["degree", "--dim", "-1", data_path("pants.fg")],
                     ["assoc-sign", "--dim", "-2"]):
            with pytest.raises(SystemExit) as info:
                run_cli(argv)
            assert info.value.code == 3

    def test_negative_edges_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["enumerate", "--edges", "-1"])
        assert info.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "argument --edges: -1 is below 0" in err

    @pytest.mark.parametrize("option,value", [("--genus", "-1"),
                                              ("--min-valence", "-3")])
    def test_negative_enumerate_bound_is_usage_error(self, capsys, option,
                                                     value):
        with pytest.raises(SystemExit) as info:
            run_cli(["enumerate", "--edges", "2", option, value])
        assert info.value.code == 3
        assert "argument %s: %s is below 0" % (option, value) \
            in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["admissible", "fig4.fg"],
        ["signature", "fig4.fg"],
        ["glue", "pants.fg", "fig4.fg"],
        ["homology", "fig4.fg"],
        ["degree", "--dim", "2", "fig4.fg"],
        ["det-sign", "fig4.fg", "pants.fg"],
    ], ids=lambda argv: argv[0])
    def test_bare_graph_is_domain_failure(self, capsys, argv):
        argv = [data_path(a) if a.endswith(".fg") else a for a in argv]
        code, _ = run_cli(argv)
        assert code == 1
        assert "has no In/Out leaf decorations" in capsys.readouterr().err

    def test_jobs_is_not_an_option(self):
        with pytest.raises(SystemExit) as info:
            run_cli(["enumerate", "--edges", "1", "--jobs", "2"])
        assert info.value.code == 3

    def test_missing_file(self):
        code, _ = run_cli(["validate", "does-not-exist.fg"])
        assert code == 1

    def test_semantic_failure(self, tmp_path):
        bad = tmp_path / "bad.fg"
        bad.write_text("fatgraph\nvertex u\nvertex v\nedge e u v\n"
                       "order u e.0 e.1\n")
        code, _ = run_cli(["validate", str(bad)])
        assert code == 1


class TestJson:
    def test_report_shape_and_key_order(self):
        code, out = run_cli(["--json", "invariants", data_path("fig4.fg")])
        assert code == 0
        report = json.loads(out)
        assert list(report.keys()) == ["command", "inputs", "result",
                                       "warnings"]
        assert report["command"] == "invariants"
        assert report["result"]["chi"] == -2
        assert report["warnings"] == []

    def test_enumerate_json(self):
        code, out = run_cli(["--json", "enumerate", "--edges", "1"])
        report = json.loads(out)
        assert report["result"]["classes"] == 2
        assert report["warnings"] == []

    def test_enumerate_one_vertex_keeps_min_valence(self):
        # the 1-edge one-vertex graph has valence 2 < 3: only the two
        # 2-edge classes, of valence 4, are left
        code, out = run_cli(["--json", "enumerate", "--edges", "2",
                             "--one-vertex", "--min-valence", "3"])
        assert code == 0
        rows = json.loads(out)["result"]["entries"]
        assert [(r["edges"], r["vertices"]) for r in rows] == [(2, 1)] * 2

    def test_enumerate_env_bound_is_a_warning(self, monkeypatch):
        monkeypatch.setenv("FATCOB_MAX_EDGES", "3")
        code, out = run_cli(["--json", "enumerate", "--edges", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["result"]["classes"] == 7
        assert report["warnings"] == [
            "edge bound 3 taken from FATCOB_MAX_EDGES"]


class TestGlueOutput:
    def test_glue_output_parses_and_composes(self):
        code, out = run_cli(["glue", "--subdivide", data_path("pants.fg"),
                             data_path("cylinder.fg")])
        assert code == 0
        g = parse_graph(out)
        sig = cobordism_signature(g)
        assert sig.source == ("circle", "circle")
        assert sig.target == ("circle",)

    def test_enumerate_env_bound(self, monkeypatch):
        monkeypatch.setenv("FATCOB_MAX_EDGES", "1")
        code, _ = run_cli(["enumerate", "--edges", "2"])
        assert code == 1
        monkeypatch.setenv("FATCOB_MAX_EDGES", "2")
        code, _ = run_cli(["enumerate", "--edges", "2"])
        assert code == 0

    def test_enumerate_bad_env_bound(self, monkeypatch, capsys):
        from fatcob.census import enumerate_fat_graphs
        from fatcob.errors import BoundExceeded
        for raw in ("abc", "-1", "2.5"):
            monkeypatch.setenv("FATCOB_MAX_EDGES", raw)
            code, _ = run_cli(["enumerate", "--edges", "1"])
            assert code == 1
            assert "FATCOB_MAX_EDGES=%r" % raw in capsys.readouterr().err
            with pytest.raises(BoundExceeded, match="FATCOB_MAX_EDGES"):
                enumerate_fat_graphs(1)


class ClosedPipe(io.TextIOBase):
    """A standard output whose reader has gone: every write fails."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


class TestClosedPipe:
    @pytest.mark.parametrize("argv", [["enumerate", "--edges", "2"],
                                      ["--json", "enumerate", "--edges", "2"]])
    def test_closed_pipe_exits_quietly(self, argv, monkeypatch, tmp_path):
        err = io.StringIO()
        with open(tmp_path / "out", "w") as fh:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
            monkeypatch.setattr(sys, "stderr", err)
            code = cli.main(argv)
        assert code == 1
        assert err.getvalue() == ""
