"""Command-line interface contracts."""
import dataclasses
import json

import pytest

from kcut import cli, min_kcut
from kcut.cli import main
from kcut.generators import cliques_bridge, cycle_graph, gnp_graph
from kcut.graph import graph_to_text, parse_graph


@pytest.fixture
def c6_path(tmp_path):
    p = tmp_path / "c6.txt"
    p.write_text(graph_to_text(cycle_graph(6)))
    return str(p)


def test_solve_json(c6_path, capsys):
    assert main(["solve", "--graph", c6_path, "--k", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 3
    assert doc["value"] == 3
    assert doc["method"] == "pipeline"
    assert sorted(v for part in doc["components"] for v in part) == list(range(6))


def test_oracle_json(c6_path, capsys):
    assert main(["oracle", "--graph", c6_path, "--k", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 3
    assert doc["method"] == "oracle"


def test_gen_then_solve(tmp_path, capsys):
    out = str(tmp_path / "g.txt")
    assert main(["gen", "--kind", "cycle", "--n", "6", "--out", out]) == 0
    g = parse_graph(open(out).read())
    assert g == cycle_graph(6)
    assert main(["solve", "--graph", out, "--k", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 3


def test_gen_stdout(capsys):
    assert main(["gen", "--kind", "cycle", "--n", "4", "--out", "-"]) == 0
    assert parse_graph(capsys.readouterr().out) == cycle_graph(4)


@pytest.mark.parametrize("args, want", [
    (["--kind", "gnp", "--n", "9", "--p", "0.5", "--seed", "3"], gnp_graph(9, 0.5, 3)),
    (["--kind", "cliques_bridge", "--size", "4", "--count", "3", "--bridges", "2"],
     cliques_bridge(4, 3, 2)),
], ids=["gnp", "cliques_bridge"])
def test_gen_kinds(args, want, capsys):
    assert main(["gen", *args, "--out", "-"]) == 0
    assert parse_graph(capsys.readouterr().out) == want


def test_gen_to_unwritable_path_is_io_error(tmp_path, capsys):
    out = tmp_path / "missing" / "g.txt"
    assert main(["gen", "--kind", "cycle", "--n", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_usage_errors(capsys):
    assert main(["solve"]) == 1                      # missing required args
    assert main(["frobnicate"]) == 1                 # unknown subcommand
    assert main(["gen", "--kind", "cycle", "--out", "-"]) == 1  # missing n


def test_io_error(capsys):
    assert main(["solve", "--graph", "/nonexistent/g.txt", "--k", "2"]) == 2


def test_bad_k_is_usage_error(c6_path, capsys):
    assert main(["solve", "--graph", c6_path, "--k", "9"]) == 1


def test_nonpositive_trial_cap_is_usage_error(c6_path, capsys):
    assert main(["solve", "--graph", c6_path, "--k", "3", "--trial-cap", "0"]) == 1
    assert "trial_cap" in capsys.readouterr().err


def test_solve_value_disagreeing_with_cut_is_invariant_error(c6_path, capsys, monkeypatch):
    def understated(g, k, cfg):
        report = min_kcut(g, k, cfg)
        return dataclasses.replace(report, value=report.value - 1)

    monkeypatch.setattr(cli, "min_kcut", understated)
    assert main(["solve", "--graph", c6_path, "--k", "3"]) == 3
    assert "solver invariant violated" in capsys.readouterr().err


def test_bench_and_solve_seed_are_gone(c6_path, capsys):
    # perfbench is the one benchmark, and the solver draws nothing at random.
    assert main(["bench", "--suite", "small"]) == 1
    assert main(["solve", "--graph", c6_path, "--k", "3", "--seed", "7"]) == 1


@pytest.mark.parametrize("doc, message", [
    ("3 2\n0 1 9223372036854775807\n1 0 1\n",
     "total edge weight 9223372036854775808 overflows the 64-bit weight budget at line 3"),
    ("3 2\n0 1\n2 2\n", "self-loop at line 3"),
], ids=["overflow", "self_loop"])
def test_malformed_document_is_io_error_naming_its_line(tmp_path, capsys, doc, message):
    p = tmp_path / "g.txt"
    p.write_text(doc)
    assert main(["oracle", "--graph", str(p), "--k", "2"]) == 2
    assert capsys.readouterr().err == f"error: {p}: {message}\n"
