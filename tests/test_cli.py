"""Command-line interface contracts."""
import dataclasses
import json

import pytest

from kcut import cli, min_kcut
from kcut.cli import main
from kcut.generators import cycle_graph
from kcut.graph import graph_to_text, parse_graph


@pytest.fixture
def c6_path(tmp_path):
    p = tmp_path / "c6.txt"
    p.write_text(graph_to_text(cycle_graph(6)))
    return str(p)


def test_solve_json(c6_path, capsys):
    assert main(["solve", "--graph", c6_path, "--k", "3", "--seed", "7"]) == 0
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


def test_usage_errors(capsys):
    assert main(["solve"]) == 1                      # missing required args
    assert main(["frobnicate"]) == 1                 # unknown subcommand
    assert main(["gen", "--kind", "cycle", "--out", "-"]) == 1  # missing n


def test_io_error(capsys):
    assert main(["solve", "--graph", "/nonexistent/g.txt", "--k", "2"]) == 2


def test_bad_k_is_usage_error(c6_path, capsys):
    assert main(["solve", "--graph", c6_path, "--k", "9"]) == 1


def test_solve_value_disagreeing_with_cut_is_invariant_error(c6_path, capsys, monkeypatch):
    def understated(g, k, cfg):
        report = min_kcut(g, k, cfg)
        return dataclasses.replace(report, value=report.value - 1)

    monkeypatch.setattr(cli, "min_kcut", understated)
    assert main(["solve", "--graph", c6_path, "--k", "3"]) == 3
    assert "solver invariant violated" in capsys.readouterr().err


def test_bench_small(tmp_path, capsys):
    out = str(tmp_path / "bench.json")
    code = main(["bench", "--suite", "small", "--seed", "7", "--out", out])
    captured = capsys.readouterr().out
    assert code == 0
    lines = captured.strip().splitlines()
    header = lines[0].split(",")
    assert {"name", "pipeline_value", "oracle_value", "agree", "seconds"} <= set(header)
    agree_idx = header.index("agree")
    for line in lines[1:]:
        assert line.split(",")[agree_idx] == "True"
    doc = json.loads(open(out).read())
    assert doc["suite"] == "small"
    assert all(r["agree"] for r in doc["rows"])
