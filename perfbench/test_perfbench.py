"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""
import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import instances  # noqa: E402
from kcut import KCut, min_kcut  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", instances.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(workload, trace):
    result = bench.run_workload(workload, seed=0, seconds=0.0, trace=trace, tiny=True)
    assert result["correct"], result["details"]["failures"]
    line = bench.result_line(result)
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(line["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert result["metrics"]["failed_frac"]["value"] == 0.0
        assert all(v["value"] > 0 for v in line["metrics"].values())


def _understated(report):
    return dataclasses.replace(report, value=report.value - 1)


def _merged_parts(report):
    labels = tuple(0 for _ in report.cut.labels)   # every part but one left empty
    cut = KCut(k=report.cut.k, labels=labels, value=report.value)
    return dataclasses.replace(report, cut=cut)


@pytest.mark.parametrize("corrupt", [_understated, _merged_parts])
def test_corrupted_cut_is_counted_as_failed(corrupt):
    def solve(g, k, cfg):
        return corrupt(min_kcut(g, k, cfg))

    result = bench.run_workload("exact_sparse", seed=0, seconds=0.0, trace=False,
                                tiny=True, solve=solve)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["failed_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_pinned_fingerprints_match_generators(workload):
    assert instances.changed_instances(workload, instances.load_reference()) == []


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_seed_only_relabels_the_instances(workload):
    one, two = (instances.generate(workload, seed, tiny=True) for seed in (1, 2))
    for a, b, base in zip(one, two, instances.base(workload, tiny=True)):
        assert a.name == b.name == base.name and a.k == b.k and a.opt == b.opt
        assert a.graph.n == base.graph.n
        assert sorted(w for _, _, w in a.graph.edges) == sorted(w for _, _, w in base.graph.edges)
    assert [a.graph.edges for a in one] != [b.graph.edges for b in two]


def test_p50_is_the_mean_of_the_middle_half():
    # p25 and p75 of 1..17 are 5 and 13.
    assert bench.middle([float(x) for x in range(17, 0, -1)]) == 9.0
    # Of four values, the middle two.
    assert bench.middle([1.0, 2.0, 4.0, 100.0]) == 3.0
    assert bench.middle([2.0]) == 2.0


def test_tail_is_the_mean_of_the_slowest_quarter():
    # p75 of 1..21 is 16, so the slowest quarter is 16..21.
    assert bench.tail([float(x) for x in range(21, 0, -1)]) == (18.5, 6)
    # p75 of 1..10 is 7.75, so the slowest quarter is 8, 9 and 10.
    assert bench.tail([float(x) for x in range(1, 11)]) == (9.0, 3)
    assert bench.tail([2.0]) == (2.0, 1)
