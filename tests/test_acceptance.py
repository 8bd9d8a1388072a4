"""Acceptance suite: eight oracle-anchored criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
"""
import math
import random
import time
from itertools import product

import numpy as np

import kcut
from kcut import (
    brute_force_min_kcut,
    brute_force_r_island,
    certified_min_kcut,
    cut_survives,
    contract_random,
    kt_partition,
    min_kcut,
    ni_sparsify,
    planted_instance,
    solve_r_island,
    sv_2approx,
)
from kcut.borders import wilson_upper
from kcut.borders import tau_for
from kcut.generators import cliques_bridge, cycle_graph, gnp_graph
from kcut.islands import matmul_cubic, matmul_strassen
from kcut.partition import border_agrees, borders_of_cut
from kcut.pipeline import PipelineConfig
from kcut.rng import SplitMix64
from kcut.suites import get_suite


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} — {detail} [{elapsed:.1f}s / {budget:.0f}s budget]")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} over time budget: {elapsed:.1f}s"


def test_acceptance_1_end_to_end_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(0)
    cases = [(rng.randint(6, 12), rng.choice([0.3, 0.5, 0.8]),
              rng.choice([2, 3, 4]), i) for i in range(200)]
    sparsify_hits = 0
    exact_hits = 0
    for n, p, k, i in cases:
        g = gnp_graph(n, p, seed=10_000 + i)
        k = min(k, g.n)
        oracle = brute_force_min_kcut(g, k).value
        rep = min_kcut(g, k, PipelineConfig(force_branch="sparsify",
                                            trial_cap=100_000, seed=i))
        if rep.value == oracle:
            sparsify_hits += 1
        rep_exact = min_kcut(g, k, PipelineConfig(force_branch="exact", seed=i))
        if rep_exact.value == oracle:
            exact_hits += 1
    elapsed = time.perf_counter() - t0
    _report(1, "end-to-end oracle equivalence",
            sparsify_hits >= 198 and exact_hits == 200,
            f"sparsify {sparsify_hits}/200 (need >=198), exact {exact_hits}/200",
            elapsed, 600)


def test_acceptance_2_sparsifier_preservation():
    t0 = time.perf_counter()
    violations = 0
    checked = 0
    for i in range(100):
        rng = random.Random(20_000 + i)
        n = rng.randint(5, 10)
        g = gnp_graph(n, rng.choice([0.3, 0.5, 0.8]), seed=20_000 + i)
        for s in (2, 3):
            h = ni_sparsify(g, s)
            if len(h.edges) > s * g.n:
                violations += 1
            hset = {(u, v) for u, v, _ in h.edges}
            for k in (2, 3):
                if k > g.n:
                    continue
                for labels in product(range(k), repeat=g.n):
                    if len(set(labels)) != k:
                        continue
                    cross = {(u, v) for u, v, _ in g.edges if labels[u] != labels[v]}
                    if len(cross) <= s:
                        checked += 1
                        if cross != {e for e in cross if e in hset} or \
                           cross != {(u, v) for u, v in hset if labels[u] != labels[v]}:
                            violations += 1
    elapsed = time.perf_counter() - t0
    _report(2, "sparsifier cut preservation", violations == 0,
            f"{checked} small cuts checked on 100 graphs, {violations} violations",
            elapsed, 120)


def test_acceptance_3_contraction_survival():
    t0 = time.perf_counter()
    # Classical specialization: contract to tau = 4 (the tau formula at
    # beta=0, k=2).  The survival-probability lower bound C(tau,2)/C(16,2)
    # is EXACTLY attained on a cycle, so the 95%-confidence check is that
    # the observed frequency does not refute the bound: the Wilson upper
    # endpoint must reach it (and the lower endpoint must not be far below).
    tau = tau_for(0.0, 2)
    bound = math.comb(tau, 2) / math.comb(16, 2)
    results = []
    for name, g, labels in [
        ("C16", cycle_graph(16), tuple(0 if v < 8 else 1 for v in range(16))),
        ("two-K5s-bridge", cliques_bridge(5, 2, 1),
         tuple(0 if v < 5 else 1 for v in range(10))),
    ]:
        succ = sum(
            1 for t in range(10_000)
            if cut_survives(contract_random(g, tau, SplitMix64(31_000 ^ t))[1], labels))
        results.append((name, succ, wilson_upper(succ, 10_000)))
    ok = all(hi >= bound for _, _, hi in results)
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{n}: {s}/10000, wilson_hi {hi:.3f} >= {bound:.3f}"
                       for n, s, hi in results)
    _report(3, "contraction survival", ok, detail, elapsed, 60)


def test_acceptance_4_island_solver_equivalence(monkeypatch):
    t0 = time.perf_counter()
    matmul_calls = [0]
    real_matmul = kcut.islands.matmul

    def counting_matmul(a, b, **kw):
        matmul_calls[0] += 1
        return real_matmul(a, b, **kw)

    monkeypatch.setattr(kcut.islands, "matmul", counting_matmul)
    rng = random.Random(4)
    mismatches = 0
    runs = 0
    r3_runs = 0
    for i in range(50):
        n = rng.randint(6, 12)
        g = gnp_graph(n, rng.choice([0.3, 0.5, 0.8]), seed=40_000 + i)
        for r in range(1, 6):
            if r > g.n - 1:
                continue
            before = matmul_calls[0]
            v1, _ = solve_r_island(g, r)
            if r == 3:
                r3_runs += 1
                assert matmul_calls[0] > before, "r=3 must take the matmul path"
            v2, _ = brute_force_r_island(g, r)
            runs += 1
            if v1 != v2:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(4, "island solver equivalence",
            mismatches == 0 and r3_runs >= 50,
            f"{runs} solves (r=1..5), {mismatches} mismatches, "
            f"{r3_runs} r=3 matmul-path runs", elapsed, 300)


def _certified_planted(k, size, p_in, p_out, islands, seed):
    for attempt in range(100):
        g, info = planted_instance(k, size, p_in, p_out, islands,
                                   seed=seed + 1000 * attempt)
        cert = certified_min_kcut(g, info, k)
        if cert is not None:
            return g, cert
    raise RuntimeError("no certifiable instance")


def test_acceptance_5_partition_border_property():
    t0 = time.perf_counter()
    configs = [(2, 8, 0.9, 0.05, 0), (2, 10, 0.85, 0.04, 1),
               (3, 8, 0.9, 0.04, 0), (3, 10, 0.9, 0.03, 1),
               (2, 12, 0.8, 0.03, 2)]
    passed = 0
    total = 0
    for ci, (k, size, p_in, p_out, isl) in enumerate(configs):
        for rep in range(4):
            total += 1
            g, (lam_k, cut) = _certified_planted(k, size, p_in, p_out, isl,
                                                 seed=100 * ci + rep)
            assert g.n <= 40
            lam_bar = sv_2approx(g, k).value
            partition, report = kt_partition(g, k, lam_bar)
            n = g.n
            q_ok = report["q"] <= 64 * k * math.log2(n) ** 2 * n / max(1, lam_bar)
            border_ok = False
            for border in borders_of_cut(g, cut):
                limit = lam_k - (1 - 2 / math.log2(n)) * len(border.islands) * lam_k / k
                if border.base_cut.value <= limit and border_agrees(g, border, partition):
                    border_ok = True
                    break
            if q_ok and border_ok:
                passed += 1
    elapsed = time.perf_counter() - t0
    _report(5, "partition border property", passed == total,
            f"{passed}/{total} planted instances satisfy border + part-count bounds",
            elapsed, 300)


def test_acceptance_6_stage_postconditions():
    t0 = time.perf_counter()
    runs = 0
    for suite in ("small", "planted"):
        for row in get_suite(suite, seed=0):
            g, k = row.graph, row.k
            lam_bar = sv_2approx(g, k).value
            if lam_bar < 1:
                continue  # disconnected instances never reach the partitioner
            # kt_partition checks trim/shave/shatter postconditions, exact
            # expander certification <= 16 vertices, and the edge budget.
            kt_partition(g, k, lam_bar)
            runs += 1
    elapsed = time.perf_counter() - t0
    _report(6, "partition stage postconditions", runs > 0,
            f"{runs} suite instances validated (thresholds, expanders, edge budget)",
            elapsed, 300)


def test_acceptance_7_approximation_guarantee():
    t0 = time.perf_counter()
    bad = 0
    rows = get_suite("small", seed=0)
    for row in rows:
        approx = sv_2approx(row.graph, row.k).value
        if not row.oracle_value <= approx <= 2 * (1 - 1 / row.k) * row.oracle_value \
           and not approx == row.oracle_value == 0:
            bad += 1
    elapsed = time.perf_counter() - t0
    _report(7, "2(1-1/k) approximation guarantee", bad == 0,
            f"{len(rows)} suite-small instances, {bad} bound violations",
            elapsed, 120)


def test_acceptance_8_matmul_route_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    bad = 0
    for _ in range(100):
        n1, n2, n3 = rng.integers(1, 201, size=3)
        a = rng.integers(-100, 101, size=(n1, n2)).astype(np.int64)
        b = rng.integers(-100, 101, size=(n2, n3)).astype(np.int64)
        if not np.array_equal(matmul_strassen(a, b), matmul_cubic(a, b)):
            bad += 1
    elapsed = time.perf_counter() - t0
    _report(8, "Strassen/cubic matmul equivalence", bad == 0,
            f"100 random integer matrices up to 200x200, {bad} mismatches",
            elapsed, 60)
