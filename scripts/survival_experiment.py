#!/usr/bin/env python3
"""Measure min-cut survival through random contraction at varying targets.

For each contraction target tau, estimates the probability that a fixed
minimum 2-cut survives weighted-random contraction, and compares it against
the classical C(tau,2)/C(n,2) lower bound.

Usage: python scripts/survival_experiment.py [--trials N] [--seed N]
"""
import argparse
import math

from kcut.borders import contract_random, cut_survives, wilson_lower
from kcut.generators import cliques_bridge, cycle_graph
from kcut.rng import SplitMix64


def run(name, g, labels, taus, trials, seed):
    print(f"{name} (n={g.n}, m={len(g.edges)})")
    print(f"{'tau':>5} {'survived':>9} {'rate':>8} {'wilson_lo':>10} {'bound':>8}")
    for tau in taus:
        succ = 0
        for t in range(trials):
            if cut_survives(contract_random(g, tau, SplitMix64(seed ^ t)), labels):
                succ += 1
        bound = math.comb(tau, 2) / math.comb(g.n, 2)
        print(f"{tau:>5} {succ:>9} {succ / trials:>8.4f} "
              f"{wilson_lower(succ, trials):>10.4f} {bound:>8.4f}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    run("C16", cycle_graph(16), tuple(0 if v < 8 else 1 for v in range(16)),
        [2, 3, 4, 6, 8], args.trials, args.seed)
    run("two K5s + bridge", cliques_bridge(5, 2, 1),
        tuple(0 if v < 5 else 1 for v in range(10)),
        [2, 3, 4, 6], args.trials, args.seed)


if __name__ == "__main__":
    main()
