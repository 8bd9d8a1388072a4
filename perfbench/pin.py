#!/usr/bin/env python3
"""Rewrite reference.json: fingerprint and best-known value of every
instance, as generated (before the seed's relabelling, which keeps every cut
value).

    python3 perfbench/pin.py

The best-known value is the smallest of the certified optimum (where one
exists), the independent 2-approximation and the solver's own answer.  Re-pin
only when a workload is redefined on purpose; a generator change otherwise
shows up as a fingerprint mismatch in every benchmark run.
"""
import json
import sys

from run import SRC

sys.path.insert(0, str(SRC))

import instances  # noqa: E402
from kcut import min_kcut  # noqa: E402


def main() -> int:
    reference = {}
    for workload in instances.WORKLOADS:
        pins = {}
        for inst in instances.base(workload):
            instances.certify(inst)
            report = min_kcut(inst.graph, inst.k, inst.cfg)
            reason = instances.check(inst, report, None)
            if reason is not None:
                print(f"{workload} {inst.name}: {reason}", file=sys.stderr)
            best = min(v for v in (inst.opt, inst.sv_value, report.value) if v is not None)
            pins[inst.name] = {"fingerprint": inst.fingerprint(), "value": best,
                               "source": inst.opt_source or "solver"}
            print(workload, inst.name, pins[inst.name], report.branch, flush=True)
        reference[workload] = pins
    instances.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
