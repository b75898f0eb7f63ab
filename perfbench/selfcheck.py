"""Fast self-check of the benchmark at tiny input sizes.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced on tiny scenes and fails
unless each run is correct, produces exactly the metrics BENCHMARK.json
names, and executes every kind of correctness check its workload has.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.run import OUT_DIR, measure  # noqa: E402
from perfbench.workloads import NAMES, make  # noqa: E402

# the kinds of check each workload must execute
EXPECTED_CHECKS = {
    "segtet-count": {"oracle agreement", "independent recount"},
    "deep-report": {"oracle agreement", "witness", "independent feasibility"},
    "ccd-dense": {"oracle agreement", "witness", "independent feasibility"},
}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(NAMES):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for name in NAMES:
        for trace in (0, 1):
            result, detail = measure(make(name, tiny=True), seed=1, seconds=0, trace=bool(trace),
                                     out_dir=os.path.join(OUT_DIR, "selfcheck"))
            got = set(result["metrics"])
            where = f"{name} --trace {trace}"
            if got != wanted[trace]:
                problems.append(f"{where}: metrics missing {sorted(wanted[trace] - got)}, "
                                f"extra {sorted(got - wanted[trace])}")
            if not result["correct"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            missing = EXPECTED_CHECKS[name] - set(detail["checks_executed"])
            if missing:
                problems.append(f"{where}: checks never executed: {sorted(missing)}")
            print(f"{where}: {result['attempted']} operations, checks {detail['checks_executed']}")
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
