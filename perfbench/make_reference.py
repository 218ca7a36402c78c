"""Write reference.json: the measured value of every seed-independent check.

Usage, from the root of a checkout of the commit to use as reference:

    python3 perfbench/make_reference.py

Runs one pass of each workload at two benchmark seeds and keeps the checks
whose measured value came out identical under both, so that any later run,
whatever its seed, can be compared with them (``cli.measured_drift_max``).
Values at roundoff level are left out: their relative drift is noise.
"""

from __future__ import annotations

import json
import time

from run import HERE, PASS_CAP_S, WORKLOADS, run_pass

ROUNDOFF = 1e-12


def main() -> int:
    reference = {}
    for name, workload in WORKLOADS.items():
        runs = []
        for seed in (0, 1):
            deadline = time.monotonic() + PASS_CAP_S
            result = run_pass(workload, seed, 0, False, deadline)
            runs.append({c["check"]: c for c in result["checks"]})
        first, second = runs
        reference[name] = {
            check: c["measured"] for check, c in sorted(first.items())
            if c["passed"] and abs(c["measured"]) > ROUNDOFF
            and check in second and second[check]["measured"] == c["measured"]
        }
        print(f"{name}: {len(reference[name])} of {len(first)} checks are seed-independent")
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
