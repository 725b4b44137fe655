"""Record the golden outputs that the benchmark measures drift against:
one iteration of every workload at the golden seed.

    python3 perfbench/record_golden.py

Re-record only when a change is meant to alter the outputs, and say so.
"""

from __future__ import annotations

import shutil
import sys

from workloads import GOLDEN_DIR, GOLDEN_SEED, SRC, WORKLOADS, configs


def main() -> int:
    sys.path.insert(0, str(SRC))
    from run import iteration

    for workload in WORKLOADS:
        out = GOLDEN_DIR / workload
        shutil.rmtree(out, ignore_errors=True)
        reports = iteration(configs(workload, GOLDEN_SEED), out)
        if not all(r.passed for r in reports):
            raise SystemExit(f"{workload}: a check failed; no golden recorded")
        print(f"recorded {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
