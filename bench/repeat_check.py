"""Same-seed repeat check: work counts and result summaries must match exactly.

Run from the repository root:

    python3 bench/repeat_check.py --workload omega_flat --seed 1 --ops 2

Runs the traced worker twice with the same seed and a fixed op count, and
compares per op the counts grid.power_calls, grid.solve_calls,
kernels.b_evals, kernels.compose_calls, omega.levels and omega.factors, and
the rounded result summary.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from run import TIME_LIMIT_S, WORKLOADS, run_worker


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, default=1)
    args = ap.parse_args(argv)
    args.seconds = 0.0
    root = Path.cwd()
    if not (root / "src" / "lipvar" / "__init__.py").is_file():
        print(f"error: run from the repository root; {root}/src/lipvar is missing",
              file=sys.stderr)
        return 2

    runs = []
    for _ in range(2):
        deadline = time.monotonic() + 2 * TIME_LIMIT_S
        runs.append(run_worker(root, args, "main", 1, deadline, ops=args.ops)[1])
    same = True
    for n in range(args.ops):
        for key in ("counts", "summaries"):
            a, b = runs[0][key][n], runs[1][key][n]
            ok = a == b
            same &= ok
            print(f"op {n} {key} {'identical' if ok else 'DIFFER'}: {json.dumps(a)}"
                  + ("" if ok else f" vs {json.dumps(b)}"))
    print(f"{args.workload} seed {args.seed}: {'PASS' if same else 'FAIL'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
