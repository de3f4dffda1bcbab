"""Check that exact counts repeat: two traced passes of one workload and seed
must give identical counters (scalar operations, multiplications, certify
calls, every wrapped call) and identical cache entries.

Usage: ``python3 perfbench/repeat.py --workload NAME --seed N``.  Prints the
output digest and any counter that differs; exits 1 if one does.
"""

from __future__ import annotations

import argparse
import sys
import time

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    recs = []
    for _ in range(2):
        p = run.run_pass(args.workload, args.seed, time.monotonic() + run.RUN_LIMIT_S, "--trace")
        recs.append((p["trace"]["counts"], p["trace"]["caches"], p["digest"]))
    (c1, k1, d1), (c2, k2, d2) = recs
    diff = {key: (c1.get(key), c2.get(key)) for key in sorted(set(c1) | set(c2)) if c1.get(key) != c2.get(key)}
    diff.update({key: (k1.get(key), k2.get(key)) for key in sorted(set(k1) | set(k2)) if k1.get(key) != k2.get(key)})
    print(f"{args.workload} seed {args.seed}: {len(c1)} counters, {len(k1)} cache figures, "
          f"digests {'equal' if d1 == d2 else 'differ'} ({d1[:16]})")
    for key, (a, b) in diff.items():
        print(f"  differs: {key}: {a} != {b}")
    return 1 if diff or d1 != d2 else 0


if __name__ == "__main__":
    sys.exit(main())
