"""Check that two traced runs did exactly the same work.

    python3 perfbench/compare_traces.py perfbench/out/A.json perfbench/out/B.json

Compares the deterministic work counters of every input instance — layout
estimates (and unique ones), cost-model explains, ILP solves, variables and
nodes, heap sorts, CM builds, pages read, seeks, refresh page I/O,
buffer-pool hits and misses, migration steps, simulated seconds and the
chosen ids per budget or phase — and prints every difference.  Exits 0 when
the two traces agree exactly, 1 otherwise.
"""

from __future__ import annotations

import json
import sys


def differences(a: dict, b: dict) -> list[str]:
    out = []
    for instance in sorted(set(a) | set(b)):
        ca, cb = a.get(instance, {}), b.get(instance, {})
        for key in sorted(set(ca) | set(cb)):
            if ca.get(key) != cb.get(key):
                out.append(
                    f"instance {instance} {key}: {ca.get(key)!r} != {cb.get(key)!r}"
                )
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    traces = [json.loads(open(path).read()) for path in argv]
    diffs = differences(*(t["work_counters"] for t in traces))
    for line in diffs:
        print(line)
    n = sum(len(c) for c in traces[0]["work_counters"].values())
    print(f"{n} work counters compared, {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
