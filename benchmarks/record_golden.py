"""Record the expected output of every op any seed can produce.

Run from the root of a checkout of the commit whose outputs are the
reference (the seed commit of the benchmark)::

    python3 benchmarks/record_golden.py

It runs every distinct op of every workload, full size and smoke size,
through the same worker as the benchmark, and records each op's output
digest and its count of T-recursion calls.  The ``tcoeff`` and ``rewrite``
ops share one worker, so they are run in the orders of several seeds, and
an op whose digest or count depends on the order is refused, as is an op
whose verdict fails or that raises.  Output: ``benchmarks/golden.json``.
"""

from __future__ import annotations

import json
import sys
import time

from run import GOLDEN, SRC, run_job

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

ORDER_SEEDS = (0, 1, 2)


def op_universe() -> list[tuple[dict, list[dict]]]:
    """(setup, ops) batches covering every op that any seed selects."""
    pool = workloads.point_pool()
    batches = []
    for label, points in (("E6", [workloads.DEFAULT_POINT] + pool),
                          ("E7", [workloads.DEFAULT_POINT]),
                          ("A3", [workloads.DEFAULT_POINT] + pool)):
        batches += [({"types": [label], "lk": []}, [workloads.verify_op(label, p)])
                    for p in points]
    batches += [({"types": [label], "lk": []}, [workloads.verify_op(label)])
                for label in ("A2", "A3", "A4", "D4", "D5")]
    for smoke in (False, True):
        for name in ("tcoeff-E7", "rewrite-A3D4"):
            for seed in ORDER_SEEDS:
                spec = workloads.build(name, seed, smoke)
                batches.append((spec["setup"], spec["ops"]))
    return batches


def main() -> int:
    golden: dict[str, dict] = {}
    deadline = time.monotonic() + 3600
    for setup, ops in op_universe():
        result = run_job(setup, ops, "count", deadline)
        for r in result["ops"]:
            if r["error"] or not r["verdict"]:
                print(f"refusing to record {r['id']}: {r['error'] or 'wrong verdict'}",
                      file=sys.stderr)
                return 1
            expected = {"digest": r["digest"], "t_calls": r["t_calls"]}
            if golden.setdefault(r["id"], expected) != expected:
                print(f"{r['id']} gave {golden[r['id']]}, then {expected}", file=sys.stderr)
                return 1
        print(f"recorded {len(result['ops'])} ops ({ops[0]['id']} ...)", flush=True)
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(golden.items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} ops to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
