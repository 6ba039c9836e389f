"""Record the row digests every benchmark run is checked against.

    python3 perfbench/record_digests.py

Writes ``perfbench/digests.json``: for each grid size, the digest of
``(app, kernel, dataset, rows, cols, nnzs, elapsed)`` of every sweep the
workloads run, at the default seed (0).  The sweep seed only draws input
values, never the cost model, so the spmv, bfs and triangle_count digests
hold for every seed; this script refuses to record them unless seeds 0, 1
and 2 agree.  The serve short job's dataset list is drawn from the seed,
so its digest (``short@0``) is checked at seed 0 only.

Re-record only when a change is meant to move simulated model time.
"""

from __future__ import annotations

import json
import sys

from lib import HERE, SIZES, SRC, BenchError, run_child
from serial import jobs_for


def sweep_digest(spec: dict) -> str:
    _, result = run_child({"mode": "sweep", **spec})
    if "error" in result:
        raise BenchError(f"{spec['app']}: {result['error']}")
    return result["digest"]


def record(size: str) -> dict:
    import serve_load

    out = {}
    for workload in ("spmv-standard", "graph-smoke"):
        for seed in (0, 1, 2):
            for spec in jobs_for(workload, seed, size):
                found = sweep_digest(spec)
                if out.setdefault(spec["app"], found) != found:
                    raise BenchError(f"{spec['app']} digest depends on the seed")
    _, short = serve_load.jobs_for(0, size)
    out["short@0"] = sweep_digest(dict(short, names=short["datasets"]))
    return out


def main() -> int:
    sys.path.insert(0, str(SRC))
    digests = {size: record(size) for size in SIZES}
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n",
                                       encoding="utf-8")
    print(json.dumps(digests, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
