"""Record the output digests the benchmark's correctness gate compares against.

Run from the repository root::

    python3 perfbench/record.py                 # every workload
    python3 perfbench/record.py serve-churn     # only the named ones

For each workload and each input case it stores, in
``perfbench/digests.json``:

* the pipeline workload: the digest of one pass (SENS edges, representatives
  and the stretch / route / coverage outputs of both networks);
* the serve workload: the final world's ``LiveWorld.digest()`` after the
  whole ``serve_load.RECORDED_SECONDS`` schedule, applied here without a
  daemon in fixed chunks -- the schedule never depends on tick timing, so the daemon
  must reach the same world.

Re-record only for a change that is meant to alter outputs.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import pipeline, serve_load
    from perfbench.run import CASES, WORKLOADS

    path = os.path.join(ROOT, "perfbench", "digests.json")
    recorded = {}
    if os.path.exists(path):
        with open(path) as handle:
            recorded = json.load(handle)
    for workload in argv or WORKLOADS:
        entries = recorded.setdefault(workload, {})
        for case in range(CASES):
            if workload == "pipeline-full":
                nets = pipeline.NETWORKS
                inputs = [pipeline.deployment(case, i, net) for i, net in enumerate(nets)]
                digest = pipeline.run_pass(inputs, case).digest
            else:
                schedule = serve_load.make_schedule(case, serve_load.RECORDED_SECONDS)
                digest = serve_load.expected_digest(schedule)
            entries[str(case)] = digest
            print(workload, case, digest, flush=True)
        with open(path, "w") as handle:
            json.dump(recorded, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
