"""Record reference.json for the benchmark's correctness gate.

    python3 bench/record_reference.py

Run from the repository root on an otherwise idle machine; it pins itself
to one CPU like the benchmark.  For every workload it stores the
(modulus, attempts) of each keygen in the workload's list, which every
later run must reproduce exactly, and the mean host-speed probe time that
the end-to-end times are scaled to (see hostspeed.py).  Re-record only in
a change that is allowed to move the moduli a seed produces.
"""

import json
import os
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from gate import keygen_failures  # noqa: E402
from hostspeed import probe_seconds  # noqa: E402
from workloads import WORKLOADS, run_keygen  # noqa: E402


def main() -> int:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    out = {"workloads": {}}
    probes = [probe_seconds()]
    for workload in WORKLOADS.values():
        recorded = out["workloads"][workload.name] = []
        for index in range(workload.keygens):
            keygen = run_keygen(workload, workload.config(index), index)
            failed = keygen_failures(keygen, None)
            if failed:
                raise SystemExit(f"{workload.name} keygen {index} failed {failed}")
            recorded.append([keygen.moduli[1], keygen.attempts])
            probes.append(probe_seconds())
            print(workload.name, index, keygen.attempts, round(keygen.wall_s, 3),
                  file=sys.stderr)
    out["probe_s"] = statistics.mean(probes)
    (BENCH_DIR / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
