"""Seeded keygen benchmark for mprsa.

    python3 bench/run.py --workload sieve --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ./src.  One
closed-loop client runs a workload's fixed list of keygens one after
another, in an order derived from --seed.  With --trace 0 the list runs
untraced, repeated until every keygen has run and --seconds of keygen
wall time are used, and the end-to-end metrics are reported.  With
--trace 1 the first few keygens of the order run once untraced and once
traced, and the per-layer metrics are reported.  Every keygen is checked
outside its timed region.  The last stdout line is the result object; the
line before it describes the run.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"
IMPORT_REPEATS = 21

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import mprsa\n"
    "print(time.perf_counter() - t, mprsa.__file__)\n"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="mprsa keygen benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> bool:
    """Import mprsa from ./src and nowhere else; False if it is missing."""
    if not (SRC / "mprsa" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import mprsa

    return Path(mprsa.__file__).resolve().parent == SRC / "mprsa"


def pin_to_one_cpu() -> dict:
    """The protocol is bound by the interpreter lock, so a second core only
    adds cross-core wake-ups; pin to the last allowed CPU."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    return {"allowed_cpus": allowed, "pinned_cpu": allowed[-1]}


def commit_id() -> str:
    """HEAD of the checkout when it is a git work tree, read from the files
    directly so nothing outside the checkout is consulted."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds(repeats: int = IMPORT_REPEATS) -> list[tuple[float, float]]:
    """Time `import mprsa` in fresh interpreters (isolated mode); each
    sample is paired with the host-speed probe run right after it."""
    from hostspeed import probe_seconds

    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-I", "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        seconds, path = out.stdout.split()
        if Path(path).resolve().parent != SRC / "mprsa":
            raise RuntimeError(f"probe imported mprsa from {path}")
        samples.append((float(seconds), probe_seconds()))
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not load_program():
        print(f"error: no mprsa package under {SRC}", file=sys.stderr)
        return 2
    from harness import measure, result_line, traced
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    reference_file = json.loads(REFERENCE_PATH.read_text())
    reference = reference_file["workloads"][workload.name]
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        **pin_to_one_cpu(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "commit": commit_id(),
    }
    if args.trace:
        client, metrics, run_failures = traced(workload, args.seed, reference)
    else:
        imports = import_seconds()
        info["import_s"] = imports
        client, metrics, run_failures = measure(
            workload, args.seed, args.seconds, reference,
            imports, reference_file["probe_s"],
        )
    info["keygens"] = [[k.index, k.attempts, k.wall_s] for k in client.keygens]
    info.update(client.notes)
    info["failures"] = client.failures
    info["run_failures"] = run_failures
    print(json.dumps({"info": info}))
    print(json.dumps(result_line(client, metrics, run_failures)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
