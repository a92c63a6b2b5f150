"""The benchmark's client loop, its two kinds of run, and the result line.

measure() is the untraced run behind the end-to-end metrics; traced()
runs the same first keygens untraced and traced and derives the
per-layer metrics, checking that tracing changed no result.
"""

import hashlib
import resource
import statistics
import time
from pathlib import Path

from mprsa import records_to_jsonl

from gate import keygen_failures
from hostspeed import StrayThreads, probe_seconds
from layertrace import Tracer, layer_metrics
import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"


class Client:
    """Closed-loop client: runs and checks keygens one after another."""

    def __init__(self, workload, reference: list | None):
        self.workload = workload
        self.reference = reference
        self.keygens = []  # passed keygens, records dropped after the checks
        self.failures = []  # (index, check names)
        self.notes = {}  # extra facts for the info line

    def run(self, index: int, keep_records: bool = False):
        """Run keygen `index`; returns (Keygen or None, seconds spent)."""
        config = self.workload.config(index)
        started = time.perf_counter()
        try:
            keygen = workloads.run_keygen(self.workload, config, index)
        except Exception as exc:  # noqa: BLE001 - counted as a failed keygen
            # A keygen past its deadline is torn down, which the parties
            # see as an error of their own; the elapsed time tells which.
            elapsed = time.perf_counter() - started
            if elapsed >= workloads.KEYGEN_DEADLINE_S:
                self.failures.append((index, ["deadline"]))
            else:
                self.failures.append((index, [f"exception:{type(exc).__name__}: {exc}"]))
            return None, elapsed
        failed = keygen_failures(keygen, self.reference)
        if failed:
            self.failures.append((index, failed))
            return None, keygen.wall_s
        if not keep_records:
            keygen.records = None
        self.keygens.append(keygen)
        return keygen, keygen.wall_s

    @property
    def attempted(self) -> int:
        return len(self.keygens) + len(self.failures)


def measure(workload, seed: int, seconds: float, reference,
            imports: list, probe_ref_s: float):
    """Untraced run: the keygen list in the seed's order, repeated until
    every keygen has run and `seconds` of keygen time are used; end-to-end
    metrics.  `imports` holds the (import seconds, probe seconds) samples
    and `probe_ref_s` the recorded probe time (see hostspeed.py).

    Each keygen's wall time is scaled by the mean of the probes run just
    before and just after it.  keygen_s is the mean over the list of each
    keygen's mean scaled time, so a keygen that ran twice does not weigh
    twice; attempts_per_s is the list's attempts over the same time.
    """
    client = Client(workload, reference)
    order = workload.order(seed)
    scaled, raw = {}, {}  # keygen index -> wall seconds of its passed runs
    run_failures, probes, spent, done = [], [], 0.0, 0
    try:
        probes.append(probe_seconds())
        while done < len(order) or spent < seconds:
            index = order[done % len(order)]
            keygen, elapsed = client.run(index)
            probes.append(probe_seconds())
            if keygen is not None:
                host = (probes[-2] + probes[-1]) / 2 / probe_ref_s
                scaled.setdefault(index, []).append(keygen.wall_s / host)
                raw.setdefault(index, []).append(keygen.wall_s)
            spent += elapsed
            done += 1
    except StrayThreads as exc:
        run_failures.append(f"stray_threads: {exc}")
    host = statistics.mean(probes) / probe_ref_s if probes else 1.0
    mesh = [k.mesh_open_s for k in client.keygens if k.mesh_open_s]
    mesh_s = statistics.median(mesh) if mesh else 0.0
    import_s = statistics.median(i for i, _ in imports)
    scaled_import_s = statistics.median(i / p for i, p in imports) * probe_ref_s
    client.notes.update(order=order, probes=probes, host_factor=host, unscaled={
        "keygen_s": list_mean(raw), "setup_s": import_s + mesh_s})
    attempts = {k.index: k.attempts for k in client.keygens}
    keygen_s = list_mean(scaled)
    metrics = {
        "keygen_s": (keygen_s, "s"),
        "attempts_per_s": (statistics.mean(attempts[i] for i in scaled) / keygen_s
                           if scaled else 0.0, "1/s"),
        "setup_s": (scaled_import_s + mesh_s / host, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return client, metrics, run_failures


def list_mean(walls: dict) -> float:
    """Mean over keygen indices of each index's mean wall time."""
    return statistics.mean(statistics.mean(w) for w in walls.values()) if walls else 0.0


def records_digest(records) -> str:
    return hashlib.sha256(records_to_jsonl(records).encode()).hexdigest()


def split_failures(workload, metrics) -> list[str]:
    """The layer split the workload exists for: bypassed layers read 0
    calls, exercised layers do not."""
    stream = ["streamnet.sends", "wire.encodes", "wire.decodes"]
    memory = ["transport.sends", "transport.receives"]
    zero, loaded = (memory, stream) if workload.backend == "socket" else (stream, memory)
    (zero if workload.trial_bound <= 3 else loaded).append("trialdiv.tests")
    return ([f"split:{name}" for name in zero if metrics[name][0] != 0]
            + [f"split:{name}" for name in loaded if metrics[name][0] == 0])


def traced(workload, seed: int, reference, write_spans: bool = True):
    """Traced run: the first keygens of the seed's order untraced, then the
    same ones traced.

    A traced keygen whose modulus, attempt count or counter records differ
    from its untraced twin counts as failed: tracing must not change what
    the program does.
    """
    indices = workload.order(seed)[:workload.trace_keygens]
    client = Client(workload, reference)
    plain = [client.run(i, keep_records=True)[0] for i in indices]
    tracer = Tracer()
    with tracer.patched():
        spans = [client.run(i, keep_records=True)[0] for i in indices]
    pairs = [(a, b) for a, b in zip(plain, spans) if a is not None and b is not None]
    for a, b in pairs:
        if (a.moduli, a.attempts) != (b.moduli, b.attempts):
            mismatch = "traced_result"
        elif records_digest(a.records) != records_digest(b.records):
            mismatch = "traced_records"
        else:
            continue
        client.keygens = [k for k in client.keygens if k is not b]
        client.failures.append((b.index, [mismatch]))
    metrics = layer_metrics(
        tracer.summary(),
        [b for _, b in pairs],
        sum(a.wall_s for a, _ in pairs),
        sum(b.wall_s for _, b in pairs),
    )
    metrics["failed_share"] = (len(client.failures) / client.attempted, "share")
    if write_spans:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{workload.name}.spans.csv.gz")
    return client, metrics, split_failures(workload, metrics)


def result_line(client, metrics, run_failures) -> dict:
    """The result object; run_failures are checks of the run as a whole."""
    return {
        "correct": not client.failures and not run_failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
