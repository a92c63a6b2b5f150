"""Host-speed probe for the end-to-end times.

The machines this benchmark runs on are shared.  On a 2-vCPU VM the same
keygen took 1.02-1.67 s within one minute, and the fixed loop below
flipped between about 60 ms and 120 ms as neighbours came and went.  A
15-30 s run catches a varying mix of fast and slow phases.  The probe
runs between keygens and after each import sample, outside the timed
regions.  The untraced run divides each keygen's time by the mean of the
probes just before and after it, and each import sample by the probe
time right after it, over the probe time recorded in reference.json.
The times then read as seconds at the recording host's speed.

The probe runs only hashlib and plain Python, so mprsa can move it only
through threads it leaves running, which would compete for the one
pinned CPU, slow the probe and make mprsa look faster.  The probe
therefore refuses to run while any other thread is alive.
"""

import hashlib
import threading
import time

# About 60-120 ms.  A 20,000-step loop was a noisy sample of a host whose
# speed changes within a second.
PROBE_STEPS = 80_000


class StrayThreads(RuntimeError):
    """Threads other than the caller's are alive when the probe should run."""


def probe_seconds() -> float:
    """Time a fixed, mprsa-independent loop of hashing and dict updates."""
    stray = [t.name for t in threading.enumerate() if t is not threading.current_thread()]
    if stray:
        raise StrayThreads(f"threads still alive: {', '.join(sorted(stray))}")
    digest, acc, table = b"probe", 0, {}
    started = time.perf_counter()
    for step in range(PROBE_STEPS):
        digest = hashlib.sha256(digest).digest()
        acc = (acc * 31 + int.from_bytes(digest[:8], "big")) % 1_000_003
        table[step & 255] = acc
    return time.perf_counter() - started
