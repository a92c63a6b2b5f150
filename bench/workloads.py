"""Workload definitions and the two keygen runners (in-memory and socket).

A keygen is one complete run of the protocol to a verified modulus.  Each
workload is a fixed list of keygens; keygen i's ProtocolConfig.seed is
derived from the workload name and i, so the program only ever sees a
generated config and every keygen's attempt count is fixed.  The
benchmark seed sets the order in which the list runs, not which keygens
it holds: attempts per modulus are roughly geometric, so a mean over the
few keygens a run can afford, drawn afresh per seed, spread by 40-60%
across seeds and would mostly measure the draw.
"""

import hashlib
import random
import socket
import threading
import time
from dataclasses import dataclass

from mprsa import PhaseMetrics, ProtocolConfig, run_in_memory
from mprsa import ot, protocol, streamnet
from mprsa.hashing import party_rng
from mprsa.wire import MEDIATOR

KEYGEN_DEADLINE_S = 60.0
FILTER_ROUNDS = 40  # the CLI default


@dataclass(frozen=True)
class Workload:
    name: str
    parties: int
    bits: int
    trial_bound: int
    backend: str  # "memory" or "socket"
    # Length of the keygen list, sized to 15-45 s on one CPU.  Host speed
    # drifts within a long keygen, between the probes around it, so a list
    # of many short keygens reads more steadily than one of a few long ones.
    keygens: int
    trace_keygens: int  # keygens in the traced run's pass
    why: str

    def config(self, index: int) -> ProtocolConfig:
        digest = hashlib.sha256(f"mprsa-bench|{self.name}|{index}".encode())
        return ProtocolConfig(
            parties=self.parties,
            bits=self.bits,
            trial_bound=self.trial_bound,
            filter_rounds=FILTER_ROUNDS,
            seed=digest.digest()[:8],
        )

    def order(self, seed: int) -> list[int]:
        """The keygen indices in the order the benchmark seed runs them."""
        indices = list(range(self.keygens))
        random.Random(seed).shuffle(indices)
        return indices


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sieve", 8, 32, 541, "memory", 18, 3,
            "n=8 with the default 541 trial bound: three-turn tree trial "
            "division dominates and OT multiplication is a minority",
        ),
        Workload(
            "multiply", 4, 16, 3, "memory", 36, 12,
            "trial bound 3 leaves no sieving prime, so every attempt runs "
            "OT multiplication and a filter round and trial division is bypassed",
        ),
        Workload(
            "socket", 4, 32, 541, "socket", 24, 8,
            "TCP loopback mesh: streamnet and wire carry a trial-division and "
            "multiplication mix, and the in-memory transport is bypassed",
        ),
    )
}


@dataclass
class Keygen:
    """Everything one keygen produced, for the timing and the checks."""

    index: int
    config: ProtocolConfig
    wall_s: float
    moduli: dict[int, int]
    attempts: int
    records: list
    p: int | None
    q: int | None
    mesh_open_s: float = 0.0


def run_keygen(workload: Workload, config: ProtocolConfig, index: int) -> Keygen:
    deadline_s = KEYGEN_DEADLINE_S
    if workload.backend == "socket":
        return run_socket_keygen(config, index, deadline_s)
    return run_memory_keygen(config, index, deadline_s)


def run_memory_keygen(config: ProtocolConfig, index: int, deadline_s: float) -> Keygen:
    """One keygen through run_in_memory; verify=True reconstructs p and q
    through the test-mode hook (its Miller-Rabin adds well under 1 ms)."""
    started = time.perf_counter()
    result = run_in_memory(config, verify=True, timeout=deadline_s)
    wall = time.perf_counter() - started
    return Keygen(
        index=index,
        config=config,
        wall_s=wall,
        moduli={party: o.modulus for party, o in result.outcomes.items()},
        attempts=result.attempts,
        records=result.records,
        p=result.p,
        q=result.q,
    )


class KeygenTimeout(Exception):
    """A keygen did not finish within its deadline."""


def _join_all(threads, deadline: float) -> bool:
    for thread in threads:
        thread.join(max(deadline - time.monotonic(), 0.0))
    return not any(thread.is_alive() for thread in threads)


def open_loopback_mesh(ids, timeout: float = 30.0) -> dict:
    """Open the full TCP mesh for `ids` inside this process, the way
    separate CLI invocations would; returns {id: StreamEndpoint}."""
    listeners, addresses = {}, {}
    try:
        for pid in ids:
            srv = socket.create_server(("127.0.0.1", 0), backlog=len(ids))
            listeners[pid] = srv
            addresses[pid] = ("127.0.0.1", srv.getsockname()[1])
    except OSError:
        for srv in listeners.values():
            srv.close()
        raise
    endpoints, errors = {}, []

    def opener(pid):
        try:
            endpoints[pid] = streamnet.open_mesh(
                pid, addresses, metrics=PhaseMetrics(), listener=listeners[pid],
                connect_timeout=timeout,
            )
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=opener, args=(pid,), name=f"mesh-{pid}")
               for pid in ids]
    for thread in threads:
        thread.start()
    finished = _join_all(threads, time.monotonic() + timeout + 5.0)
    if errors or not finished:
        for endpoint in endpoints.values():
            endpoint.close()
        if errors:
            raise errors[0]
        raise KeygenTimeout("mesh did not open in time")
    return endpoints


def run_socket_keygen(config: ProtocolConfig, index: int, deadline_s: float) -> Keygen:
    """One keygen over a fresh loopback mesh.  Mesh set-up is timed apart
    from the keygen; endpoints are closed only once every party returned."""
    parties = list(range(1, config.parties + 1))
    opened = time.perf_counter()
    endpoints = open_loopback_mesh(parties + [MEDIATOR])
    mesh_open = time.perf_counter() - opened
    share_sink, outcomes, errors = {}, {}, []

    def party(pid):
        try:
            outcomes[pid] = protocol.run_party(
                config, pid, endpoints[pid], party_rng(config.seed, pid),
                share_sink=share_sink,
            )
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
            for endpoint in endpoints.values():
                endpoint.close()

    def mediator():
        try:
            ot.run_mediator(endpoints[MEDIATOR])
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    mediator_thread = threading.Thread(target=mediator, name="ot-mediator")
    party_threads = [threading.Thread(target=party, args=(pid,), name=f"party-{pid}")
                     for pid in parties]
    try:
        mediator_thread.start()
        started = time.perf_counter()
        for thread in party_threads:
            thread.start()
        finished = _join_all(party_threads, time.monotonic() + deadline_s)
        wall = time.perf_counter() - started
    finally:
        for endpoint in endpoints.values():
            endpoint.close()
        readers = [t for t in threading.enumerate() if t.name.startswith("reader-")]
        _join_all(party_threads + [mediator_thread] + readers, time.monotonic() + 10.0)
    if errors:
        raise errors[0]
    if not finished:
        raise KeygenTimeout(f"keygen exceeded {deadline_s} seconds")
    p, q = protocol.reconstruct_for_test(share_sink.values(), test_mode=True)
    return Keygen(
        index=index,
        config=config,
        wall_s=wall,
        moduli={pid: o.modulus for pid, o in outcomes.items()},
        attempts=outcomes[1].attempts,
        records=[r for pid in parties for r in outcomes[pid].per_phase_metrics],
        p=p,
        q=q,
        mesh_open_s=mesh_open,
    )
