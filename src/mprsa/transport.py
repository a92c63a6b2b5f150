"""In-process message transport: reliable, per-pair FIFO, with accounting.

Every party (and the OT mediator) owns an inbox keyed by destination id.
Receives are selective: the caller names the phase it is waiting for and
optionally the sender, so messages from other phases or peers stay queued
instead of being dropped.  Delivery is exactly-once and FIFO per
(sender, destination) pair.

Two scheduling modes share this implementation:

* free mode - party threads run unconstrained; correctness never depends
  on interleaving because all receives are selective and all aggregation
  is order-insensitive.
* lockstep mode - a single logical clock hands a baton round-robin over
  the participants; each transport operation is one tick.  Runs are then
  reproducible down to the global event order, and a cycle with every
  party blocked is reported as a deadlock instead of hanging.
"""

import threading
import time
from collections import deque

from .errors import (
    AddressError,
    ChannelClosed,
    DeadlockError,
    ParameterError,
    PayloadTooLarge,
    ProtocolDesync,
    ReceiveTimeout,
)
from .metrics import PhaseMetrics
from .wire import (
    BROADCAST,
    MAX_PAYLOAD,
    MEDIATOR,
    Envelope,
    Phase,
    encode_envelope,
)

_RUNNING = "running"
_WAITING = "waiting"
_DONE = "done"


class InMemoryNetwork:
    """Shared state for one simulated network of n parties plus the mediator."""

    def __init__(
        self,
        parties: int,
        *,
        metrics: PhaseMetrics | None = None,
        lockstep: bool = False,
        record_transcripts: bool = False,
    ):
        if parties < 2:
            raise ParameterError(f"need at least 2 parties, got {parties}")
        self.metrics = metrics if metrics is not None else PhaseMetrics()
        self.lockstep = lockstep
        self._cv = threading.Condition()
        self._ring = list(range(1, parties + 1)) + [MEDIATOR]
        self._queues: dict[int, deque[Envelope]] = {pid: deque() for pid in self._ring}
        self._status = {pid: _RUNNING for pid in self._ring}
        self._predicates: dict[int, tuple] = {}
        self._turn = self._ring[0] if lockstep else None
        self._closed = False
        self._deadlocked = False
        self._transcripts: dict[int, list[tuple[str, bytes]]] | None = (
            {pid: [] for pid in self._ring} if record_transcripts else None
        )

    @property
    def party_ids(self) -> list[int]:
        return self._ring[:-1]

    def endpoint(self, party_id: int) -> "InMemoryEndpoint":
        if party_id not in self._queues:
            raise AddressError(f"no such participant: {party_id}")
        return InMemoryEndpoint(self, party_id)

    def close(self) -> None:
        with self._cv:
            self._closed = True
            self._cv.notify_all()

    def transcript(self, party_id: int) -> list[tuple[str, bytes]]:
        if self._transcripts is None:
            raise ParameterError("network was created without transcript recording")
        with self._cv:
            return list(self._transcripts[party_id])

    # -- internals, all called with self._cv held --

    def _match(self, dest: int, phase: Phase, sender: int | None) -> Envelope | None:
        for env in self._queues[dest]:
            if env.phase == phase and (sender is None or env.sender == sender):
                return env
        return None

    def _pop(self, dest: int, env: Envelope) -> None:
        self._queues[dest].remove(env)

    def _advance(self, actor: int) -> None:
        idx = self._ring.index(actor)
        size = len(self._ring)
        for step in range(1, size + 1):
            cand = self._ring[(idx + step) % size]
            status = self._status[cand]
            if status == _DONE:
                continue
            if status == _WAITING:
                phase, sender = self._predicates[cand]
                if self._match(cand, phase, sender) is not None:
                    self._status[cand] = _RUNNING
                    del self._predicates[cand]
                    self._turn = cand
                    return
                continue
            self._turn = cand
            return
        if any(self._status[p] == _WAITING for p in self.party_ids):
            self._deadlocked = True
        self._turn = None

    def _record(self, party: int, direction: str, env: Envelope) -> None:
        if self._transcripts is not None:
            self._transcripts[party].append((direction, encode_envelope(env)))

    def _check_open(self) -> None:
        if self._closed:
            raise ChannelClosed("network closed")
        if self._deadlocked:
            raise DeadlockError("every party is blocked on receive")


class InMemoryEndpoint:
    """One participant's handle on an InMemoryNetwork."""

    def __init__(self, network: InMemoryNetwork, party_id: int):
        self.network = network
        self.party_id = party_id

    @property
    def metrics(self) -> PhaseMetrics:
        return self.network.metrics

    @property
    def peers(self) -> list[int]:
        return [p for p in self.network.party_ids if p != self.party_id]

    def _validate_outgoing(self, env: Envelope) -> None:
        if env.sender != self.party_id:
            raise ParameterError(
                f"endpoint {self.party_id} cannot send as {env.sender}"
            )
        if len(env.payload) > MAX_PAYLOAD:
            raise PayloadTooLarge(
                f"payload of {len(env.payload)} bytes exceeds {MAX_PAYLOAD}"
            )

    def send(self, env: Envelope) -> None:
        """Deliver a point-to-point envelope; counts one communication
        for the sender now and one for the destination at delivery."""
        self._validate_outgoing(env)
        if env.to == BROADCAST:
            raise AddressError("point-to-point send addressed to broadcast")
        if env.to == self.party_id:
            raise AddressError("cannot send to self")
        net = self.network
        with net._cv:
            self._await_turn(net)
            if env.to not in net._queues:
                raise AddressError(f"unknown destination: {env.to}")
            net._queues[env.to].append(env)
            net._record(self.party_id, "send", env)
            net.metrics.tick_message(self.party_id, env.phase)
            self._yield_turn(net)

    def broadcast(self, env: Envelope) -> None:
        """Deliver to all other parties; one communication for the sender."""
        self._validate_outgoing(env)
        if env.to != BROADCAST:
            raise AddressError("broadcast envelope must be addressed to BROADCAST")
        net = self.network
        with net._cv:
            self._await_turn(net)
            for peer in net.party_ids:
                if peer != self.party_id:
                    net._queues[peer].append(env)
            net._record(self.party_id, "send", env)
            net.metrics.tick_broadcast(self.party_id, env.phase)
            self._yield_turn(net)

    def receive(
        self,
        phase: Phase,
        from_: int | None = None,
        round_: int | None = None,
        timeout: float | None = None,
    ) -> Envelope:
        """Block until an envelope of `phase` (optionally from `from_`)
        is available; other messages stay queued.

        When `round_` is given, the first matching envelope must carry
        that round tag or the peers have desynchronized.
        """
        net = self.network
        if timeout is not None and net.lockstep:
            raise ParameterError("timeouts are not supported in lockstep mode")
        deadline = None if timeout is None else time.monotonic() + timeout
        with net._cv:
            while True:
                net._check_open()
                my_turn = not net.lockstep or net._turn == self.party_id
                if my_turn:
                    env = net._match(self.party_id, phase, from_)
                    if env is not None:
                        if round_ is not None and env.round != round_:
                            raise ProtocolDesync(
                                f"party {self.party_id} expected round {round_} "
                                f"from {env.sender}, got {env.round}"
                            )
                        net._pop(self.party_id, env)
                        net._record(self.party_id, "recv", env)
                        net.metrics.tick_message(self.party_id, env.phase)
                        if net.lockstep:
                            net._advance(self.party_id)
                        net._cv.notify_all()
                        return env
                    if net.lockstep:
                        net._status[self.party_id] = _WAITING
                        net._predicates[self.party_id] = (phase, from_)
                        net._advance(self.party_id)
                        net._cv.notify_all()
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ReceiveTimeout(
                            f"party {self.party_id} timed out waiting for {phase.name}"
                        )
                    net._cv.wait(remaining)
                else:
                    net._cv.wait()

    def finish(self) -> None:
        """Mark this participant done so lockstep scheduling skips it."""
        net = self.network
        with net._cv:
            net._status[self.party_id] = _DONE
            net._predicates.pop(self.party_id, None)
            if net.lockstep and net._turn == self.party_id:
                net._advance(self.party_id)
            net._cv.notify_all()

    def _await_turn(self, net: InMemoryNetwork) -> None:
        net._check_open()
        if not net.lockstep:
            return
        while net._turn != self.party_id:
            net._cv.wait()
            net._check_open()

    def _yield_turn(self, net: InMemoryNetwork) -> None:
        if net.lockstep:
            net._advance(self.party_id)
        net._cv.notify_all()
