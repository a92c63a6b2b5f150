"""In-process message transport: reliable, per-pair FIFO, with accounting.

Every party (and the OT mediator) owns an inbox.  Receives are selective:
the caller names the phase it is waiting for and optionally the sender,
so messages from other phases or peers stay queued instead of being
dropped.  Delivery is exactly-once and FIFO per (sender, destination)
pair.  The selective-receive and outgoing-envelope checks are plain
functions shared with the socket backend.

One scheduler runs every in-memory network.  A single turn, starting at
party 1, says which participant may touch the network; sends never give
it away.  A receive with nothing matching queued passes the turn, in ring
order (parties 1..n, then the mediator), to the next participant that is
not blocked or whose pending receive can now be served; so does a
participant that finishes.  Runs are therefore reproducible down to the
global event order, and a state where no participant can take the turn
while a party is blocked raises DeadlockError naming every pending
receive instead of hanging.
"""

import threading
from collections import deque

from .errors import (
    AddressError,
    ChannelClosed,
    DeadlockError,
    ParameterError,
    PayloadTooLarge,
    ProtocolDesync,
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


def check_outgoing(party_id: int, env: Envelope, *, broadcast: bool) -> None:
    """Reject an envelope that `party_id` may not send as addressed."""
    if env.sender != party_id:
        raise ParameterError(f"endpoint {party_id} cannot send as {env.sender}")
    if len(env.payload) > MAX_PAYLOAD:
        raise PayloadTooLarge(
            f"payload of {len(env.payload)} bytes exceeds {MAX_PAYLOAD}"
        )
    if broadcast:
        if env.to != BROADCAST:
            raise AddressError("broadcast envelope must be addressed to BROADCAST")
    elif env.to == BROADCAST:
        raise AddressError("point-to-point send addressed to broadcast")
    elif env.to == party_id:
        raise AddressError("cannot send to self")


def first_match(inbox: deque, phase: Phase, from_: int | None) -> Envelope | None:
    """The first queued envelope of `phase` (from `from_` if given)."""
    for env in inbox:
        if env.phase == phase and (from_ is None or env.sender == from_):
            return env
    return None


def take_match(
    inbox: deque,
    metrics: PhaseMetrics,
    party_id: int,
    phase: Phase,
    from_: int | None,
    round_: int | None,
) -> Envelope | None:
    """Remove and count the first envelope a selective receive asks for.

    When `round_` is given, the match must carry that round tag or the
    peers have desynchronized.  Returns None when nothing matches.
    """
    env = first_match(inbox, phase, from_)
    if env is None:
        return None
    if round_ is not None and env.round != round_:
        raise ProtocolDesync(
            f"party {party_id} expected round {round_} "
            f"from {env.sender}, got {env.round}"
        )
    inbox.remove(env)
    metrics.tick_message(party_id, env.phase)
    return env


def _stuck_report(blocked: dict) -> str:
    """One `party i waits on PHASE from j round r` clause per blocked
    participant; `any` stands for an unnamed sender or round."""
    clauses = []
    for pid, (phase, from_, round_) in sorted(blocked.items()):
        who = "mediator" if pid == MEDIATOR else f"party {pid}"
        peer = "any" if from_ is None else "mediator" if from_ == MEDIATOR else from_
        clauses.append(
            f"{who} waits on {phase.name} from {peer} "
            f"round {'any' if round_ is None else round_}"
        )
    return "; ".join(clauses)


class InMemoryNetwork:
    """Shared state for one simulated network of n parties plus the mediator."""

    def __init__(self, parties: int, *, record_transcripts: bool = False):
        if parties < 2:
            raise ParameterError(f"need at least 2 parties, got {parties}")
        self.metrics = PhaseMetrics()
        self._lock = threading.Lock()
        self._ring = list(range(1, parties + 1)) + [MEDIATOR]
        self._wake = {pid: threading.Condition(self._lock) for pid in self._ring}
        self._queues: dict[int, deque[Envelope]] = {pid: deque() for pid in self._ring}
        self._blocked: dict[int, tuple[Phase, int | None, int | None]] = {}
        self._done: set[int] = set()
        self._turn: int | None = self._ring[0]
        self._closed = False
        self._deadlock: str | None = None
        self._transcripts: dict[int, list[tuple[str, bytes]]] | None = (
            {pid: [] for pid in self._ring} if record_transcripts else None
        )

    @property
    def party_ids(self) -> list[int]:
        return self._ring[:-1]

    def endpoint(self, party_id: int) -> "InMemoryEndpoint":
        """The handle of one participant.

        It works only for a participant run by `protocol.run_parties`:
        the scheduler passes the turn only among those, so an endpoint
        used from any other thread can block forever on the turn, with no
        DeadlockError.
        """
        if party_id not in self._queues:
            raise AddressError(f"no such participant: {party_id}")
        return InMemoryEndpoint(self, party_id)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            for wake in self._wake.values():
                wake.notify_all()

    def transcript(self, party_id: int) -> list[tuple[str, bytes]]:
        if self._transcripts is None:
            raise ParameterError("network was created without transcript recording")
        with self._lock:
            return list(self._transcripts[party_id])

    # -- internals, all called with self._lock held --

    def _await_turn(self, pid: int) -> None:
        while True:
            if self._deadlock is not None:
                raise DeadlockError(self._deadlock)
            if self._closed:
                raise ChannelClosed("network closed")
            if self._turn == pid:
                return
            self._wake[pid].wait()

    def _pass_turn(self, actor: int) -> None:
        """Hand the turn to the next participant after `actor` that can run."""
        if self._closed:
            return
        idx = self._ring.index(actor)
        size = len(self._ring)
        for step in range(1, size):
            cand = self._ring[(idx + step) % size]
            if cand in self._done:
                continue
            pending = self._blocked.get(cand)
            if pending is None or first_match(self._queues[cand], *pending[:2]):
                self._blocked.pop(cand, None)
                self._turn = cand
                self._wake[cand].notify()
                return
        self._turn = None
        if any(pid in self._blocked for pid in self.party_ids):
            self._deadlock = "deadlock: " + _stuck_report(self._blocked)
            for wake in self._wake.values():
                wake.notify_all()

    def _record(self, party: int, direction: str, env: Envelope) -> None:
        if self._transcripts is not None:
            self._transcripts[party].append((direction, encode_envelope(env)))


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

    def send(self, env: Envelope) -> None:
        """Deliver a point-to-point envelope; counts one communication
        for the sender now and one for the destination at delivery."""
        check_outgoing(self.party_id, env, broadcast=False)
        net = self.network
        if env.to not in net._queues:
            raise AddressError(f"unknown destination: {env.to}")
        with net._lock:
            net._await_turn(self.party_id)
            net._queues[env.to].append(env)
            net._record(self.party_id, "send", env)
            net.metrics.tick_message(self.party_id, env.phase)

    def broadcast(self, env: Envelope) -> None:
        """Deliver to all other parties; one communication for the sender."""
        check_outgoing(self.party_id, env, broadcast=True)
        net = self.network
        with net._lock:
            net._await_turn(self.party_id)
            for peer in net.party_ids:
                if peer != self.party_id:
                    net._queues[peer].append(env)
            net._record(self.party_id, "send", env)
            net.metrics.tick_broadcast(self.party_id, env.phase)

    def receive(
        self, phase: Phase, from_: int | None = None, round_: int | None = None
    ) -> Envelope:
        """Block until an envelope of `phase` (optionally from `from_`)
        is available; other messages stay queued.

        When `round_` is given, the first matching envelope must carry
        that round tag or the peers have desynchronized.
        """
        net = self.network
        pid = self.party_id
        with net._lock:
            while True:
                net._await_turn(pid)
                env = take_match(net._queues[pid], net.metrics, pid, phase, from_, round_)
                if env is not None:
                    net._record(pid, "recv", env)
                    return env
                net._blocked[pid] = (phase, from_, round_)
                net._pass_turn(pid)

    def finish(self) -> None:
        """Mark this participant done so the turn skips it from now on."""
        net = self.network
        with net._lock:
            net._done.add(self.party_id)
            net._blocked.pop(self.party_id, None)
            if net._turn == self.party_id:
                net._pass_turn(self.party_id)
