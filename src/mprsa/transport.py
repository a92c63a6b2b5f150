"""In-process message transport: reliable, per-pair FIFO, with accounting.

Every party (and the OT mediator) owns an inbox.  Receives are selective:
the caller names the phase it is waiting for and optionally the sender,
so messages from other phases or peers stay queued instead of being
dropped.  Delivery is exactly-once and FIFO per (sender, destination)
pair.  The selective-receive and outgoing-envelope checks are plain
functions shared with the socket backend.

The paper's parties run concurrently; here `run_parties` runs one
callable per participant on its own thread, and a scheduler lets one act
at a time: the one that holds the turn.  A network is live only inside
`run_parties`, which finishes every participant without a callable and
gives the first turn to the first one left in ring order; a participant
finishes when its callable returns, and the last party to finish closes
the network, which ends the mediator.  Before and after, sends and
receives raise ChannelClosed.  Sends never give the turn away.

Every wait is parked steps (see `InMemoryEndpoint.run`): a generator
that yields each receive it needs, of which a plain `receive` is the
one-receive case.  Steps that wait on a receive nothing matches are
parked with that receive as their pending one, and the turn passes to
the first participant that is not blocked or whose pending receive can
now be served, scanning the ring downward from the actor (actor-1, ...,
1, the mediator, n, ..., actor+1); so does a participant that finishes.
The order is downward because in every trial-division turn the senders
have the higher ids and the root is party 1: senders run before their
receivers, so each party blocks about once per tree test.  When the scan
picks a participant with parked steps, the thread that holds the turn
runs them inline, with the turn set to their owner and the network lock
kept: it serves each receive in place with one `take_match`, and the
steps' sends skip the lock it already holds.  It then scans on from
that owner.  Runs are reproducible down to the global event order,
and a state where no participant can take the turn while one is blocked
raises DeadlockError naming every pending receive instead of hanging.

The turn comes to rest at a participant whose thread must act itself:
one that has not reached its first `run`, or whose steps have ended.
Every participant owns a plain lock, its baton, that it blocks on,
outside the network lock, while another holds the turn, and giving it
the turn releases that lock.  So an owner is woken once per `run` that
waits, a plain receive included, however many receives its steps wait
on.  A participant given the turn before it parked finds its baton
already released; it takes it without blocking, sees the turn is its
own and runs, so a stale release costs one extra check and never a lost
wake-up.  An error in parked steps, and a deadlock or close that stops
them, is raised from their owner's `run`.  A `close()` from another
thread marks the network closed before it waits for the lock, so steps
run inline stop at their next send or hand-over.

Steps are resumed about once per party per tree test, some ten thousand
times in an n=8 keygen, so `_drive` and `_next_runnable` load the
inbox, counters, transcript and scan state into locals once per call
rather than once per receive or per candidate; each attribute lookup
they save costs tens of nanoseconds on CPython 3.11.
"""

import threading
import time
from collections import deque
from collections.abc import Generator

from .errors import (
    AddressError,
    ChannelClosed,
    DeadlockError,
    ParameterError,
    PayloadTooLarge,
    ProtocolDesync,
)
from .metrics import PhaseMetrics
from .wire import BROADCAST, MAX_PAYLOAD, MEDIATOR, Envelope, Phase

# The most parties one in-memory network holds: it builds an (n + 1) * n
# scan table and runs n + 1 threads, and during a product of sums its
# mediator holds all n(n - 1) LOADs at once.  128 is the largest n run
# to a verified modulus in memory.
MAX_MEMORY_PARTIES = 128


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
    for index, env in enumerate(inbox):
        if env.phase == phase and (from_ is None or env.sender == from_):
            break
    else:
        return None
    if round_ is not None and env.round != round_:
        raise ProtocolDesync(
            f"party {party_id} expected round {round_} "
            f"from {env.sender}, got {env.round}"
        )
    del inbox[index]
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
        if not 2 <= parties <= MAX_MEMORY_PARTIES:
            raise ParameterError(
                f"an in-memory network holds 2 to {MAX_MEMORY_PARTIES} parties, got {parties}"
            )
        self.metrics = PhaseMetrics()
        self._lock = threading.Lock()
        self._ring = list(range(1, parties + 1)) + [MEDIATOR]
        size = len(self._ring)
        self._scan = {
            pid: tuple(self._ring[(i - step) % size] for step in range(1, size))
            for i, pid in enumerate(self._ring)
        }
        # a baton is held from its owner's last acquire until the next
        # _give_turn or _close releases it
        self._baton = {pid: threading.Lock() for pid in self._ring}
        for baton in self._baton.values():
            baton.acquire()
        self._queues: dict[int, deque[Envelope]] = {pid: deque() for pid in self._ring}
        # the pending receive of each participant's parked steps
        self._blocked: dict[int, tuple[Phase, int | None, int | None]] = {}
        # parked steps, and the value or error of steps that ended, by owner
        self._steps: dict[int, Generator] = {}
        self._outcome: dict[int, tuple[bool, object]] = {}
        # the owner of the steps being run inline, with the lock held
        self._inline: int | None = None
        self._done: set[int] = set()
        self._turn: int | None = None
        self._closed = False
        self._deadlock: str | None = None
        self._transcripts: dict[int, list[tuple[str, Envelope]]] | None = (
            {pid: [] for pid in self._ring} if record_transcripts else None
        )

    @property
    def party_ids(self) -> list[int]:
        return self._ring[:-1]

    def endpoint(self, party_id: int) -> "InMemoryEndpoint":
        """The handle of one participant."""
        if party_id not in self._queues:
            raise AddressError(f"no such participant: {party_id}")
        return InMemoryEndpoint(self, party_id)

    def close(self) -> None:
        # marked before the lock is taken: steps run inline hold it, and
        # see the mark at their next send or hand-over
        self._closed = True
        with self._lock:
            self._close()

    def transcript(self, party_id: int) -> list[tuple[str, Envelope]]:
        """`party_id`'s ("send" or "recv", envelope) events, in order."""
        if self._transcripts is None:
            raise ParameterError("network was created without transcript recording")
        if party_id not in self._transcripts:
            raise AddressError(f"no such participant: {party_id}")
        with self._lock:
            return list(self._transcripts[party_id])

    def _start(self) -> int | None:
        """Give the first turn to the first unfinished participant in ring order."""
        with self._lock:
            self._turn = next((p for p in self._ring if p not in self._done), None)
            return self._turn

    def _finish(self, pid: int) -> None:
        """Mark `pid` done so the turn skips it from now on; the last party
        to finish closes the network."""
        with self._lock:
            self._done.add(pid)
            self._blocked.pop(pid, None)
            if self._done.issuperset(self.party_ids):
                self._close()
            elif self._turn == pid:
                self._pass_turn(pid)

    # -- internals, all called with self._lock held --

    def _raise_if_stopped(self) -> None:
        if self._deadlock is not None:
            raise DeadlockError(self._deadlock)
        if self._closed or self._turn is None:
            raise ChannelClosed("network is not running")

    def _await_turn(self, pid: int) -> None:
        """Return once `pid` holds the turn and has no parked steps (it
        has not run any, or they ended); raise if the network is not
        running.  Until then, wait on `pid`'s baton with the network lock
        dropped, then check again: the baton may have been released for
        an earlier turn, and the turn is `pid`'s also while another
        thread runs its parked steps."""
        baton = self._baton[pid]
        while True:
            self._raise_if_stopped()
            if self._turn == pid and pid not in self._steps:
                return
            self._lock.release()
            try:
                baton.acquire()
            finally:
                self._lock.acquire()

    def _give_turn(self, pid: int) -> None:
        """Make `pid` the turn holder and wake it if it is parked."""
        self._turn = pid
        baton = self._baton[pid]
        if baton.locked():
            baton.release()

    def _next_runnable(self, actor: int) -> int | None:
        """The first participant below `actor` in the ring, wrapping round,
        that is neither finished nor waiting on a receive nothing matches."""
        done, blocked, queues = self._done, self._blocked, self._queues
        for cand in self._scan[actor]:
            if cand in done:
                continue
            pending = blocked.get(cand)
            if pending is None or first_match(queues[cand], pending[0], pending[1]):
                return cand
        return None

    def _pass_turn(self, host: int) -> None:
        """Hand the turn on from `host`, on its own thread.

        Parked steps that the next runnable participant owns run inline
        on this thread, after which the scan goes on from it; the turn
        comes to rest at a participant that has no parked steps, because
        it has not reached its first `run` or its steps have ended, and
        its baton is released unless it is `host`.
        """
        actor = host
        while not self._closed:
            cand = self._next_runnable(actor)
            if cand is None:
                self._turn = None
                if self._blocked:
                    self._deadlock = "deadlock: " + _stuck_report(self._blocked)
                    self._close()
                return
            request = self._blocked.pop(cand, None)
            self._turn = cand
            if cand in self._steps and not self._drive(cand, request):
                actor = cand
                continue
            if cand != host:
                self._give_turn(cand)
            return

    def _drive(self, pid: int, request) -> bool:
        """Run `pid`'s parked steps on this thread, which holds the turn
        for `pid` and keeps the network lock, serving `request` first: a
        receive that matches, or None to start them.  Returns False once
        they park on a receive nothing matches, and True once they end,
        with their value or error kept for the owner's run."""
        steps = self._steps[pid]
        inbox, metrics = self._queues[pid], self.metrics
        transcript = None if self._transcripts is None else self._transcripts[pid]
        self._inline = pid
        try:
            while True:
                env = None
                if request is not None:
                    env = take_match(inbox, metrics, pid, *request)
                    if env is None:
                        self._blocked[pid] = request
                        return False
                    if transcript is not None:
                        transcript.append(("recv", env))
                request = steps.send(env)
        except StopIteration as stop:
            outcome = (True, stop.value)
        except BaseException as exc:  # noqa: BLE001 - raised by the owner
            outcome = (False, exc)
        finally:
            self._inline = None
        del self._steps[pid]
        self._outcome[pid] = outcome
        return True

    def _close(self) -> None:
        """Stop the network and release every parked participant's baton."""
        self._closed = True
        for baton in self._baton.values():
            if baton.locked():
                baton.release()


class InMemoryEndpoint:
    """One participant's handle on an InMemoryNetwork.

    The per-message calls take the network lock with acquire and release
    rather than a `with` block, which costs about 0.2 us more a call on
    CPython 3.11.
    """

    def __init__(self, network: InMemoryNetwork, party_id: int):
        self.network = network
        self.party_id = party_id
        self._others = tuple(p for p in network.party_ids if p != party_id)

    @property
    def metrics(self) -> PhaseMetrics:
        return self.network.metrics

    @property
    def peers(self) -> list[int]:
        """The other parties' ids in ascending order, without the mediator."""
        return list(self._others)

    def send(self, env: Envelope) -> None:
        """Deliver a point-to-point envelope; counts one communication
        for the sender now and one for the destination at delivery."""
        check_outgoing(self.party_id, env, broadcast=False)
        if env.to not in self.network._queues:
            raise AddressError(f"unknown destination: {env.to}")
        self._deliver(env, (env.to,), self.network.metrics.tick_message)

    def broadcast(self, env: Envelope) -> None:
        """Deliver to all other parties; one communication for the sender."""
        check_outgoing(self.party_id, env, broadcast=True)
        self._deliver(env, self._others, self.network.metrics.tick_broadcast)

    def _deliver(self, env: Envelope, to, tick) -> None:
        """Queue `env` for each of `to` and `tick` the sender once.  Sends
        of steps run inline come with the lock their driver holds."""
        net = self.network
        pid = self.party_id
        held = net._inline == pid
        if not held:
            net._lock.acquire()
        try:
            if net._turn != pid or net._closed:
                net._await_turn(pid)
            for dest in to:
                net._queues[dest].append(env)
            if net._transcripts is not None:
                net._transcripts[pid].append(("send", env))
            tick(pid, env.phase)
        finally:
            if not held:
                net._lock.release()

    def receive(
        self, phase: Phase, from_: int | None = None, round_: int | None = None
    ) -> Envelope:
        """Block until an envelope of `phase` (optionally from `from_`)
        is available; other messages stay queued.

        When `round_` is given, the first matching envelope must carry
        that round tag or the peers have desynchronized.  It is a `run`
        of one receive: a receive nothing matches parks, and the thread
        is woken once, when a match has been taken for it.
        """
        return self.run(_receive_one((phase, from_, round_)))

    def run(self, steps: Generator):
        """Run steps to their end and return their value.

        `steps` is a generator that yields each receive it needs as
        (phase, from_, round_) and is sent the envelope; its sends go
        straight to this endpoint.  Steps that wait on a receive nothing
        matches are parked, not blocked on: whichever thread holds the
        turn when the downward scan reaches this party runs them on,
        inline, so a party's thread is woken only when its steps end.
        An error in the steps is raised here, on the owner's thread.
        Steps run with the network lock held, so they must not call
        `receive` or `run`.
        """
        net = self.network
        pid = self.party_id
        with net._lock:
            net._raise_if_stopped()
            net._steps[pid] = steps
            try:
                if net._turn == pid and not net._drive(pid, None):
                    net._pass_turn(pid)
                net._await_turn(pid)
            finally:
                net._steps.pop(pid, None)
            ok, value = net._outcome.pop(pid)
        if ok:
            return value
        raise value


def _receive_one(request):
    """Steps that make one receive and return its envelope."""
    return (yield request)


def run_blocking(endpoint, steps: Generator):
    """Run steps to their end with one blocking `endpoint.receive` for
    each (phase, from_, round_) they yield, on the caller's thread, and
    return their value.  On the in-memory network each receive that
    nothing matches hands the turn on and waits for a wake, where
    `InMemoryEndpoint.run` would park the steps instead."""
    try:
        request = next(steps)
        while True:
            request = steps.send(endpoint.receive(*request))
    except StopIteration as stop:
        return stop.value


def run_parties(network: InMemoryNetwork, fns: dict, *, timeout: float = 900.0) -> dict:
    """Run one callable per participant in the network's live window,
    each on its own thread and given its endpoint, and return
    {party: return value}; steps that a callable returns are run through
    `endpoint.run`.  Waits for every thread, closes the network and
    raises TimeoutError when one outlives `timeout`, and otherwise
    propagates the first failure.
    """
    endpoints = {pid: network.endpoint(pid) for pid in fns}
    results: dict = {}
    errors: list[BaseException] = []
    lock = threading.Lock()

    def wrap(pid, fn, endpoint):
        try:
            value = fn(endpoint)
            if isinstance(value, Generator):
                value = endpoint.run(value)
            with lock:
                results[pid] = value
        except BaseException as exc:  # noqa: BLE001 - reraised below
            with lock:
                errors.append(exc)
            network.close()
        finally:
            network._finish(pid)

    for pid in network._ring:
        if pid not in fns:
            network._finish(pid)
    first = network._start()
    # started in the order the first turn's scan reaches them, so that
    # they park their steps before it comes and it runs them without a wake
    order = () if first is None else network._scan[first] + (first,)
    threads = [
        threading.Thread(
            target=wrap,
            args=(pid, fns[pid], endpoints[pid]),
            name="ot-mediator" if pid == MEDIATOR else f"party-{pid}",
            daemon=True,
        )
        for pid in order
        if pid in fns
    ]
    for thread in threads:
        thread.start()

    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(deadline - time.monotonic(), 0.0))
    if any(thread.is_alive() for thread in threads):
        network.close()
        raise TimeoutError(f"protocol run exceeded {timeout} seconds")
    if errors:
        raise errors[0]
    results.pop(MEDIATOR, None)
    return results
