"""Batched 1-out-of-m oblivious transfer realized by an ideal mediator.

The mediator is a separate participant on the shared transport: the
sender hands it the full message vectors, the receiver hands it one
choice index per transfer, and it returns exactly the chosen messages.
Privacy holds by isolation - nothing derived from a choice ever reaches
the sender and no unchosen message ever reaches the receiver - rather
than by cryptographic hardness, which keeps protocol logic and
accounting testable on their own.  The three-call surface (init, send,
choose) is narrow enough to swap in a computational instantiation later.

A channel is an ordered (sender, receiver, phase) triple, and one
counter per channel numbers its transfers: a batch of `count` transfers
takes the next `count` values as its round tags.  A batch travels as one
LOAD (sender to mediator), one CHOOSE (receiver to mediator) and one
RESULT (mediator to receiver); a single transfer is a batch of one.
Every request names the other endpoint, the phase, the count and the
arity, and its envelope carries the batch's first round tag.  The
mediator pairs the LOAD and the CHOOSE of the same channel and first
round, and faults the receiver unless they agree on count and arity.

Mediator traffic is tagged OT_CONTROL and excluded from the phase
communication counters.  Each logical transfer instead contributes
exactly one communication per endpoint (its load and its choose) in the
phase the batch was opened for, plus one initialization tick per
endpoint; a batch ticks each counter once by its size.
"""

import struct
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    ArityError,
    ChannelClosed,
    MalformedMessage,
    OtStateError,
    ParameterError,
    ProtocolDesync,
    RoleError,
)
from .wire import (
    MAX_PAYLOAD,
    MEDIATOR,
    Envelope,
    Phase,
    decode_naturals,
    encode_naturals,
    encoded_natural_size,
)

_LOAD = 1
_CHOOSE = 2
_RESULT = 3
_FAULT = 4

# kind, other endpoint, phase, count, arity; the first round tag rides in
# the envelope header.  RESULT and FAULT name the batch's sender.
_HEADER = struct.Struct(">BHBIH")


class OtState(Enum):
    INITIALIZED = "initialized"
    LOADED = "loaded"
    DELIVERED = "delivered"


def batch_capacity(arity: int, value_bits: int) -> int:
    """Most transfers (at least one) a LOAD can carry without exceeding
    MAX_PAYLOAD when every message is below 2**value_bits."""
    per_transfer = arity * encoded_natural_size(value_bits)
    return max(1, (MAX_PAYLOAD - _HEADER.size) // per_transfer)


class OtContext:
    """Per-party OT bookkeeping bound to one transport endpoint.

    Holds the round counter of every (sender, receiver, phase) channel
    this party is an endpoint of.  Both endpoints derive the same round
    tags independently because they open batches of the same sizes in
    the same protocol order; the 32-bit round field caps a channel at
    2**32 transfers per run.
    """

    def __init__(self, endpoint):
        self.endpoint = endpoint
        self.party = endpoint.party_id
        self._rounds: dict[tuple[int, int, Phase], int] = {}


@dataclass(slots=True)
class OtSession:
    """One endpoint's view of a batch of `count` transfers; transfer e
    has round tag `round + e`."""

    count: int
    arity: int
    sender: int
    receiver: int
    phase: Phase
    round: int
    ctx: OtContext = field(repr=False)
    state: OtState = OtState.INITIALIZED


def ot_init(
    ctx: OtContext,
    sender: int,
    receiver: int,
    arity: int,
    phase: Phase,
    count: int = 1,
) -> OtSession:
    """Open a batch of `count` transfers on the next round tags of its
    channel; ticks the calling party's init counter once per transfer.

    Both endpoints call this with identical arguments, so each logical
    initialization ticks each party's counter exactly once.
    """
    if sender == receiver:
        raise ParameterError("sender and receiver must differ")
    if arity < 2 or arity > 0xFFFF:
        raise ParameterError(f"arity must be in [2, 65535], got {arity}")
    if ctx.party not in (sender, receiver):
        raise RoleError(f"party {ctx.party} is neither endpoint of this session")
    channel = (sender, receiver, phase)
    first = ctx._rounds.get(channel, 0)
    if not 0 < count < 1 << 32 or first + count > 1 << 32:
        raise ParameterError(f"batch of {count} at round {first} does not fit")
    ctx._rounds[channel] = first + count
    ctx.endpoint.metrics.tick_ot_init(ctx.party, phase, count)
    return OtSession(count, arity, sender, receiver, phase, first, ctx)


def ot_send(session: OtSession, vectors: list[list[int]]) -> None:
    """Load one message vector per transfer into the mediator."""
    ctx = session.ctx
    if ctx.party != session.sender:
        raise RoleError(f"party {ctx.party} is not the sender of this session")
    if session.state is not OtState.INITIALIZED:
        raise OtStateError(f"cannot load messages in state {session.state.value}")
    if len(vectors) != session.count:
        raise ParameterError(f"expected {session.count} vectors, got {len(vectors)}")
    if any(len(messages) != session.arity for messages in vectors):
        raise ArityError(f"every vector needs {session.arity} messages")
    payload = _HEADER.pack(
        _LOAD, session.receiver, session.phase, session.count, session.arity
    ) + encode_naturals(m for messages in vectors for m in messages)
    ctx.endpoint.send(
        Envelope(ctx.party, MEDIATOR, Phase.OT_CONTROL, session.round, payload)
    )
    session.state = OtState.LOADED
    ctx.endpoint.metrics.tick_message(ctx.party, session.phase, session.count)


def ot_choose(session: OtSession, choices: list[int]) -> list[int]:
    """Retrieve message number `choices[e]` (1-based) of every transfer e;
    one-shot per session."""
    ctx = session.ctx
    if ctx.party != session.receiver:
        raise RoleError(f"party {ctx.party} is not the receiver of this session")
    if session.state is OtState.DELIVERED:
        raise OtStateError("session already delivered")
    if len(choices) != session.count:
        raise ParameterError(f"expected {session.count} choices, got {len(choices)}")
    if min(choices) < 1 or max(choices) > session.arity:
        raise ParameterError(f"choice outside [1, {session.arity}]")
    payload = _HEADER.pack(
        _CHOOSE, session.sender, session.phase, session.count, session.arity
    ) + struct.pack(f">{session.count}H", *choices)
    ctx.endpoint.send(
        Envelope(ctx.party, MEDIATOR, Phase.OT_CONTROL, session.round, payload)
    )
    ctx.endpoint.metrics.tick_message(ctx.party, session.phase, session.count)
    reply = ctx.endpoint.receive(Phase.OT_CONTROL, from_=MEDIATOR, round_=session.round)
    kind, sender, phase, count, _arity = _unpack_header(reply.payload)
    if (sender, phase) != (session.sender, session.phase):
        raise ProtocolDesync(f"mediator answered for party {sender}, phase {phase}")
    if kind == _FAULT:
        raise ProtocolDesync("mediator rejected the session; peers are out of step")
    if kind != _RESULT or count != session.count:
        raise MalformedMessage(f"unexpected mediator reply kind {kind}, count {count}")
    values, end = decode_naturals(reply.payload, count, _HEADER.size)
    if end != len(reply.payload):
        raise MalformedMessage("trailing bytes after the chosen messages")
    session.state = OtState.DELIVERED
    return values


def _unpack_header(payload: bytes) -> tuple[int, int, int, int, int]:
    if len(payload) < _HEADER.size:
        raise MalformedMessage(f"OT payload of {len(payload)} bytes has no header")
    return _HEADER.unpack_from(payload)


@dataclass(slots=True)
class _Request:
    """A LOAD or CHOOSE waiting at the mediator for its counterpart."""

    count: int
    arity: int
    items: list[int]  # flat messages of a LOAD, choices of a CHOOSE


def _decode_request(env: Envelope) -> tuple[int, tuple[int, int, int, int], _Request]:
    """Return (kind, (sender, receiver, phase, first round), request);
    raises MalformedMessage for a request whose payload does not match
    its header."""
    kind, other, phase, count, arity = _unpack_header(env.payload)
    body = len(env.payload) - _HEADER.size
    if kind == _LOAD:
        if body < count * arity * encoded_natural_size(0):
            raise MalformedMessage(f"load for {count} transfers is truncated")
        items, end = decode_naturals(env.payload, count * arity, _HEADER.size)
        if end != len(env.payload):
            raise MalformedMessage("trailing bytes after the loaded messages")
        key = (env.sender, other, phase, env.round)
    elif kind == _CHOOSE:
        if body != 2 * count:
            raise MalformedMessage(f"choose for {count} transfers carries {body} bytes")
        items = list(struct.unpack_from(f">{count}H", env.payload, _HEADER.size))
        key = (other, env.sender, phase, env.round)
    else:
        raise MalformedMessage(f"unexpected mediator request kind {kind}")
    return kind, key, _Request(count, arity, items)


def run_mediator(endpoint) -> None:
    """Serve OT batches until the transport closes.

    A LOAD and a CHOOSE rendezvous here, keyed by (sender, receiver,
    phase, first round); whichever arrives first waits for the other.  A
    pair that disagrees on the count or the arity means the endpoints
    disagree about the protocol position, and the receiver gets a fault
    instead of values.
    """
    waiting: dict[int, dict[tuple, _Request]] = {_LOAD: {}, _CHOOSE: {}}
    while True:
        try:
            env = endpoint.receive(Phase.OT_CONTROL)
        except ChannelClosed:
            return
        kind, key, request = _decode_request(env)
        if key in waiting[kind]:
            raise MalformedMessage(f"duplicate request for batch {key}")
        other = waiting[_CHOOSE if kind == _LOAD else _LOAD].pop(key, None)
        if other is None:
            waiting[kind][key] = request
        elif kind == _LOAD:
            _answer(endpoint, key, request, other)
        else:
            _answer(endpoint, key, other, request)


def _answer(endpoint, key: tuple, load: _Request, choose: _Request) -> None:
    sender, receiver, phase, round_ = key
    arity = load.arity
    if (load.count, arity) == (choose.count, choose.arity) and all(
        1 <= c <= arity for c in choose.items
    ):
        messages = load.items
        chosen = [messages[e * arity + c - 1] for e, c in enumerate(choose.items)]
        payload = _HEADER.pack(_RESULT, sender, phase, choose.count, arity) + (
            encode_naturals(chosen)
        )
    else:
        payload = _HEADER.pack(_FAULT, sender, phase, choose.count, choose.arity)
    endpoint.send(Envelope(MEDIATOR, receiver, Phase.OT_CONTROL, round_, payload))
