"""Batched 1-out-of-m oblivious transfer realized by an ideal mediator.

The mediator is a separate participant on the shared transport: the
sender hands it the full message vectors, the receiver hands it one
choice index per transfer, and it returns exactly the chosen messages.
Privacy holds by isolation - nothing derived from a choice ever reaches
the sender and no unchosen message ever reaches the receiver - rather
than by cryptographic hardness, which keeps protocol logic and
accounting testable on their own.  The three-call surface (init, send,
choose) is narrow enough to swap in a computational instantiation later.

A session is a batch of `count` transfers with contiguous session ids
and round tags, and it travels as one LOAD (sender to mediator), one
CHOOSE (receiver to mediator) and one RESULT (mediator to receiver); a
single transfer is a batch of one.  Every request carries the batch's
first session id, count and arity, and the envelope carries its first
round tag.  The mediator pairs a LOAD with the CHOOSE of the same first
id and faults the receiver unless the two agree on all four, which is
the per-transfer id and round check applied to the whole block.

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

# kind, first session id, count, arity; the first round tag rides in the
# envelope header
_HEADER = struct.Struct(">BQIH")

_MAX_PARTY = (1 << 12) - 1
_COUNTER_BITS = 36


class OtState(Enum):
    INITIALIZED = "initialized"
    LOADED = "loaded"
    DELIVERED = "delivered"


def _pack_session_id(sender: int, receiver: int, phase: Phase, counter: int) -> int:
    return (
        (sender << (12 + 4 + _COUNTER_BITS))
        | (receiver << (4 + _COUNTER_BITS))
        | (int(phase) << _COUNTER_BITS)
        | counter
    )


def batch_capacity(arity: int, value_bits: int) -> int:
    """Most transfers (at least one) a LOAD can carry without exceeding
    MAX_PAYLOAD when every message is below 2**value_bits."""
    per_transfer = arity * encoded_natural_size(value_bits)
    return max(1, (MAX_PAYLOAD - _HEADER.size) // per_transfer)


class OtContext:
    """Per-party OT bookkeeping bound to one transport endpoint.

    Session ids are counters namespaced by (sender, receiver, phase);
    both endpoints of a session derive the same ids independently because
    they open batches of the same sizes in the same protocol order.
    """

    def __init__(self, endpoint):
        self.endpoint = endpoint
        self.party = endpoint.party_id
        self._session_counters: dict[tuple[int, int, Phase], int] = {}
        self._product_counters: dict[tuple[int, int, Phase], int] = {}

    def _reserve_sessions(
        self, sender: int, receiver: int, phase: Phase, count: int
    ) -> int:
        """Reserve `count` consecutive session counters; returns the first."""
        key = (sender, receiver, phase)
        counter = self._session_counters.get(key, 0)
        if counter + count > 1 << _COUNTER_BITS:
            raise ParameterError("session counter exhausted")
        self._session_counters[key] = counter + count
        return counter

    def next_product_tag(self, a_holder: int, b_holder: int, phase: Phase) -> int:
        """Round-tag namespace for one bitwise product.

        The low 14 bits of a transfer's round tag carry the bit index, the
        rest this per-(pair, phase) product counter, so concurrent and
        successive products never collide within the 32-bit round field.
        """
        key = (a_holder, b_holder, phase)
        counter = self._product_counters.get(key, 0)
        if counter >= 1 << 18:
            raise ParameterError("product counter exhausted")
        self._product_counters[key] = counter + 1
        return counter << 14


@dataclass(slots=True)
class OtSession:
    """One endpoint's view of a batch of `count` transfers.

    Transfer e of the batch has session id `id + e` and round tag
    `round + e`.
    """

    id: int
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
    round_: int = 0,
    count: int = 1,
) -> OtSession:
    """Open a batch of `count` transfers; ticks the calling party's init
    counter once per transfer.

    Both endpoints call this with identical arguments, so each logical
    initialization ticks each party's counter exactly once.
    """
    if sender == receiver:
        raise ParameterError("sender and receiver must differ")
    if arity < 2 or arity > 0xFFFF:
        raise ParameterError(f"arity must be in [2, 65535], got {arity}")
    if count < 1 or round_ + count > 1 << 32:
        raise ParameterError(f"batch of {count} at round {round_} does not fit")
    if not (1 <= sender <= _MAX_PARTY and 1 <= receiver <= _MAX_PARTY):
        raise ParameterError("party ids must fit the session-id namespace")
    if ctx.party not in (sender, receiver):
        raise RoleError(f"party {ctx.party} is neither endpoint of this session")
    counter = ctx._reserve_sessions(sender, receiver, phase, count)
    ctx.endpoint.metrics.tick_ot_init(ctx.party, phase, count)
    return OtSession(
        id=_pack_session_id(sender, receiver, phase, counter),
        count=count,
        arity=arity,
        sender=sender,
        receiver=receiver,
        phase=phase,
        round=round_,
        ctx=ctx,
    )


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
    payload = _HEADER.pack(_LOAD, session.id, session.count, session.arity) + (
        encode_naturals(m for messages in vectors for m in messages)
    )
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
        _CHOOSE, session.id, session.count, session.arity
    ) + struct.pack(f">{session.count}H", *choices)
    ctx.endpoint.send(
        Envelope(ctx.party, MEDIATOR, Phase.OT_CONTROL, session.round, payload)
    )
    ctx.endpoint.metrics.tick_message(ctx.party, session.phase, session.count)
    reply = ctx.endpoint.receive(Phase.OT_CONTROL, from_=MEDIATOR, round_=session.round)
    kind, sid, count, _arity = _unpack_header(reply.payload)
    if sid != session.id:
        raise ProtocolDesync(
            f"mediator answered session {sid:#x}, expected {session.id:#x}"
        )
    if kind == _FAULT:
        raise ProtocolDesync("mediator rejected the session; peers are out of step")
    if kind != _RESULT or count != session.count:
        raise MalformedMessage(f"unexpected mediator reply kind {kind}, count {count}")
    values, end = decode_naturals(reply.payload, count, _HEADER.size)
    if end != len(reply.payload):
        raise MalformedMessage("trailing bytes after the chosen messages")
    session.state = OtState.DELIVERED
    return values


def _unpack_header(payload: bytes) -> tuple[int, int, int, int]:
    if len(payload) < _HEADER.size:
        raise MalformedMessage(f"OT payload of {len(payload)} bytes has no header")
    return _HEADER.unpack_from(payload)


@dataclass(slots=True)
class _Request:
    """A LOAD or CHOOSE waiting at the mediator for its counterpart."""

    round: int
    count: int
    arity: int
    party: int
    items: list[int]  # flat messages of a LOAD, choices of a CHOOSE


def _decode_request(env: Envelope) -> tuple[int, int, _Request]:
    """Return (kind, first session id, request); raises MalformedMessage
    for a request whose payload does not match its header."""
    kind, sid, count, arity = _unpack_header(env.payload)
    body = len(env.payload) - _HEADER.size
    if kind == _LOAD:
        if body < count * arity * encoded_natural_size(0):
            raise MalformedMessage(f"load for {count} transfers is truncated")
        items, end = decode_naturals(env.payload, count * arity, _HEADER.size)
        if end != len(env.payload):
            raise MalformedMessage("trailing bytes after the loaded messages")
    elif kind == _CHOOSE:
        if body != 2 * count:
            raise MalformedMessage(f"choose for {count} transfers carries {body} bytes")
        items = list(struct.unpack_from(f">{count}H", env.payload, _HEADER.size))
    else:
        raise MalformedMessage(f"unexpected mediator request kind {kind}")
    return kind, sid, _Request(env.round, count, arity, env.sender, items)


def run_mediator(endpoint) -> None:
    """Serve OT batches until the transport closes.

    Loads and chooses rendezvous here, keyed by the batch's first session
    id; whichever arrives first waits for the other.  A load and a choose
    that disagree on the first round tag, the count or the arity mean the
    endpoints disagree about the protocol position, and the receiver gets
    a fault instead of values.
    """
    waiting: dict[int, dict[int, _Request]] = {_LOAD: {}, _CHOOSE: {}}
    while True:
        try:
            env = endpoint.receive(Phase.OT_CONTROL)
        except ChannelClosed:
            return
        kind, sid, request = _decode_request(env)
        if sid in waiting[kind]:
            raise MalformedMessage(f"duplicate request for session {sid:#x}")
        other = waiting[_CHOOSE if kind == _LOAD else _LOAD].pop(sid, None)
        if other is None:
            waiting[kind][sid] = request
        elif kind == _LOAD:
            _answer(endpoint, sid, request, other)
        else:
            _answer(endpoint, sid, other, request)


def _answer(endpoint, sid: int, load: _Request, choose: _Request) -> None:
    arity = load.arity
    agree = (load.round, load.count, arity) == (choose.round, choose.count, choose.arity)
    if agree and all(1 <= c <= arity for c in choose.items):
        messages = load.items
        chosen = [messages[e * arity + c - 1] for e, c in enumerate(choose.items)]
        payload = _HEADER.pack(_RESULT, sid, choose.count, arity) + encode_naturals(
            chosen
        )
    else:
        payload = _HEADER.pack(_FAULT, sid, choose.count, choose.arity)
    endpoint.send(
        Envelope(MEDIATOR, choose.party, Phase.OT_CONTROL, choose.round, payload)
    )
