"""Batched 1-out-of-2 oblivious transfer realized by an ideal mediator.

The mediator is a separate participant on the shared transport: the
sender hands it a pair (m0, m1) per transfer, the receiver hands it its
choice bits r as one integer (bit e picks transfer e's message), and it
returns exactly the chosen messages.  Privacy holds by isolation -
nothing derived from a choice ever reaches the sender and no unchosen
message ever reaches the receiver - rather than by cryptographic
hardness, which keeps protocol logic and accounting testable on their
own.  The three calls (init, send, choose) have the shape of IKNP OT
extension, so a computational instantiation can replace the mediator.

A channel is an ordered (sender, receiver, phase) triple, and one
counter per channel numbers its transfers: a batch of `count` transfers
takes the next `count` values as its round tags.  A batch travels as one
LOAD (sender to mediator), one CHOOSE (receiver to mediator) and one
RESULT (mediator to receiver); a single transfer is a batch of one.
Every request has a (kind, other endpoint, phase, count) header, and its
envelope carries the batch's first round tag.  A message travels as
width = ceil(value_bits / 8) little-endian bytes, for a public value_bits
both endpoints agree on.  A LOAD carries m0, m1 of every transfer in
2 * count * width bytes, a CHOOSE carries r in ceil(count / 8)
little-endian bytes, and a RESULT the chosen messages in count * width
bytes.  The mediator pairs the LOAD and the CHOOSE of the same channel
and first round, faults the receiver unless their counts agree, and
otherwise answers with byte slices of the LOAD: it never reads a number.

Mediator traffic is tagged OT_CONTROL and excluded from the phase
communication counters.  Each logical transfer instead contributes
exactly one communication per endpoint (its load and its choose) in the
phase the batch was opened for, plus one initialization tick per
endpoint; a batch ticks each counter once by its size.

`run_mediator` is a blocking call whose serving loop is steps for the
endpoint's `run`: it yields each request's receive and sends each
answer directly.  `ot_send` and `ot_choose` make blocking calls.
"""

import struct
from dataclasses import dataclass, field

from .errors import (
    ChannelClosed,
    MalformedMessage,
    OtStateError,
    ParameterError,
    ProtocolDesync,
    RoleError,
)
from .wire import MAX_PAYLOAD, MEDIATOR, Envelope, Phase

_LOAD = 1
_CHOOSE = 2
_RESULT = 3
_FAULT = 4

# kind, other endpoint, phase, count; the first round tag rides in the
# envelope header.  RESULT and FAULT name the batch's sender.
_HEADER = struct.Struct(">BHBI")


def batch_capacity(value_bits: int) -> int:
    """Most transfers (at least one) a LOAD can carry without exceeding
    MAX_PAYLOAD when every message is below 2**value_bits."""
    return max(1, (MAX_PAYLOAD - _HEADER.size) // (2 * _width(value_bits)))


def _width(value_bits: int) -> int:
    if value_bits < 1:
        raise ParameterError(f"messages need at least 1 bit, got {value_bits}")
    return (value_bits + 7) // 8


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
    """One endpoint's view of a batch of `count` transfers of messages
    below 2**value_bits, each `width` bytes on the wire; transfer e has
    round tag `round + e`.  `spent` is set once this endpoint's request
    is on its way, so a session is used at most once."""

    count: int
    sender: int
    receiver: int
    phase: Phase
    round: int
    value_bits: int
    width: int
    ctx: OtContext = field(repr=False)
    spent: bool = False


def ot_init(
    ctx: OtContext,
    sender: int,
    receiver: int,
    phase: Phase,
    value_bits: int,
    count: int = 1,
) -> OtSession:
    """Open a batch of `count` transfers of messages below 2**value_bits
    on the next round tags of its channel; ticks the calling party's init
    counter once per transfer.

    Both endpoints call this with identical arguments, so each logical
    initialization ticks each party's counter exactly once, and the
    width comes from the agreed value_bits, never from the messages.
    """
    if sender == receiver:
        raise ParameterError("sender and receiver must differ")
    width = _width(value_bits)
    if ctx.party not in (sender, receiver):
        raise RoleError(f"party {ctx.party} is neither endpoint of this session")
    channel = (sender, receiver, phase)
    first = ctx._rounds.get(channel, 0)
    if not 0 < count < 1 << 32 or first + count > 1 << 32:
        raise ParameterError(f"batch of {count} at round {first} does not fit")
    ctx._rounds[channel] = first + count
    ctx.endpoint.metrics.tick_ot_init(ctx.party, phase, count)
    return OtSession(count, sender, receiver, phase, first, value_bits, width, ctx)


def ot_send(session: OtSession, pairs: list[tuple[int, int]]) -> None:
    """Load one message pair (m0, m1) per transfer into the mediator."""
    ctx = session.ctx
    if ctx.party != session.sender:
        raise RoleError(f"party {ctx.party} is not the sender of this session")
    if session.spent:
        raise OtStateError("session already loaded")
    if len(pairs) != session.count:
        raise ParameterError(f"expected {session.count} pairs, got {len(pairs)}")
    try:
        flat = [m for m0, m1 in pairs for m in (m0, m1)]
    except ValueError:
        raise ParameterError("every transfer needs a pair (m0, m1)") from None
    bits, width = session.value_bits, session.width
    if min(flat) < 0 or max(flat) >> bits:
        raise ParameterError(f"a message lies outside [0, 2**{bits})")
    payload = _HEADER.pack(_LOAD, session.receiver, session.phase, session.count) + (
        b"".join([m.to_bytes(width, "little") for m in flat])
    )
    session.spent = True
    ctx.endpoint.send(
        Envelope(ctx.party, MEDIATOR, Phase.OT_CONTROL, session.round, payload)
    )
    ctx.endpoint.metrics.tick_message(ctx.party, session.phase, session.count)


def ot_choose(session: OtSession, choices: int) -> list[int]:
    """Retrieve message number `(choices >> e) & 1` of every transfer e;
    one-shot per session, even when the mediator faults it."""
    ctx = session.ctx
    if ctx.party != session.receiver:
        raise RoleError(f"party {ctx.party} is not the receiver of this session")
    if session.spent:
        raise OtStateError("session already chosen")
    if not 0 <= choices < 1 << session.count:
        raise ParameterError(f"choice bits outside [0, 2**{session.count})")
    payload = _HEADER.pack(_CHOOSE, session.sender, session.phase, session.count) + (
        choices.to_bytes((session.count + 7) // 8, "little")
    )
    session.spent = True
    ctx.endpoint.send(
        Envelope(ctx.party, MEDIATOR, Phase.OT_CONTROL, session.round, payload)
    )
    ctx.endpoint.metrics.tick_message(ctx.party, session.phase, session.count)
    reply = ctx.endpoint.receive(Phase.OT_CONTROL, from_=MEDIATOR, round_=session.round)
    kind, sender, phase, count = _unpack_header(reply.payload)
    if (sender, phase) != (session.sender, session.phase):
        raise ProtocolDesync(f"mediator answered for party {sender}, phase {phase}")
    if kind == _FAULT:
        raise ProtocolDesync("mediator rejected the session; peers are out of step")
    if kind != _RESULT or count != session.count:
        raise MalformedMessage(f"unexpected mediator reply kind {kind}, count {count}")
    body, width = reply.payload[_HEADER.size :], session.width
    if len(body) != count * width:
        raise MalformedMessage(f"result of {len(body)} bytes for {count} of width {width}")
    return [int.from_bytes(body[i : i + width], "little") for i in range(0, len(body), width)]


def _unpack_header(payload: bytes) -> tuple[int, int, int, int]:
    if len(payload) < _HEADER.size:
        raise MalformedMessage(f"OT payload of {len(payload)} bytes has no header")
    return _HEADER.unpack_from(payload)


@dataclass(slots=True)
class _Request:
    """A LOAD or CHOOSE waiting at the mediator for its counterpart."""

    count: int
    items: bytes | int  # the m0, m1 vector of a LOAD, the choice bits of a CHOOSE


def _decode_request(env: Envelope) -> tuple[int, tuple[int, int, int, int], _Request]:
    """Return (kind, (sender, receiver, phase, first round), request);
    raises MalformedMessage for a request whose payload does not match
    its header."""
    kind, other, phase, count = _unpack_header(env.payload)
    body = len(env.payload) - _HEADER.size
    if count < 1:
        raise MalformedMessage(f"request for {count} transfers")
    if kind == _LOAD:
        if body < 1 or body % (2 * count):
            raise MalformedMessage(f"load of {body} bytes does not hold {count} pairs")
        items = env.payload[_HEADER.size :]
        key = (env.sender, other, phase, env.round)
    elif kind == _CHOOSE:
        if body != (count + 7) // 8:
            raise MalformedMessage(f"choose for {count} transfers carries {body} bytes")
        items = int.from_bytes(env.payload[_HEADER.size :], "little")
        if items >> count:
            raise MalformedMessage(f"choose sets a bit at or above its count {count}")
        key = (other, env.sender, phase, env.round)
    else:
        raise MalformedMessage(f"unexpected mediator request kind {kind}")
    return kind, key, _Request(count, items)


def run_mediator(endpoint) -> None:
    """Serve OT batches until the transport closes.

    A LOAD and a CHOOSE rendezvous here, keyed by (sender, receiver,
    phase, first round); whichever arrives first waits for the other.  A
    pair that disagrees on the count means the endpoints disagree about
    the protocol position, and the receiver gets a fault instead of
    values.  The serving loop is steps run through `endpoint.run`.
    """
    try:
        endpoint.run(_mediate(endpoint))
    except ChannelClosed:
        return


def _mediate(endpoint):
    """Steps that serve requests one at a time, forever."""
    waiting: dict[int, dict[tuple, _Request]] = {_LOAD: {}, _CHOOSE: {}}
    while True:
        env = yield (Phase.OT_CONTROL, None, None)
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
    if load.count == choose.count:
        messages, bits, width = load.items, choose.items, len(load.items) // (2 * load.count)
        chosen = ((2 * e + ((bits >> e) & 1)) * width for e in range(load.count))
        payload = _HEADER.pack(_RESULT, sender, phase, choose.count) + b"".join(
            messages[start : start + width] for start in chosen
        )
    else:
        payload = _HEADER.pack(_FAULT, sender, phase, choose.count)
    endpoint.send(Envelope(MEDIATOR, receiver, Phase.OT_CONTROL, round_, payload))
