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
counter per channel numbers its transfers: a session of `count`
transfers takes the next `count` values as its round tags.  A session is
one product, sent as one request per frame's worth of transfers: from
transfer `start` on, as many as a LOAD holds within MAX_PAYLOAD travel
as one LOAD (sender to mediator), one CHOOSE (receiver to mediator) and
one RESULT (mediator to receiver), each with round tag `round + start`
in its envelope and a (kind, other endpoint, phase, count) header.  A
message travels as width = ceil(value_bits / 8) little-endian bytes, for
a public value_bits both endpoints agree on.  A LOAD carries m0, m1 of
every transfer in 2 * count * width bytes, a CHOOSE carries r in
ceil(count / 8) little-endian bytes, and a RESULT the chosen messages in
count * width bytes.  The mediator pairs the LOAD and the CHOOSE of the
same channel and first round, faults the receiver unless their counts
agree, and otherwise answers with byte slices of the LOAD: it never
reads a number.

Mediator traffic is tagged OT_CONTROL and excluded from the phase
communication counters.  Each logical transfer instead contributes
exactly one communication per endpoint (its load and its choose) in the
phase the session was opened for, plus one initialization tick per
endpoint; a session ticks each counter once by its size.

The mediator answers each receiver's CHOOSEs in the order that receiver
sent them, so a receiver may send the choices of several sessions before
it reads any result, and then reads the results in that same order.
`ot_receive_chosen` returns steps for the endpoint's `run` that yield
each RESULT's receive; `ot_choose` is `ot_send_choices` followed by
`endpoint.run` of those steps, a blocking call; `ot_send` never waits.
`run_mediator` is a blocking call whose serving loop is steps for the
endpoint's `run`: it yields each request's receive and sends each answer
directly.
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
from .wire import MAX_PAYLOAD, MEDIATOR, Envelope, Phase, new_envelope

_LOAD = 1
_CHOOSE = 2
_RESULT = 3
_FAULT = 4

# kind, other endpoint, phase, count; the first round tag rides in the
# envelope header.  RESULT and FAULT name the chunk's sender.
_HEADER = struct.Struct(">BHBI")
# read on every request: `Phase.OT_CONTROL` costs 0.1 us a lookup (CPython 3.11)
_OT_CONTROL = Phase.OT_CONTROL
_ANY_REQUEST = (_OT_CONTROL, None, None)  # what the mediator waits on


class OtContext:
    """Per-party OT bookkeeping bound to one transport endpoint.

    Holds the round counter of every (sender, receiver, phase) channel
    this party is an endpoint of.  Both endpoints derive the same round
    tags independently because they open sessions of the same sizes in
    the same protocol order; the 32-bit round field caps a channel at
    2**32 transfers per run.
    """

    def __init__(self, endpoint):
        self.endpoint = endpoint
        self.party = endpoint.party_id
        self._rounds: dict[tuple[int, int, Phase], int] = {}


@dataclass(slots=True)
class OtSession:
    """One endpoint's view of `count` transfers of messages below
    2**value_bits, `width` bytes each on the wire and `step` to a frame;
    transfer e has round tag `round + e`.  `spent` is set once this
    endpoint's requests are sent, so a session is used at most once."""

    count: int
    sender: int
    receiver: int
    phase: Phase
    round: int
    value_bits: int
    width: int
    step: int
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
    """Open a session of `count` transfers of messages below 2**value_bits
    on the next round tags of its channel; ticks the calling party's init
    counter once per transfer.

    Both endpoints call this with identical arguments, so each logical
    initialization ticks each party's counter exactly once, and the
    width comes from the agreed value_bits, never from the messages.
    """
    if sender == receiver:
        raise ParameterError("sender and receiver must differ")
    if value_bits < 1:
        raise ParameterError(f"messages need at least 1 bit, got {value_bits}")
    width = (value_bits + 7) // 8
    if ctx.party not in (sender, receiver):
        raise RoleError(f"party {ctx.party} is neither endpoint of this session")
    channel = (sender, receiver, phase)
    first = ctx._rounds.get(channel, 0)
    if not 0 < count < 1 << 32 or first + count > 1 << 32:
        raise ParameterError(f"session of {count} at round {first} does not fit")
    ctx._rounds[channel] = first + count
    ctx.endpoint.metrics.tick_ot_init(ctx.party, phase, count)
    step = max(1, (MAX_PAYLOAD - _HEADER.size) // (2 * width))
    return OtSession(count, sender, receiver, phase, first, value_bits, width, step, ctx)


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
    messages = b"".join([m.to_bytes(width, "little") for m in flat])
    session.spent = True
    count, step, pair = session.count, session.step, 2 * width
    for start in range(0, count, step):
        end = min(start + step, count)
        payload = _HEADER.pack(_LOAD, session.receiver, session.phase, end - start) + (
            messages[start * pair : end * pair]
        )
        fields = (ctx.party, MEDIATOR, _OT_CONTROL, session.round + start, payload)
        ctx.endpoint.send(new_envelope(Envelope, fields))
    ctx.endpoint.metrics.tick_message(ctx.party, session.phase, count)


def ot_send_choices(session: OtSession, choices: int) -> None:
    """Send the choice bits of every transfer, message number
    `(choices >> e) & 1` of transfer e, without waiting for the result;
    one-shot per session, even when the mediator faults it."""
    ctx = session.ctx
    if ctx.party != session.receiver:
        raise RoleError(f"party {ctx.party} is not the receiver of this session")
    if session.spent:
        raise OtStateError("session already chosen")
    count, step = session.count, session.step
    if not 0 <= choices < 1 << count:
        raise ParameterError(f"choice bits outside [0, 2**{count})")
    session.spent = True
    for start in range(0, count, step):
        size = min(step, count - start)
        payload = _HEADER.pack(_CHOOSE, session.sender, session.phase, size) + (
            ((choices >> start) & ((1 << size) - 1)).to_bytes((size + 7) // 8, "little")
        )
        fields = (ctx.party, MEDIATOR, _OT_CONTROL, session.round + start, payload)
        ctx.endpoint.send(new_envelope(Envelope, fields))
    ctx.endpoint.metrics.tick_message(ctx.party, session.phase, count)


def ot_receive_chosen(session: OtSession):
    """Steps that read the mediator's answers to the session's choices,
    one RESULT per chunk in order; their value is the chosen messages.
    Sessions must be read in the order their choices were sent, which is
    the order the mediator answers them in.  The role and state checks
    raise here, not at the first step."""
    ctx = session.ctx
    if ctx.party != session.receiver:
        raise RoleError(f"party {ctx.party} is not the receiver of this session")
    if not session.spent:
        raise OtStateError("session has no choices to answer")
    return _read_chosen(session)


def _read_chosen(session: OtSession):
    chosen, count, step, width = [], session.count, session.step, session.width
    for start in range(0, count, step):
        size = min(step, count - start)
        reply = yield (_OT_CONTROL, MEDIATOR, session.round + start)
        kind, sender, phase, answered = _unpack_header(reply.payload)
        if (sender, phase) != (session.sender, session.phase):
            raise ProtocolDesync(f"mediator answered for party {sender}, phase {phase}")
        if kind == _FAULT:
            raise ProtocolDesync("mediator rejected the session; peers are out of step")
        if kind != _RESULT or answered != size:
            raise MalformedMessage(f"unexpected mediator reply kind {kind}, count {answered}")
        body = reply.payload[_HEADER.size :]
        if len(body) != size * width:
            raise MalformedMessage(f"result of {len(body)} bytes for {size} of width {width}")
        chosen += [
            int.from_bytes(body[i : i + width], "little") for i in range(0, len(body), width)
        ]
    return chosen


def ot_choose(session: OtSession, choices: int) -> list[int]:
    """Retrieve message number `(choices >> e) & 1` of every transfer e:
    `ot_send_choices`, then the endpoint's `run` of `ot_receive_chosen`."""
    ot_send_choices(session, choices)
    return session.ctx.endpoint.run(ot_receive_chosen(session))


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
    """Serve OT requests until the transport closes.

    A LOAD and a CHOOSE rendezvous here, keyed by (sender, receiver,
    phase, first round); whichever arrives first waits for the other.
    Each receiver's CHOOSEs are answered in the order they arrive, which
    per-pair FIFO delivery makes the order the receiver sent them in: a
    CHOOSE whose LOAD is in still waits behind an earlier one of the same
    receiver whose LOAD is not.  A pair that disagrees on the count means
    the endpoints disagree about the protocol position, and the receiver
    gets a fault instead of values.  The serving loop is steps run
    through `endpoint.run`.
    """
    try:
        endpoint.run(_mediate(endpoint))
    except ChannelClosed:
        return


def _mediate(endpoint):
    """Steps that serve requests one at a time, forever."""
    loads: dict[tuple, _Request] = {}
    # per receiver, its waiting CHOOSEs in arrival order
    chooses: dict[int, dict[tuple, _Request]] = {}
    while True:
        env = yield _ANY_REQUEST
        kind, key, request = _decode_request(env)
        pending = chooses.setdefault(key[1], {})
        waiting = loads if kind == _LOAD else pending
        if key in waiting:
            raise MalformedMessage(f"duplicate request for batch {key}")
        waiting[key] = request
        while pending:
            head = next(iter(pending))
            if head not in loads:
                break
            _answer(endpoint, head, loads.pop(head), pending.pop(head))


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
    endpoint.send(new_envelope(Envelope, (MEDIATOR, receiver, _OT_CONTROL, round_, payload)))
