"""Property tests for the decoders that read bytes from other participants.

Whatever arrives, a decoder either returns a value or raises a
TransportError subclass (which takes the link or the run down cleanly);
any other exception would escape the transports' error handling.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from mprsa import Envelope, Phase, TransportError
from mprsa.ot import _CHOOSE, _LOAD, _decode_request
from mprsa.ot import _HEADER as OT_HEADER
from mprsa.streamnet import take_frames
from mprsa.wire import MAX_PAYLOAD, MEDIATOR, decode_envelope_body, encode_envelope

EXAMPLES = settings(max_examples=200, deadline=None)

u8 = st.integers(0, 0xFF)
u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFF_FFFF)

# an envelope header with any field values, then any payload
envelope_bodies = st.builds(
    lambda phase, sender, to, round_, payload: struct.pack(">BHHI", phase, sender, to, round_)
    + payload,
    u8,
    u16,
    u16,
    u32,
    st.binary(max_size=64),
)


def with_length_prefix(body, length):
    return struct.pack(">I", len(body) if length is None else length) + body


frames = st.one_of(
    st.binary(max_size=80),
    st.builds(with_length_prefix, envelope_bodies, st.none() | u32),
)


@EXAMPLES
@given(st.one_of(st.binary(max_size=80), envelope_bodies))
def test_envelope_body_decoder_raises_only_transport_errors(body):
    try:
        env = decode_envelope_body(body)
    except TransportError:
        return
    assert encode_envelope(env)[4:] == body


@EXAMPLES
@given(st.lists(frames, max_size=3).map(b"".join))
def test_frame_decoder_raises_only_transport_errors(stream):
    # whatever take_frames returns re-encodes to the bytes it consumed
    buf = bytearray(stream)
    try:
        envelopes = take_frames(buf)
    except TransportError:
        return
    assert all(len(env.payload) <= MAX_PAYLOAD for env in envelopes)
    assert b"".join(encode_envelope(env) for env in envelopes) == stream[: len(stream) - len(buf)]


envelopes = st.builds(
    Envelope,
    u16,
    u16,
    st.sampled_from(Phase),
    u32,
    st.binary(max_size=64),
)


@EXAMPLES
@given(st.lists(envelopes, max_size=8), st.data())
def test_frame_reader_is_independent_of_chunking(sent, data):
    stream = b"".join(encode_envelope(env) for env in sent)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=12)))
    buf, received = bytearray(), []
    for start, end in zip([0, *cuts], [*cuts, len(stream)]):
        buf += stream[start:end]
        received += take_frames(buf)
    assert received == sent
    assert not buf


# a mediator request: a header with any field values (kind biased towards
# LOAD and CHOOSE), then a body that may or may not fit it
request_payloads = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda kind, other, phase, count, body: (
            OT_HEADER.pack(kind, other, phase, count) + body
        ),
        st.sampled_from([_LOAD, _CHOOSE]) | u8,
        u16,
        u8,
        st.integers(0, 8) | u32,
        st.binary(max_size=64),
    ),
)


@EXAMPLES
@given(request_payloads, u16, u32)
def test_mediator_request_decoder_raises_only_transport_errors(payload, sender, round_):
    try:
        kind, _key, request = _decode_request(
            Envelope(sender, MEDIATOR, Phase.OT_CONTROL, round_, payload)
        )
    except TransportError:
        return
    if kind == _LOAD:
        assert request.items and len(request.items) % (2 * request.count) == 0
    else:
        assert kind == _CHOOSE
        assert request.count >= 1
        assert 0 <= request.items < 2**request.count
