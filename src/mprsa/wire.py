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
# what Envelope._make calls: a decode skips the namedtuple's Python-level __new__
_new_envelope = tuple.__new__


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
    return _new_envelope(Envelope, (sender, to, phase, round_, body[_HEADER.size :]))


def encode_natural(value: int) -> bytes:
    """Minimal big-endian bytes of `value`; zero gives b""."""
    if value < 0:
        raise ParameterError(f"naturals are non-negative, got {value}")
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def decode_natural(payload: bytes) -> int:
    """The natural number a whole payload holds."""
    return int.from_bytes(payload, "big")
