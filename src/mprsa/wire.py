"""Envelope framing and serialization shared by every transport backend.

Frame layout (big-endian throughout):

    4 bytes  length of the rest of the frame
    1 byte   phase tag
    2 bytes  sender id
    2 bytes  destination id (0 = broadcast)
    4 bytes  round tag
    payload

Natural numbers inside payloads are serialized as a 4-byte length followed
by minimal big-endian magnitude bytes (zero encodes as length 0).
"""

import struct
from dataclasses import dataclass
from enum import IntEnum

from .errors import MalformedMessage, ParameterError, PayloadTooLarge

BROADCAST = 0
MEDIATOR = 0xFFFF
MAX_PAYLOAD = 1 << 20

_HEADER = struct.Struct(">BHHI")
MAX_BODY = _HEADER.size + MAX_PAYLOAD


class Phase(IntEnum):
    TRIAL_DIV = 1
    DIST_MUL = 2
    BIPRIME_FILTER = 3
    BIPRIME_GCD = 4
    OT_CONTROL = 5


@dataclass(frozen=True, slots=True)
class Envelope:
    """One framed protocol message between two parties."""

    sender: int
    to: int
    phase: Phase
    round: int
    payload: bytes


def encode_envelope(env: Envelope) -> bytes:
    if len(env.payload) > MAX_PAYLOAD:
        raise PayloadTooLarge(f"payload of {len(env.payload)} bytes exceeds {MAX_PAYLOAD}")
    body = _HEADER.pack(env.phase, env.sender, env.to, env.round) + env.payload
    return struct.pack(">I", len(body)) + body


def decode_envelope_body(body: bytes) -> Envelope:
    """Decode a frame body (everything after the length prefix)."""
    if len(body) < _HEADER.size:
        raise MalformedMessage(f"frame body of {len(body)} bytes is too short")
    if len(body) > MAX_BODY:
        raise PayloadTooLarge(f"frame body of {len(body)} bytes exceeds {MAX_BODY}")
    phase, sender, to, round_ = _HEADER.unpack_from(body)
    try:
        phase = Phase(phase)
    except ValueError:
        raise MalformedMessage(f"unknown phase tag {phase}") from None
    return Envelope(sender, to, phase, round_, body[_HEADER.size :])


def decode_envelope(frame: bytes) -> Envelope:
    if len(frame) < 4:
        raise MalformedMessage("frame shorter than its length prefix")
    (length,) = struct.unpack_from(">I", frame)
    if length != len(frame) - 4:
        raise MalformedMessage(f"length prefix {length} does not match frame")
    return decode_envelope_body(frame[4:])


def encode_natural(value: int) -> bytes:
    if value < 0:
        raise ParameterError(f"naturals are non-negative, got {value}")
    magnitude = value.to_bytes((value.bit_length() + 7) // 8, "big")
    return struct.pack(">I", len(magnitude)) + magnitude


def encoded_natural_size(bits: int) -> int:
    """Bytes encode_natural uses for a value below 2**bits; 0 bits gives
    the smallest encoding."""
    return 4 + (bits + 7) // 8


def decode_natural(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """Return (value, next_offset)."""
    if offset + 4 > len(buf):
        raise MalformedMessage("truncated natural length")
    (length,) = struct.unpack_from(">I", buf, offset)
    offset += 4
    if offset + length > len(buf):
        raise MalformedMessage("truncated natural magnitude")
    return int.from_bytes(buf[offset : offset + length], "big"), offset + length


def encode_naturals(values) -> bytes:
    return b"".join(encode_natural(v) for v in values)


def decode_naturals(buf: bytes, count: int, offset: int = 0) -> tuple[list[int], int]:
    values = []
    for _ in range(count):
        value, offset = decode_natural(buf, offset)
        values.append(value)
    return values, offset
