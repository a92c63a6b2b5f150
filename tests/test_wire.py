import random

import pytest

from mprsa import Envelope, MalformedMessage, ParameterError, PayloadTooLarge, Phase
from mprsa.wire import (
    MAX_PAYLOAD,
    decode_envelope_body,
    decode_natural,
    encode_envelope,
    encode_natural,
)


class TestNaturalEncoding:
    def test_frozen_bytes(self):
        # minimal big-endian bytes with no length of their own
        assert encode_natural(0) == b""
        assert encode_natural(255) == b"\xff"
        assert encode_natural(256) == b"\x01\x00"

    def test_roundtrip(self):
        rng = random.Random(1)
        for _ in range(200):
            value = rng.randrange(0, 1 << rng.randrange(1, 300))
            encoded = encode_natural(value)
            assert decode_natural(encoded) == value
            assert len(encoded) == (value.bit_length() + 7) // 8

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            encode_natural(-1)


class TestEnvelopeFraming:
    def test_frozen_frame(self):
        env = Envelope(sender=1, to=2, phase=Phase.TRIAL_DIV, round=7, payload=b"\x2a")
        assert encode_envelope(env) == bytes.fromhex("0000000a 01 0001 0002 00000007 2a".replace(" ", ""))

    def test_roundtrip(self):
        rng = random.Random(2)
        for _ in range(100):
            env = Envelope(
                sender=rng.randrange(1, 1 << 16),
                to=rng.randrange(0, 1 << 16),
                phase=Phase(rng.randrange(1, 6)),
                round=rng.randrange(0, 1 << 32),
                payload=rng.randbytes(rng.randrange(0, 64)),
            )
            assert decode_envelope_body(encode_envelope(env)[4:]) == env

    def test_envelope_is_immutable(self):
        # a broadcast puts one object into every inbox
        env = Envelope(sender=3, to=0, phase=Phase.BIPRIME_GCD, round=9, payload=b"v")
        with pytest.raises(AttributeError):
            env.payload = b"w"
        with pytest.raises(AttributeError):
            env.extra = 1
        decoded = decode_envelope_body(encode_envelope(env)[4:])
        assert decoded == env
        assert type(decoded) is Envelope and decoded.phase is Phase.BIPRIME_GCD

    def test_payload_cap(self):
        env = Envelope(1, 2, Phase.DIST_MUL, 0, b"x" * (MAX_PAYLOAD + 1))
        with pytest.raises(PayloadTooLarge):
            encode_envelope(env)

    def test_decoder_applies_the_payload_cap(self):
        at_cap = encode_envelope(Envelope(1, 2, Phase.DIST_MUL, 0, b"x" * MAX_PAYLOAD))
        assert len(decode_envelope_body(at_cap[4:]).payload) == MAX_PAYLOAD
        # a hand-built body one payload byte over the cap
        body = at_cap[4:] + b"x"
        with pytest.raises(PayloadTooLarge):
            decode_envelope_body(body)

    def test_bad_phase_tag(self):
        body = bytearray(encode_envelope(Envelope(1, 2, Phase.TRIAL_DIV, 0, b""))[4:])
        body[0] = 99
        with pytest.raises(MalformedMessage):
            decode_envelope_body(bytes(body))
