"""Deterministic hash-to-range primitive and seed derivation.

Every communication-free agreement in the protocol (pairing construction,
leader election, special-party designation) reduces to evaluating the same
hash on inputs all parties can assemble locally, so the hash is a
protocol constant, not a per-run choice: SHA-256, here and in the seeds.
"""

import hashlib
import random

from .errors import ParameterError


def hash_to_range(data: bytes, m: int) -> int:
    """Map arbitrary bytes to an integer in [1, m].

    The first 8 digest bytes are read big-endian and reduced mod m; the
    bias is negligible for any m this protocol uses (m <= 2**32).
    """
    if m < 1:
        raise ParameterError(f"range bound must be >= 1, got {m}")
    digest = hashlib.sha256(data).digest()
    return int.from_bytes(digest[:8], "big") % m + 1


def derive_seed_int(seed: bytes, label: str) -> int:
    """Expand the shared seed and a label into a 256-bit integer."""
    return int.from_bytes(hashlib.sha256(seed + b"|" + label.encode()).digest(), "big")


def party_rng(seed: bytes, party: int) -> random.Random:
    """Per-party deterministic random source derived from the shared seed."""
    return random.Random(derive_seed_int(seed, f"rng|{party}"))
