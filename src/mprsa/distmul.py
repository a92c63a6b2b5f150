"""Distributed multiplication of additively shared values.

The primitive is a two-party bitwise product: for each bit of the
b-holder's value the a-holder offers (mask, mask + a) through a
1-out-of-2 transfer, so the b-holder accumulates masked partial products
while the a-holder accumulates the negated masks.  The two outputs are
additive shares of a*b modulo 2**share_bits and neither side learns the
other's input.  The transfers of one product travel as one OT batch (one
LOAD, one CHOOSE and one RESULT at the mediator), split into as few
batches as keep each LOAD within the frame limit; the counters still tick
once per logical transfer, so the closed-form counts are unchanged.

`product_of_sums` is the one n-party multiplication: it reveals to every
party the product (sum x_i) * (sum y_i) of two additively shared sums,
and serves both N = p*q and the blinded product of the gcd test.  It
runs the primitive twice, roles swapped, over every unordered pair using
a round-robin tournament schedule: each round is a perfect matching, so
all pairs are covered in n-1 rounds with every party busy, and the fixed
schedule keeps parties in agreement about session order without
negotiation.
"""

from dataclasses import dataclass
from random import Random

from .errors import ParameterError
from .ot import OtContext, batch_capacity, ot_choose, ot_init, ot_send
from .shares import ProtocolConfig, ShareSet
from .wire import BROADCAST, Envelope, Phase, decode_natural, encode_natural

_MAX_BIT_WIDTH = (1 << 14) - 1


@dataclass(frozen=True, slots=True)
class ProductShare:
    """One party's additive share of a pairwise product, mod 2**modulus_bits."""

    owner: int
    value: int
    modulus_bits: int


def pairing_rounds(n: int) -> list[list[tuple[int, int]]]:
    """Round-robin tournament: n-1 rounds of perfect matchings covering
    every unordered pair exactly once."""
    if n < 2 or n % 2:
        raise ParameterError(f"need an even party count, got {n}")
    ring = list(range(1, n))
    rounds = []
    for r in range(n - 1):
        rot = ring[r:] + ring[:r]
        pairs = [tuple(sorted((rot[0], n)))]
        for m in range(1, n // 2):
            pairs.append(tuple(sorted((rot[m], rot[n - 1 - m]))))
        rounds.append(pairs)
    return rounds


def partner_in_round(pairs: list[tuple[int, int]], me: int) -> int:
    for i, j in pairs:
        if me == i:
            return j
        if me == j:
            return i
    raise ParameterError(f"party {me} is not matched in this round")


def distr_product(
    a_holder: int,
    b_holder: int,
    a_or_b: int,
    bit_width: int,
    share_bits: int,
    ot: OtContext,
    endpoint,
    *,
    phase: Phase = Phase.DIST_MUL,
    rng: Random | None = None,
) -> ProductShare:
    """Run one bitwise product; returns this party's share of a*b.

    `a_or_b` is the local secret - a for the masking side, b for the
    choosing side.  `bit_width` is the public loop width and must cover
    b; both parties must pass the same value or their session tags stop
    matching and the mediator flags the desync.
    """
    if a_holder == b_holder:
        raise ParameterError("product endpoints must differ")
    if not 1 <= bit_width <= _MAX_BIT_WIDTH:
        raise ParameterError(f"bit width {bit_width} outside [1, {_MAX_BIT_WIDTH}]")
    me = endpoint.party_id
    if me not in (a_holder, b_holder):
        raise ParameterError(f"party {me} holds neither input of this product")
    if me == a_holder and rng is None:
        raise ParameterError("the masking side needs a random source")
    if me == b_holder and a_or_b >> bit_width:
        raise ParameterError("b value does not fit the agreed bit width")
    modulus = 1 << share_bits
    tag_base = ot.next_product_tag(a_holder, b_holder, phase)
    step = batch_capacity(2, share_bits)
    share = 0
    for start in range(0, bit_width, step):
        bits = range(start, min(start + step, bit_width))
        session = ot_init(
            ot, a_holder, b_holder, 2, phase, round_=tag_base + start, count=len(bits)
        )
        if me == a_holder:
            vectors = []
            for i in bits:
                mask = rng.randrange(modulus)
                vectors.append([mask, (mask + a_or_b) % modulus])
                share -= mask << i
            ot_send(session, vectors)
        else:
            choices = [((a_or_b >> i) & 1) + 1 for i in bits]
            for i, picked in zip(bits, ot_choose(session, choices)):
                share += picked << i
    return ProductShare(me, share % modulus, share_bits)


def product_of_sums(
    x: int,
    y: int,
    bit_width: int,
    share_bits: int,
    ot: OtContext,
    endpoint,
    *,
    phase: Phase,
    rng: Random,
) -> int:
    """Compute (sum x_i) * (sum y_i) mod 2**share_bits; every party
    passes its own x and its own y < 2**bit_width and gets the same value.

    Each party starts from its local x*y.  With each partner, in the
    round-robin order, it runs two products: the lower id masks with its
    x while the higher loops over the bits of its y, then the roles swap.
    The masks cancel once every party's blinded total is broadcast and
    summed.
    """
    me = endpoint.party_id
    modulus = 1 << share_bits
    total = (x * y) % modulus
    for pairs in pairing_rounds(len(endpoint.peers) + 1):
        peer = partner_in_round(pairs, me)
        for a_holder, b_holder in sorted([(me, peer), (peer, me)]):
            total += distr_product(
                a_holder, b_holder, x if me == a_holder else y, bit_width,
                share_bits, ot, endpoint, phase=phase, rng=rng,
            ).value
    total %= modulus
    endpoint.broadcast(Envelope(me, BROADCAST, phase, 0, encode_natural(total)))
    for peer in sorted(endpoint.peers):
        value, _ = decode_natural(endpoint.receive(phase, from_=peer, round_=0).payload)
        total += value
    return total % modulus


def share_modulus_bits(config: ProtocolConfig) -> int:
    """Working power-of-two modulus for the product shares.

    p and q are sums of n = 2**t shares below 2**bits, so their product
    is below 2**(2*bits + 2*t); two extra bits absorb the n-way share
    sum, making the modular recombination exact over the integers.
    """
    return 2 * config.bits + 2 * config.tree_depth + 2


def compute_modulus(
    config: ProtocolConfig,
    my_shares: ShareSet,
    ot: OtContext,
    endpoint,
    *,
    rng: Random,
) -> int:
    """Compute N = (sum p_i) * (sum q_i) without revealing any share."""
    return product_of_sums(
        my_shares.p_share, my_shares.q_share, config.bits,
        share_modulus_bits(config), ot, endpoint, phase=Phase.DIST_MUL, rng=rng,
    )
