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
Every OT message is ceil(share_bits / 8) bytes whatever its value, and a
blinded total is broadcast as its minimal big-endian bytes.

`product_of_sums` is the one n-party multiplication: it reveals to every
party the product (sum x_i) * (sum y_i) of two additively shared sums,
and serves both N = p*q and the blinded product of the gcd test.  It
runs the primitive once over every ordered pair of parties, in n-1
rounds by offset: in round r party i masks for party i+r and then
chooses from party i-r (ids mod n).  Any order of products is sound,
since each OT channel keeps its own round counter; the rotation keeps
the one property that matters, that the LOAD a party's CHOOSE waits on
is sent in the same round, so no LOAD waits long at the mediator.
"""

from dataclasses import dataclass
from random import Random

from .errors import ParameterError
from .ot import OtContext, batch_capacity, ot_choose, ot_init, ot_send
from .shares import ProtocolConfig, ShareSet
from .wire import BROADCAST, Envelope, Phase, decode_natural, encode_natural


@dataclass(frozen=True, slots=True)
class ProductShare:
    """One party's additive share of a pairwise product, mod 2**share_bits."""

    value: int


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
    b; both parties must pass the same value, or their batches announce
    different transfer counts and the mediator faults the receiver.
    """
    if a_holder == b_holder:
        raise ParameterError("product endpoints must differ")
    if bit_width < 1:
        raise ParameterError(f"bit width must be at least 1, got {bit_width}")
    me = endpoint.party_id
    if me not in (a_holder, b_holder):
        raise ParameterError(f"party {me} holds neither input of this product")
    if me == a_holder and rng is None:
        raise ParameterError("the masking side needs a random source")
    if me == b_holder and a_or_b >> bit_width:
        raise ParameterError("b value does not fit the agreed bit width")
    modulus = 1 << share_bits
    step = batch_capacity(share_bits)
    share = 0
    for start in range(0, bit_width, step):
        bits = range(start, min(start + step, bit_width))
        session = ot_init(ot, a_holder, b_holder, phase, share_bits, count=len(bits))
        if me == a_holder:
            pairs = []
            getbits = rng.getrandbits
            for i in bits:
                # rng.randrange(modulus) without its call overhead: the
                # same share_bits + 1 bit draws, redrawn at or above modulus
                mask = getbits(share_bits + 1)
                while mask >> share_bits:
                    mask = getbits(share_bits + 1)
                pairs.append((mask, (mask + a_or_b) % modulus))
                share -= mask << i
            ot_send(session, pairs)
        else:
            choices = (a_or_b >> start) & ((1 << len(bits)) - 1)
            for i, picked in zip(bits, ot_choose(session, choices)):
                share += picked << i
    return ProductShare(share % modulus)


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

    Each party starts from its local x*y.  In round r = 1..n-1 it first
    masks with its x while party i+r loops over the bits of its y, then
    loops over the bits of its own y while party i-r masks (ids mod n).
    So every party sends its LOAD before its CHOOSE, and the LOAD that
    CHOOSE waits on is party i-r's first step of the same round: no one
    waits on a RESULT before its LOAD is out, and a round takes two
    hops, requests to the mediator and results back.
    The masks cancel once every party's blinded total is broadcast and
    summed.
    """
    me = endpoint.party_id
    n = len(endpoint.peers) + 1
    modulus = 1 << share_bits
    total = (x * y) % modulus
    for r in range(1, n):
        total += distr_product(
            me, (me - 1 + r) % n + 1, x, bit_width,
            share_bits, ot, endpoint, phase=phase, rng=rng,
        ).value
        total += distr_product(
            (me - 1 - r) % n + 1, me, y, bit_width,
            share_bits, ot, endpoint, phase=phase, rng=rng,
        ).value
    total %= modulus
    endpoint.broadcast(Envelope(me, BROADCAST, phase, 0, encode_natural(total)))
    for peer in endpoint.peers:
        total += decode_natural(endpoint.receive(phase, from_=peer, round_=0).payload)
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
