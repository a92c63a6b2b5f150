"""Distributed multiplication of additively shared values.

The primitive is a two-party bitwise product: for each bit of the
b-holder's value the a-holder offers (mask, mask + a) through a
1-out-of-2 transfer, so the b-holder accumulates masked partial products
while the a-holder accumulates the negated masks.  The two outputs are
additive shares of a*b modulo 2**share_bits and neither side learns the
other's input.  The transfers of one product are one OT session, and
the counters tick once per logical transfer, so the closed-form counts
are unchanged.  Every OT message is ceil(share_bits / 8) bytes whatever
its value, and a blinded total is broadcast as its minimal big-endian
bytes.

`product_of_sums` is the one n-party multiplication: it reveals to every
party the product (sum x_i) * (sum y_i) of two additively shared sums,
and serves both N = p*q and the blinded product of the gcd test.  It
runs the primitive once over every ordered pair of parties, in n-1
rounds by offset: in round r party i masks for party i+r and then
chooses from party i-r (ids mod n).  The n(n-1) products are
independent, so a party sends every round's requests before it reads
any result: it sends its CHOOSEs with `ot_send_choices` and reads its
RESULTs with `ot_receive_chosen`, the two halves of `ot_choose`.
Any order of products is sound, since each OT channel keeps its own
round counter, and the mediator answers a party's CHOOSEs in the order
it sent them, which is the order it reads the results in.

`product_of_sums`, and so `compute_modulus`, return steps for the
endpoint's `run`: they yield each receive, the RESULTs and the blinded
totals, as (phase, from_, round_), and send directly.  The masking side
of each product calls `distr_product`, which never waits; its choosing
side is a blocking call, kept for callers on a thread of their own.
"""

from dataclasses import dataclass
from random import Random

from .errors import ParameterError
from .ot import OtContext, ot_choose, ot_init, ot_receive_chosen, ot_send, ot_send_choices
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
    b; both parties must pass the same value, or their sessions announce
    different transfer counts and the mediator faults the receiver.
    """
    me = endpoint.party_id
    if me == b_holder:
        session = ot_init(ot, a_holder, me, phase, share_bits, count=bit_width)
        return ProductShare(_sum_chosen(ot_choose(session, a_or_b), share_bits))
    if me != a_holder:
        raise ParameterError(f"party {me} holds neither input of this product")
    if rng is None:
        raise ParameterError("the masking side needs a random source")
    session = ot_init(ot, a_holder, b_holder, phase, share_bits, count=bit_width)
    modulus = 1 << share_bits
    getbits = rng.getrandbits
    share = 0
    pairs = []
    for i in range(bit_width):
        # rng.randrange(modulus) without its call overhead: the same
        # share_bits + 1 bit draws, redrawn at or above modulus
        mask = getbits(share_bits + 1)
        while mask >> share_bits:
            mask = getbits(share_bits + 1)
        pairs.append((mask, (mask + a_or_b) % modulus))
        share -= mask << i
    ot_send(session, pairs)
    return ProductShare(share % modulus)


def _sum_chosen(picked: list[int], share_bits: int) -> int:
    """The choosing side's share: the sum of the masked partial products."""
    return sum(m << i for i, m in enumerate(picked)) % (1 << share_bits)


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
):
    """Steps that compute (sum x_i) * (sum y_i) mod 2**share_bits; every
    party passes its own x and its own y < 2**bit_width and their value
    is the same at every party.

    Each party starts from its local x*y.  In round r = 1..n-1 it first
    masks with its x while party i+r loops over the bits of its y, then
    sends the bits of its own y for party i-r to mask (ids mod n).  It
    sends every round's LOAD and CHOOSE before it reads any RESULT, and
    then reads the n-1 RESULTs in round order, which is the order the
    mediator answers its CHOOSEs in.  So a product of sums takes three
    hops - requests to the mediator, results back, the blinded totals.
    The masks cancel once every party's blinded total is broadcast and
    summed.
    """
    me = endpoint.party_id
    n = len(endpoint.peers) + 1
    modulus = 1 << share_bits
    total = (x * y) % modulus
    chosen = []
    for r in range(1, n):
        total += distr_product(
            me, (me - 1 + r) % n + 1, x, bit_width,
            share_bits, ot, endpoint, phase=phase, rng=rng,
        ).value
        session = ot_init(ot, (me - 1 - r) % n + 1, me, phase, share_bits, count=bit_width)
        ot_send_choices(session, y)
        chosen.append(session)
    for session in chosen:
        total += _sum_chosen((yield from ot_receive_chosen(session)), share_bits)
    total %= modulus
    endpoint.broadcast(Envelope(me, BROADCAST, phase, 0, encode_natural(total)))
    for peer in endpoint.peers:
        env = yield (phase, peer, 0)
        total += decode_natural(env.payload)
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
):
    """Steps that compute N = (sum p_i) * (sum q_i) without revealing any
    share; their value is N."""
    return product_of_sums(
        my_shares.p_share, my_shares.q_share, config.bits,
        share_modulus_bits(config), ot, endpoint, phase=Phase.DIST_MUL, rng=rng,
    )
