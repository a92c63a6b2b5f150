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
chooses from party i-r (ids mod n).  The n(n-1) products are
independent, so a party sends every round's requests before it reads
any result; the choosing side is split into sending its CHOOSEs and
reading its RESULTs for that, and `distr_product` composes the two.
Any order of products is sound, since each OT channel keeps its own
round counter, and the mediator answers a party's CHOOSEs in the order
it sent them, which is the order it reads the results in.
"""

from dataclasses import dataclass
from random import Random

from .errors import ParameterError
# ot_choose is unused here, but the benchmark's layer trace patches it
from .ot import OtContext, OtSession, batch_capacity, ot_choose, ot_init  # noqa: F401
from .ot import ot_receive_chosen, ot_send, ot_send_choices
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
    if me == b_holder:
        sessions = _send_choices(ot, a_holder, a_or_b, bit_width, share_bits, phase)
        return ProductShare(_chosen_share(sessions, share_bits))
    if me != a_holder:
        raise ParameterError(f"party {me} holds neither input of this product")
    if rng is None:
        raise ParameterError("the masking side needs a random source")
    modulus = 1 << share_bits
    step = batch_capacity(share_bits)
    getbits = rng.getrandbits
    share = 0
    for start in range(0, bit_width, step):
        bits = range(start, min(start + step, bit_width))
        session = ot_init(ot, a_holder, b_holder, phase, share_bits, count=len(bits))
        pairs = []
        for i in bits:
            # rng.randrange(modulus) without its call overhead: the
            # same share_bits + 1 bit draws, redrawn at or above modulus
            mask = getbits(share_bits + 1)
            while mask >> share_bits:
                mask = getbits(share_bits + 1)
            pairs.append((mask, (mask + a_or_b) % modulus))
            share -= mask << i
        ot_send(session, pairs)
    return ProductShare(share % modulus)


def _send_choices(
    ot: OtContext, a_holder: int, b: int, bit_width: int, share_bits: int, phase: Phase
) -> list[OtSession]:
    """The choosing side's first half of a product with `a_holder`: send
    the bits of b as the CHOOSEs of its batches, without waiting, and
    return the batches' sessions in order."""
    if b >> bit_width:
        raise ParameterError("b value does not fit the agreed bit width")
    step = batch_capacity(share_bits)
    sessions = []
    for start in range(0, bit_width, step):
        count = min(step, bit_width - start)
        session = ot_init(ot, a_holder, ot.party, phase, share_bits, count=count)
        ot_send_choices(session, (b >> start) & ((1 << count) - 1))
        sessions.append(session)
    return sessions


def _chosen_share(sessions: list[OtSession], share_bits: int) -> int:
    """The choosing side's second half: read the RESULT of each session
    in order and sum the masked partial products."""
    picked = [m for session in sessions for m in ot_receive_chosen(session)]
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
) -> int:
    """Compute (sum x_i) * (sum y_i) mod 2**share_bits; every party
    passes its own x and its own y < 2**bit_width and gets the same value.

    Each party starts from its local x*y.  In round r = 1..n-1 it first
    masks with its x while party i+r loops over the bits of its y, then
    sends the bits of its own y for party i-r to mask (ids mod n).  It
    sends every round's LOAD and CHOOSE before it reads any RESULT, and
    then reads the n-1 RESULTs in round order, which is the order the
    mediator answers its CHOOSEs in.  So a product of sums takes three
    hops - requests to the mediator, results back, the blinded totals -
    and a party blocks at most on its first RESULT and on the totals.
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
        chosen.append(_send_choices(ot, (me - 1 - r) % n + 1, y, bit_width, share_bits, phase))
    for sessions in chosen:
        total += _chosen_share(sessions, share_bits)
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
