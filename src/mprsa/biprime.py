"""The two distributed biprimality tests.

Filtering test: a per-round leader samples gamma in Z_N^* with Jacobi
symbol 1 and broadcasts it; the special party answers with
gamma**((N+1-p_i-q_i)/4), everyone else with gamma**(-(p_i+q_i)/4), and
the product of all contributions collapses to gamma**((p-1)(q-1)/4) mod N.
For a genuine biprime with p = q = 3 (mod 4) that value is +-1 for every
admissible gamma; for anything else at most half of them pass, so s
independent rounds drive the error below 2**-s.  The trailing-bit share
construction is exactly what makes the per-party quarter exponents
integral.

Gcd test: the parties then check gcd(N, p + q - 1) = 1 by blinding
p + q - 1 with a random sum.  Writing delta_i = p_i + q_i (minus one for
the special party, which plants the -1 exactly once), each party samples
r_i and the blinded value (sum r_i) * (p + q - 1) is the product of the
sums of delta_i and r_i, computed by the same n-party multiplication as N.

The filter test is written as steps for the endpoint's `run`:
`filter_round` and `run_filter_test` yield each receive as
(phase, from_, round_), and send directly.  The gcd test is a blocking
call that drives the same `product_of_sums` steps with
`transport.run_blocking`, one `receive` per request.  On the in-memory
network that receive is itself a one-receive `run`, so the test waits
as parked steps too, but wakes its party once per receive that waits.
"""

from dataclasses import dataclass
from math import gcd
from random import Random

# distr_product is unused here, but the benchmark's layer trace patches it
from .distmul import distr_product, product_of_sums  # noqa: F401
from .errors import ParameterError
from .hashing import hash_to_range
from .numtheory import mod_inverse, sample_unit_with_jacobi_one
from .ot import OtContext
from .shares import ProtocolConfig, ShareSet
from .transport import run_blocking
from .wire import BROADCAST, Envelope, Phase, decode_natural, encode_natural


def elect_round_leader(config: ProtocolConfig, round_index: int, *, attempt: int) -> int:
    """Hash-based per-round leader, salted by the attempt; all parties
    agree without traffic."""
    data = b"%s|gamma|%d|%d" % (config.seed, round_index, attempt)
    return hash_to_range(data, config.parties)


def filter_contribution(N: int, my_shares: ShareSet, gamma: int) -> int:
    """This party's factor of the filter product.

    The exponents are integral by construction; a violation means the
    shares were not built by the trailing-bit rule, so fail loudly.
    """
    delta = my_shares.p_share + my_shares.q_share
    if my_shares.special:
        exponent = N + 1 - delta
        if exponent <= 0 or exponent % 4:
            raise ParameterError(
                f"special-party exponent {exponent} is not a positive multiple of 4"
            )
        return pow(gamma, exponent // 4, N)
    if delta % 4:
        raise ParameterError(f"share sum {delta} is not a multiple of 4")
    return pow(mod_inverse(gamma, N), delta // 4, N)


@dataclass(frozen=True, slots=True)
class FilterOutcome:
    accepted: bool
    rounds_run: int
    leaders: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.accepted


def filter_round(
    round_index: int, leader: int, N: int, my_shares: ShareSet, endpoint, rng: Random
):
    """Steps of one gamma round led by `leader`, the round's elected
    party, for endpoint.run; their value is True when the final product
    is +-1 mod N."""
    if N <= 8 or N % 2 == 0:
        raise ParameterError(f"modulus must be odd and > 8, got {N}")
    me = endpoint.party_id
    gamma_tag = 2 * round_index
    verdict_tag = gamma_tag + 1

    if me == leader:
        gamma = sample_unit_with_jacobi_one(N, rng)
        endpoint.broadcast(
            Envelope(me, BROADCAST, Phase.BIPRIME_FILTER, gamma_tag, encode_natural(gamma))
        )
        product = filter_contribution(N, my_shares, gamma)
        for peer in endpoint.peers:
            env = yield (Phase.BIPRIME_FILTER, peer, gamma_tag)
            product = (product * decode_natural(env.payload)) % N
        accepted = product == 1 or product == N - 1
        endpoint.broadcast(
            Envelope(
                me,
                BROADCAST,
                Phase.BIPRIME_FILTER,
                verdict_tag,
                b"\x01" if accepted else b"\x00",
            )
        )
        return accepted

    env = yield (Phase.BIPRIME_FILTER, leader, gamma_tag)
    gamma = decode_natural(env.payload)
    contribution = filter_contribution(N, my_shares, gamma)
    endpoint.send(
        Envelope(me, leader, Phase.BIPRIME_FILTER, gamma_tag, encode_natural(contribution))
    )
    env = yield (Phase.BIPRIME_FILTER, leader, verdict_tag)
    return env.payload == b"\x01"


def run_filter_test(
    config: ProtocolConfig,
    N: int,
    my_shares: ShareSet,
    endpoint,
    rng: Random,
    *,
    attempt: int,
):
    """Steps that repeat the filter round up to `filter_rounds` times,
    stopping at the first rejection; their value is the FilterOutcome."""
    leaders = []
    for round_index in range(1, config.filter_rounds + 1):
        leaders.append(elect_round_leader(config, round_index, attempt=attempt))
        if not (yield from filter_round(round_index, leaders[-1], N, my_shares, endpoint, rng)):
            return FilterOutcome(False, round_index, tuple(leaders))
    return FilterOutcome(True, config.filter_rounds, tuple(leaders))


def gcd_share_modulus_bits(config: ProtocolConfig) -> int:
    """Power-of-two modulus for the gcd-test shares.

    Every r_i*delta_j is below 2**(3*bits + 2*t + 1) and the blinded sum
    spans n**2 = 2**(2*t) such terms, so this width makes the share
    recombination exact over the integers.
    """
    return 3 * config.bits + 4 * config.tree_depth + 4


def gcd_test(
    config: ProtocolConfig,
    N: int,
    my_shares: ShareSet,
    ot: OtContext,
    endpoint,
    rng: Random,
    *,
    trace: dict | None = None,
) -> bool:
    """Distributed check that gcd(N, p + q - 1) = 1.

    Each party samples r_i in [1, N-1]; the product of the sums of r_i
    and delta_i gives G = (sum r_i)(p + q - 1) mod N.  True accepts N.
    `trace`, when given, records this party's r_i and the combined G for
    test-mode reconstruction checks.

    It runs the product's steps with one `endpoint.receive` each, not
    through one `endpoint.run`, for two reasons.  The benchmark's layer
    split (`bench/harness.split_failures`, guarded in tier-1 by
    `test_traced_memory_run_reads_the_layers_the_benchmark_splits_on`)
    needs `InMemoryEndpoint.receive` calls in a memory run, and these
    are the only ones left on the protocol path.  And the test runs
    about once per keygen, so the wake per receive that waits (each is
    a parked one-receive `run`) costs little.
    """
    r_value = rng.randrange(1, N)
    if trace is not None:
        trace["r"] = r_value
    delta = my_shares.p_share + my_shares.q_share - (1 if my_shares.special else 0)
    combined = run_blocking(endpoint, product_of_sums(
        delta, r_value, N.bit_length(), gcd_share_modulus_bits(config), ot,
        endpoint, phase=Phase.BIPRIME_GCD, rng=rng,
    )) % N
    if trace is not None:
        trace["combined"] = combined
    return gcd(combined, N) == 1
