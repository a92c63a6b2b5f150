"""Multi-party generation of an RSA modulus with additively shared factors.

n parties jointly produce N = p*q such that p and q stay secret forever:
each party holds additive shares of both factors, candidates are sieved
by a communication-light distributed trial division, multiplied with an
oblivious-transfer product protocol, and accepted by two distributed
biprimality tests.  The transport layer counts every communication so
runs can be checked against the closed-form overhead analysis.
"""

from .biprime import (
    FilterOutcome,
    elect_round_leader,
    filter_contribution,
    filter_round,
    gcd_share_modulus_bits,
    gcd_test,
    run_filter_test,
)
from .distmul import (
    ProductShare,
    compute_modulus,
    distr_product,
    product_of_sums,
    share_modulus_bits,
)
from .errors import (
    AddressError,
    ChannelClosed,
    DeadlockError,
    GaveUp,
    MalformedMessage,
    NotInvertible,
    OtStateError,
    ParameterError,
    PayloadTooLarge,
    ProtocolDesync,
    ProtocolError,
    RoleError,
    SamplingExhausted,
    SecrecyError,
    TransportError,
)
from .hashing import hash_to_range, party_rng
from .metrics import (
    AttemptContext,
    AttemptRecord,
    CountReport,
    Counts,
    PhaseMetrics,
    assert_counts,
    expected_counts,
    expected_work,
    records_to_jsonl,
    summary_table,
)
from .numtheory import (
    is_probable_prime,
    jacobi,
    mod_inverse,
    primes_below,
    sample_unit_with_jacobi_one,
)
from .ot import OtContext, OtSession, ot_choose, ot_init, ot_send, run_mediator
from .protocol import (
    ITERATION_CAP,
    MemoryRunResult,
    RunOutcome,
    reconstruct_for_test,
    run_in_memory,
    run_party,
)
from .shares import ProtocolConfig, ShareSet, designate_special, generate_shares
from .transport import InMemoryEndpoint, InMemoryNetwork, run_parties
from .trialdiv import (
    PairingPlan,
    build_pairing,
    reduction_schedule,
    tree_divisibility_test,
    tree_role,
)
from .wire import BROADCAST, MEDIATOR, Envelope, Phase

__version__ = "0.1.0"
