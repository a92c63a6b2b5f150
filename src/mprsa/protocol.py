"""Full candidate loop: generate shares, trial-divide, multiply, test.

Any rejection at any stage restarts the loop with fresh shares for both
candidates; every stage verdict is common knowledge (broadcast or
reconstructed), so all parties restart and stop at the same attempt and
return the same modulus.  Per-attempt counter snapshots feed the
accounting checks.

`run_party` is transport-agnostic and runs on its endpoint; `rng` is
the party's secret randomness, random.SystemRandom() in the socket CLI.
Two parts of an attempt are steps handed to the endpoint's `run` (see
`transport` for how the in-memory network runs them): the sieve, which
draws shares and trial-divides them attempt after attempt up to the
first candidate that survives, and the filter test.  The products
(`compute_modulus` and `gcd_test`) make blocking calls.
`run_in_memory` runs every party and the OT mediator through
`transport.run_parties` and seeds every party's rng from the config
seed, so in-memory runs are reproducible and the seed is their trust
root.
"""

import random
import time
from dataclasses import dataclass

from .biprime import gcd_test, run_filter_test
from .distmul import compute_modulus
from .errors import GaveUp, ParameterError, SecrecyError
from .hashing import derive_seed_int, party_rng
from .metrics import ZERO_COUNTS, AttemptContext, AttemptRecord
from .numtheory import is_probable_prime, primes_below
from .ot import OtContext, run_mediator
from .shares import ProtocolConfig, ShareSet, designate_special, generate_shares
from .transport import InMemoryNetwork, run_parties
from .trialdiv import tree_divisibility_test, tree_role
from .wire import MEDIATOR

ITERATION_CAP = 1_000_000

VERIFY_MILLER_RABIN_ROUNDS = 40


@dataclass(slots=True)
class RunOutcome:
    """One party's result of a successful protocol run."""

    modulus: int
    attempts: int
    per_phase_metrics: list[AttemptRecord]
    elapsed: float


def run_party(
    config: ProtocolConfig,
    party: int,
    endpoint,
    rng,
    *,
    max_attempts: int = ITERATION_CAP,
    share_sink: dict | None = None,
) -> RunOutcome:
    """Run one party's side of the whole protocol until a modulus is found.

    All parties must be started with identical config.  `share_sink`
    (test mode only) receives this party's ShareSet each attempt so a
    test harness can reconstruct and verify the factors.
    """
    if endpoint.party_id != party:
        raise ParameterError(
            f"endpoint belongs to {endpoint.party_id}, not party {party}"
        )
    ot = OtContext(endpoint)
    special = party == designate_special(config)
    roles = [(beta, tree_role(config, beta, party)) for beta in primes_below(config.trial_bound)]
    records: list[AttemptRecord] = []
    previous = endpoint.metrics.snapshot(party)
    started = time.perf_counter()

    def close_attempt(attempt, context):
        nonlocal previous
        snapshot = endpoint.metrics.snapshot(party)
        counts = {}
        for phase, now in snapshot.items():
            before = previous[phase]
            counts[phase] = ZERO_COUNTS if now == before else now - before
        records.append(AttemptRecord(attempt, party, counts, context))
        previous = snapshot

    def sieve(first):
        """Steps that draw shares and trial-divide them from attempt
        `first` on, closing each attempt that fails; their value is the
        first survivor's (attempt, shares, context)."""
        for attempt in range(first, max_attempts + 1):
            shares = generate_shares(config, party, special, rng)
            if share_sink is not None:
                share_sink[party] = shares
            context = AttemptContext()
            if (yield from _trial_division_phase(config, shares, endpoint, roles, context)):
                return attempt, shares, context
            close_attempt(attempt, context)
        raise GaveUp(f"no modulus found in {max_attempts} attempts")

    attempt = 0
    while True:
        attempt, shares, context = endpoint.run(sieve(attempt + 1))
        context.ran_multiplication = True
        modulus = compute_modulus(config, shares, ot, endpoint, rng=rng)
        context.modulus_bits = modulus.bit_length()
        filter_outcome = endpoint.run(
            run_filter_test(config, modulus, shares, endpoint, rng, attempt=attempt)
        )
        context.filter_rounds_run = filter_outcome.rounds_run
        context.filter_leaders = filter_outcome.leaders
        if filter_outcome.accepted:
            context.ran_gcd = True
            context.success = gcd_test(config, modulus, shares, ot, endpoint, rng)
        close_attempt(attempt, context)
        if context.success:
            return RunOutcome(modulus, attempt, records, time.perf_counter() - started)


def _trial_division_phase(config, shares, endpoint, roles, context):
    """Steps that test p then q against each prime, stopping at the first
    rejection; their value is True when both candidates pass.

    Tests run sequentially in an order every party derives identically,
    so the executed-test counts (and hence the counters) are the same at
    every party and across repeat runs.  `roles` pairs each trial prime
    with this party's tree_role for it, read once per run from the
    prime's schedule, which the parties of one process share: a run that
    succeeds tests every prime.
    """
    seq = 0
    for beta, role in roles:
        for label, share in (("p", shares.p_share), ("q", shares.q_share)):
            survives = yield from tree_divisibility_test(
                config, beta, share % beta, endpoint, test_seq=seq, role=role
            )
            seq += 1
            if label == "p":
                context.trial_tests_p += 1
            else:
                context.trial_tests_q += 1
            if not survives:
                return False
    return True


def reconstruct_for_test(share_sets, *, test_mode: bool = False) -> tuple[int, int]:
    """Sum the shares back into (p, q).

    Deliberately violates secrecy; callable only with test_mode=True and
    never invoked by the protocol itself.
    """
    if not test_mode:
        raise SecrecyError("share reconstruction is a test-only operation")
    share_sets = list(share_sets)
    if not share_sets:
        raise ParameterError("no share sets given")
    return (
        sum(s.p_share for s in share_sets),
        sum(s.q_share for s in share_sets),
    )


@dataclass(slots=True)
class MemoryRunResult:
    """Merged view of an in-memory run across all parties."""

    config: ProtocolConfig
    outcomes: dict[int, RunOutcome]
    modulus: int
    attempts: int
    records: list[AttemptRecord]
    transcripts: dict[int, list] | None = None
    verified: bool | None = None
    p: int | None = None
    q: int | None = None


def run_in_memory(
    config: ProtocolConfig,
    *,
    verify: bool = False,
    record_transcripts: bool = False,
    max_attempts: int = ITERATION_CAP,
    timeout: float = 900.0,
) -> MemoryRunResult:
    """Run all n parties in one process over the in-memory transport.

    With verify=True the final shares are reconstructed (test mode) and
    the factors checked with Miller-Rabin.  The network is built first,
    so a party count above MAX_MEMORY_PARTIES raises ParameterError
    before any thread starts.
    """
    network = InMemoryNetwork(config.parties, record_transcripts=record_transcripts)
    share_sink: dict[int, ShareSet] | None = {} if verify else None

    def party_fn(party):
        def run(endpoint):
            return run_party(
                config,
                party,
                endpoint,
                party_rng(config.seed, party),
                max_attempts=max_attempts,
                share_sink=share_sink,
            )

        return run

    outcomes = run_parties(
        network,
        {MEDIATOR: run_mediator, **{p: party_fn(p) for p in network.party_ids}},
        timeout=timeout,
    )
    moduli = {outcome.modulus for outcome in outcomes.values()}
    if len(moduli) != 1:
        raise ParameterError(f"parties disagree on the modulus: {sorted(moduli)}")
    records = [
        record
        for party in sorted(outcomes)
        for record in outcomes[party].per_phase_metrics
    ]
    result = MemoryRunResult(
        config=config,
        outcomes=outcomes,
        modulus=moduli.pop(),
        attempts=outcomes[1].attempts,
        records=records,
        transcripts=(
            {p: network.transcript(p) for p in network.party_ids + [MEDIATOR]}
            if record_transcripts
            else None
        ),
    )
    if verify:
        p, q = reconstruct_for_test(share_sink.values(), test_mode=True)
        check_rng = random.Random(derive_seed_int(config.seed, "verify"))
        result.p, result.q = p, q
        result.verified = (
            p * q == result.modulus
            and p % 4 == 3
            and q % 4 == 3
            and is_probable_prime(p, VERIFY_MILLER_RABIN_ROUNDS, rng=check_rng)
            and is_probable_prime(q, VERIFY_MILLER_RABIN_ROUNDS, rng=check_rng)
        )
    return result
