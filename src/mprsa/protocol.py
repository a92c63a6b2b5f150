"""Full candidate loop: generate shares, trial-divide, multiply, test.

Any rejection at any stage restarts the loop with fresh shares for both
candidates; every stage verdict is common knowledge (broadcast or
reconstructed), so all parties restart and stop at the same attempt and
return the same modulus.  Per-attempt counter snapshots feed the
accounting checks.

`run_party` is transport-agnostic and blocks on its endpoint.  The
in-memory runner gives every participant (the parties and the OT
mediator) its own thread; the network's scheduler lets one of them act
at a time, so in-memory runs are reproducible.
"""

import random
import threading
import time
from dataclasses import dataclass

from .biprime import gcd_test, run_filter_test
from .distmul import compute_modulus
from .errors import ChannelClosed, GaveUp, ParameterError, SecrecyError
from .hashing import derive_seed_int, party_rng
from .metrics import AttemptContext, AttemptRecord
from .numtheory import is_probable_prime, primes_below
from .ot import OtContext, run_mediator
from .shares import ProtocolConfig, ShareSet, designate_special, generate_shares
from .transport import InMemoryNetwork
from .trialdiv import tree_divisibility_test
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
    special_party = designate_special(config)
    primes = primes_below(config.trial_bound)
    records: list[AttemptRecord] = []
    previous = endpoint.metrics.snapshot(party)
    started = time.perf_counter()

    for attempt in range(1, max_attempts + 1):
        shares = generate_shares(config, party, party == special_party, rng)
        if share_sink is not None:
            share_sink[party] = shares
        context = AttemptContext()
        modulus = None

        if _trial_division_phase(config, shares, endpoint, attempt, primes, context):
            context.ran_multiplication = True
            modulus = compute_modulus(config, shares, ot, endpoint, rng=rng)
            context.modulus_bits = modulus.bit_length()
            filter_outcome = run_filter_test(
                config, modulus, shares, endpoint, rng, attempt=attempt
            )
            context.filter_rounds_run = filter_outcome.rounds_run
            context.filter_leaders = filter_outcome.leaders
            if filter_outcome.accepted:
                context.ran_gcd = True
                context.success = gcd_test(config, modulus, shares, ot, endpoint, rng)

        snapshot = endpoint.metrics.snapshot(party)
        records.append(
            AttemptRecord(
                attempt,
                party,
                {phase: snapshot[phase] - previous[phase] for phase in snapshot},
                context,
            )
        )
        previous = snapshot
        if context.success:
            return RunOutcome(
                modulus, attempt, records, time.perf_counter() - started
            )
    raise GaveUp(f"no modulus found in {max_attempts} attempts")


def _trial_division_phase(config, shares, endpoint, attempt, primes, context) -> bool:
    """Test p then q against each prime, stopping at the first rejection.

    Tests run sequentially in an order every party derives identically,
    so the executed-test counts (and hence the counters) are the same at
    every party and across repeat runs.
    """
    seq = 0
    for beta in primes:
        for label in ("p", "q"):
            residue = (shares.p_share if label == "p" else shares.q_share) % beta
            survives = tree_divisibility_test(
                config, beta, residue, endpoint, test_seq=seq, attempt=attempt
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


def run_parties(network, fns: dict, *, timeout: float = 900.0) -> dict:
    """Run one callable per participant, each on its own thread and given
    its endpoint; a participant without a callable is finished at once.

    Waits for the parties (the mediator serves until the network closes),
    propagates the first failure and closes the network on timeout.  A
    ChannelClosed raised by that closing, once the parties are done or
    out of time, is not a failure.
    Returns {party: return value}.
    """
    results: dict = {}
    errors: list[BaseException] = []
    lock = threading.Lock()
    stopping = threading.Event()

    def wrap(party, fn, endpoint):
        try:
            value = fn(endpoint)
            with lock:
                results[party] = value
        except BaseException as exc:  # noqa: BLE001 - reraised below
            # the shutdown's own close() is how a serving participant ends
            if not (isinstance(exc, ChannelClosed) and stopping.is_set()):
                with lock:
                    errors.append(exc)
            network.close()
        finally:
            endpoint.finish()

    for party in network.party_ids + [MEDIATOR]:
        if party not in fns:
            network.endpoint(party).finish()
    threads = {
        party: threading.Thread(
            target=wrap,
            args=(party, fn, network.endpoint(party)),
            name="ot-mediator" if party == MEDIATOR else f"party-{party}",
            daemon=True,
        )
        for party, fn in fns.items()
    }
    for thread in threads.values():
        thread.start()

    deadline = time.monotonic() + timeout
    timed_out = False
    for party, thread in threads.items():
        if party == MEDIATOR:
            continue
        thread.join(max(deadline - time.monotonic(), 0.0))
        if thread.is_alive():
            timed_out = True
            break
    stopping.set()
    network.close()
    for thread in threads.values():
        thread.join(timeout=10.0)
    if errors:
        raise errors[0]
    if timed_out:
        raise TimeoutError(f"protocol run exceeded {timeout} seconds")
    results.pop(MEDIATOR, None)
    return results


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
    rngs: dict | None = None,
) -> MemoryRunResult:
    """Run all n parties in one process over the in-memory transport.

    With verify=True the final shares are reconstructed (test mode) and
    the factors checked with Miller-Rabin; `rngs` overrides the per-party
    seeded sources, which tests use to rig specific candidates.
    """
    network = InMemoryNetwork(config.parties, record_transcripts=record_transcripts)
    if rngs is None:
        rngs = {p: party_rng(config.seed, p) for p in network.party_ids}
    share_sink: dict[int, ShareSet] | None = {} if verify else None

    def party_fn(party):
        def run(endpoint):
            return run_party(
                config,
                party,
                endpoint,
                rngs[party],
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
