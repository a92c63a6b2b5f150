"""Fast trial division of the hidden candidate sums by small primes.

The n-party path is a tree reduction: in each of t = log2(n) turns half
the active parties send their residue accumulators to partners picked by
a shared hash of (seed, beta, turn), so after t turns party 1 holds
sum(p_i) mod beta and broadcasts the verdict.  Pairings cost no traffic
and stay fixed across attempts, so the process builds each prime's
schedule once per (parties, seed), and each party reads its role from it:
whom it adds up, then whom it sends to.

A test is written as steps for its endpoint's `run` (see
`tree_divisibility_test`): it yields each receive it needs and sends
directly.  An n=8 keygen runs some ten thousand party-tests of a few
microseconds each, so a test pays for no lookup whose answer never
changes: the phase is a module constant (`Phase.TRIAL_DIV` costs 0.1 us
a read on CPython 3.11), the round-tag stride comes from a slot of the
config, and envelopes are built with `wire.new_envelope`.

Residues travel in the clear: a survivor learns partial share sums mod
beta, and party 1 learns p mod beta for every prime tested, so for an
accepted candidate it knows p (and q) modulo the product of all trial
primes - p itself whenever p is smaller.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import ParameterError
from .hashing import hash_to_range
from .shares import ProtocolConfig
from .wire import BROADCAST, Envelope, Phase, decode_natural, encode_natural, new_envelope

_ASSIGN_SCAN_CAP = 1 << 16
_TRIAL_DIV = Phase.TRIAL_DIV

_ROOT = 1  # survivors are the lower half of every turn, so party 1 is the last
TreeRole = tuple[tuple[int, ...], int | None]  # see tree_role


@dataclass(frozen=True, slots=True)
class PairingPlan:
    """Who sends to whom in one turn of one prime's reduction tree."""

    turn: int
    survivors: tuple[int, ...]
    mapping: dict[int, int]  # non-survivor -> survivor


def build_pairing(
    config: ProtocolConfig,
    beta: int,
    turn: int,
    prior_survivors,
) -> PairingPlan:
    """Deterministically pair off the non-surviving half against the
    surviving half; identical at every party with no communication.

    Survivors are the canonically smallest half of the prior survivor
    set.  Each non-survivor in order takes the first not-yet-assigned
    slot produced by hashing (beta, seed, turn, j) for j = 0, 1, ...;
    scanning a shared pseudo-random sequence and skipping taken slots
    always ends in a bijection.  Every slot before the point where one
    scan stopped is taken, so the next scan resumes there and no j is
    hashed twice; the last non-survivor's scan could only end on the one
    free slot left, so it takes that slot without hashing (a one-slot
    turn hashes nothing).  _ASSIGN_SCAN_CAP bounds the whole turn's scan.
    """
    prior = sorted(prior_survivors)
    depth = config.tree_depth
    if turn < 1 or turn > depth:
        raise ParameterError(f"turn {turn} outside [1, {depth}]")
    if len(prior) != 1 << (depth - turn + 1):
        raise ParameterError(
            f"turn {turn} expects {1 << (depth - turn + 1)} prior survivors, got {len(prior)}"
        )
    half = len(prior) // 2
    prefix = b"%d%s|%d|" % (beta, config.seed, turn)
    survivors = tuple(prior[:half])
    mapping: dict[int, int] = {}
    free = set(range(1, half + 1))
    j = 0
    for dropped in prior[half:]:
        if len(free) == 1:
            (slot,) = free
        else:
            while True:
                slot = hash_to_range(b"%s%d" % (prefix, j), half)
                j += 1
                if slot in free:
                    break
                if j > _ASSIGN_SCAN_CAP:
                    raise ParameterError("hash sequence failed to cover the survivor set")
        free.remove(slot)
        mapping[dropped] = survivors[slot - 1]
    return PairingPlan(turn=turn, survivors=survivors, mapping=mapping)


def reduction_schedule(config: ProtocolConfig, beta: int) -> tuple[PairingPlan, ...]:
    """All t pairing plans for one prime, applied turn by turn.

    The tuple is shared by every caller with the same (parties, seed), so
    it and its plans must not be mutated.  Only one (parties, seed) is
    remembered at a time: the n parties of a run ask for the same
    schedules, while a real keygen never repeats a seed, so schedules
    kept across seeds would only grow.
    """
    schedules = _run_schedules(config.parties, config.seed)
    plans = schedules.get(beta)
    if plans is None:
        plans = schedules[beta] = _build_schedule(config, beta)
    return plans


@lru_cache(maxsize=1)
def _run_schedules(parties: int, seed: bytes) -> dict[int, tuple[PairingPlan, ...]]:
    """The schedules built so far for one (parties, seed), by beta."""
    return {}


def _build_schedule(config: ProtocolConfig, beta: int) -> tuple[PairingPlan, ...]:
    plans = []
    alive = tuple(range(1, config.parties + 1))
    for turn in range(1, config.tree_depth + 1):
        plan = build_pairing(config, beta, turn, alive)
        plans.append(plan)
        alive = plan.survivors
    return tuple(plans)


def tree_role(config: ProtocolConfig, beta: int, party: int) -> TreeRole:
    """`party`'s part in every test against beta: the senders it adds up,
    in turn order, and the survivor it then sends to (None at the root)."""
    sources = []
    for plan in reduction_schedule(config, beta):
        target = plan.mapping.get(party)
        if target is not None:
            return tuple(sources), target
        sources.append(next(s for s, r in plan.mapping.items() if r == party))
    return tuple(sources), None


def tree_divisibility_test(
    config: ProtocolConfig,
    beta: int,
    my_share_residue: int,
    endpoint,
    *,
    test_seq: int = 0,
    role: TreeRole | None = None,
):
    """Steps of one prime's reduction, for endpoint.run; their value is
    True when the candidate survives (the hidden sum is not divisible by
    beta).

    Every party runs these with its own share residue and an agreed
    test_seq.  Each receive is yielded as (phase, from_, round_) and
    answered with the envelope; sends go straight to `endpoint`.  Each
    test owns t + 1 round tags from base = test_seq * (t + 1): the verdict
    broadcast uses base and turn j's residue uses base + j, so no two
    tests share a tag.  A caller that tests several candidates against
    one prime builds this party's tree_role once and passes it as `role`;
    None builds it here.
    """
    me = endpoint.party_id
    sources, target = tree_role(config, beta, me) if role is None else role
    base = test_seq * (config.tree_depth + 1)
    value = my_share_residue % beta
    for turn, source in enumerate(sources, 1):
        env = yield (_TRIAL_DIV, source, base + turn)
        value = (value + decode_natural(env.payload)) % beta
    if target is not None:
        fields = (me, target, _TRIAL_DIV, base + len(sources) + 1, encode_natural(value))
        endpoint.send(new_envelope(Envelope, fields))
        env = yield (_TRIAL_DIV, _ROOT, base)
        return env.payload == b"\x01"
    survives = value != 0
    verdict = b"\x01" if survives else b"\x00"
    endpoint.broadcast(new_envelope(Envelope, (me, BROADCAST, _TRIAL_DIV, base, verdict)))
    return survives
