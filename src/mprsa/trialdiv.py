"""Fast trial division of the hidden candidate sums by small primes.

The n-party path is a tree reduction: in each of t = log2(n) turns half
the active parties send their residue accumulators to partners picked by
a shared hash of (seed, beta, turn), so after t turns party 1 holds
sum(p_i) mod beta and broadcasts the verdict.  Pairings cost no traffic
and stay fixed across attempts, so a party derives them once per run.

Residues travel in the clear: a survivor learns partial share sums mod
beta, and party 1 learns p mod beta for every prime tested, so for an
accepted candidate it knows p (and q) modulo the product of all trial
primes - p itself whenever p is smaller.
"""

from dataclasses import dataclass

from .errors import ParameterError
from .hashing import hash_to_range
from .shares import ProtocolConfig
from .wire import BROADCAST, Envelope, Phase, decode_natural, encode_natural

_ASSIGN_SCAN_CAP = 1 << 16


@dataclass(frozen=True, slots=True)
class PairingPlan:
    """Who sends to whom in one turn of one prime's reduction tree."""

    turn: int
    survivors: tuple[int, ...]
    mapping: dict[int, int]  # non-survivor -> survivor

    def sender_to(self, survivor: int) -> int:
        for sender, target in self.mapping.items():
            if target == survivor:
                return sender
        raise ParameterError(f"{survivor} receives nothing in turn {self.turn}")


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


def reduction_schedule(config: ProtocolConfig, beta: int) -> list[PairingPlan]:
    """All t pairing plans for one prime, applied turn by turn."""
    plans = []
    alive = tuple(range(1, config.parties + 1))
    for turn in range(1, config.tree_depth + 1):
        plan = build_pairing(config, beta, turn, alive)
        plans.append(plan)
        alive = plan.survivors
    return plans


def tree_divisibility_test(
    config: ProtocolConfig,
    beta: int,
    my_share_residue: int,
    endpoint,
    *,
    test_seq: int = 0,
    plans: list[PairingPlan] | None = None,
) -> bool:
    """Run one prime's reduction; True means the candidate survives
    (the hidden sum is not divisible by beta).

    Every party calls this with its own share residue and an agreed
    test_seq.  Each test owns t + 1 round tags from base = test_seq * (t + 1):
    the verdict broadcast uses base and turn j's residue uses base + j, so
    no two tests share a tag.  A caller that tests several candidates
    against one prime builds its reduction_schedule once and passes it as
    `plans`; None builds it here.
    """
    me = endpoint.party_id
    if plans is None:
        plans = reduction_schedule(config, beta)
    base = test_seq * (len(plans) + 1)
    value = my_share_residue % beta
    for plan in plans:
        target = plan.mapping.get(me)
        if target is not None:
            endpoint.send(
                Envelope(me, target, Phase.TRIAL_DIV, base + plan.turn, encode_natural(value))
            )
            verdict = endpoint.receive(
                Phase.TRIAL_DIV, from_=plans[-1].survivors[0], round_=base
            )
            return verdict.payload == b"\x01"
        env = endpoint.receive(
            Phase.TRIAL_DIV, from_=plan.sender_to(me), round_=base + plan.turn
        )
        value = (value + decode_natural(env.payload)) % beta
    survives = value != 0
    endpoint.broadcast(
        Envelope(me, BROADCAST, Phase.TRIAL_DIV, base, b"\x01" if survives else b"\x00")
    )
    return survives
