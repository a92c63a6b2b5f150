"""What a participant can rebuild from its own view of a run.

A view is a participant's transcript from `run_in_memory(...,
record_transcripts=True)`: the envelopes it sent and took, plus the
shares the participant drew itself.  Both spies below succeed: they pin
the two places where the protocol as written hands out the factors.
Party 1, the root of every reduction tree, learns p and q modulo every
trial prime of the accepted attempt, which the CRT turns into p and q.
The trusted OT mediator sees each sender's input in every LOAD pair and
each receiver's bits in every CHOOSE.  A mode that closes a leak must
make its spy fail.
"""

import struct

import pytest

from mprsa import Phase, ProtocolConfig, protocol, run_in_memory
from mprsa.distmul import share_modulus_bits
from mprsa.numtheory import primes_below
from mprsa.wire import MEDIATOR, decode_natural

# kind, other endpoint, phase, count - the header of every mediator request
OT_HEADER = struct.Struct(">BHBI")
LOAD, CHOOSE = 1, 2
BITS = {2: 64, 4: 64, 8: 32}  # candidate bits per party count


@pytest.fixture(scope="module", params=sorted(BITS))
def spied(request):
    """Seed 01 at n = request.param with transcripts on: the config, the
    verified result, and the shares each party drew in its last attempt."""
    drawn = {}
    draw = protocol.generate_shares

    def recording(config, party, special, rng):
        drawn[party] = draw(config, party, special, rng)
        return drawn[party]

    parties = request.param
    config = ProtocolConfig(parties=parties, bits=BITS[parties], seed=b"\x01")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "generate_shares", recording)
        result = run_in_memory(config, verify=True, record_transcripts=True)
    assert result.verified
    return config, result, drawn


def received(result, participant):
    """The envelopes `participant` took, in the order it took them."""
    return [env for direction, env in result.transcripts[participant] if direction == "recv"]


def crt(residues):
    """The x mod prod(m) with x = r (mod m) for every (r, m)."""
    x, modulus = 0, 1
    for r, m in residues:
        x += modulus * ((r - x) * pow(modulus, -1, m) % m)
        modulus *= m
    return x


def test_root_rebuilds_p_and_q(spied):
    config, result, drawn = spied
    # TRIAL_DIV residues reach party 1 in rising round tags within an
    # attempt; the tags start again with each attempt's first test
    attempts, last_round = [], None
    for env in received(result, 1):
        if env.phase == Phase.TRIAL_DIV:
            if last_round is None or env.round <= last_round:
                attempts.append({})
            # test s owns tags s * (t + 1) .. s * (t + 1) + t
            seq = env.round // (config.tree_depth + 1)
            attempts[-1][seq] = attempts[-1].get(seq, 0) + decode_natural(env.payload)
            last_round = env.round
    accepted, own = attempts[-1], drawn[1]
    primes = primes_below(config.trial_bound)
    # the accepted attempt tests p (even tests) and q (odd) against every prime
    assert sorted(accepted) == list(range(2 * len(primes)))
    rebuilt = [
        crt([((share + accepted[2 * i + offset]) % beta, beta) for i, beta in enumerate(primes)])
        for offset, share in enumerate((own.p_share, own.q_share))
    ]
    assert rebuilt == [result.p, result.q]


def test_mediator_rebuilds_p_and_q(spied):
    config, result, _ = spied
    share_bits = share_modulus_bits(config)
    width = (share_bits + 7) // 8
    # each party's last DIST_MUL requests belong to the final
    # compute_modulus; at these sizes a product is one batch
    loads, chooses = {}, {}
    for env in received(result, MEDIATOR):
        kind, _, phase, count = OT_HEADER.unpack_from(env.payload)
        if phase == Phase.DIST_MUL:
            requests = {LOAD: loads, CHOOSE: chooses}[kind]
            requests[env.sender] = (count, env.payload[OT_HEADER.size :])
    assert sorted(loads) == sorted(chooses) == list(range(1, config.parties + 1))
    p = q = 0
    for count, body in loads.values():
        assert count == config.bits and len(body) == 2 * count * width
        # every pair is (mask, mask + p_i) mod 2**share_bits
        m = [int.from_bytes(body[i : i + width], "little") for i in range(0, len(body), width)]
        [p_share] = {(m1 - m0) % (1 << share_bits) for m0, m1 in zip(m[::2], m[1::2])}
        p += p_share
    for _, bits in chooses.values():
        # the choice bits are q_i itself
        q += int.from_bytes(bits, "little")
    assert (p, q) == (result.p, result.q)
