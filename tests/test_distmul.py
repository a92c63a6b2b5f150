import itertools
import random
import threading

import pytest

from mprsa import (
    InMemoryNetwork,
    OtContext,
    ParameterError,
    Phase,
    ProtocolConfig,
    ProtocolDesync,
    ShareSet,
    compute_modulus,
    distr_product,
    gcd_share_modulus_bits,
    product_of_sums,
    run_mediator,
    run_parties,
    share_modulus_bits,
)
from mprsa.ot import _HEADER as OT_HEADER, batch_capacity
from mprsa.wire import MEDIATOR
from conftest import run_on_fresh_network

# chi-square critical value at the 5% level with 255 degrees of freedom
CHI2_255_05 = 293.25

# the kind byte of a mediator request
LOAD, CHOOSE = 1, 2


def run_products(cases, share_bits, *, phase=Phase.DIST_MUL, seed=0):
    """Run a batch of two-party products (a on party 1, b on party 2) over
    one network; returns [(s1, s2), ...]."""
    outputs = []

    def holder_a(ep):
        ot = OtContext(ep)
        rng = random.Random(seed)
        return [
            distr_product(1, 2, a, l, share_bits, ot, ep, phase=phase, rng=rng).value
            for a, _b, l in cases
        ]

    def holder_b(ep):
        ot = OtContext(ep)
        return [
            distr_product(1, 2, b, l, share_bits, ot, ep, phase=phase).value
            for _a, b, l in cases
        ]

    results, _ = run_on_fresh_network(2, {1: holder_a, 2: holder_b})
    for s1, s2 in zip(results[1], results[2]):
        outputs.append((s1, s2))
    return outputs


class TestDistrProduct:
    def test_worked_example(self):
        ((s1, s2),) = run_products([(5, 3, 3)], 8)
        assert (s1 + s2) % 256 == 15

    def test_zero_multiplicand(self):
        ((s1, s2),) = run_products([(9, 0, 4)], 8)
        assert (s1 + s2) % 256 == 0

    def test_exhaustive_four_bits(self):
        cases = [(a, b, 4) for a, b in itertools.product(range(16), repeat=2)]
        for (a, b, _), (s1, s2) in zip(cases, run_products(cases, 8)):
            assert (s1 + s2) % 256 == (a * b) % 256, (a, b)

    def test_randomized_wide(self):
        rng = random.Random(21)
        for l, runs in ((16, 40), (32, 40)):
            share_bits = 2 * l
            cases = [
                (rng.randrange(1 << l), rng.randrange(1 << l), l) for _ in range(runs)
            ]
            for (a, b, _), (s1, s2) in zip(cases, run_products(cases, share_bits)):
                assert (s1 + s2) % (1 << share_bits) == a * b

    def test_b_value_must_fit_width(self):
        net = InMemoryNetwork(2)
        ep = net.endpoint(2)
        with pytest.raises(ParameterError):
            distr_product(1, 2, 16, 4, 8, OtContext(ep), ep)

    def test_masking_side_needs_rng(self):
        net = InMemoryNetwork(2)
        ep = net.endpoint(1)
        with pytest.raises(ParameterError):
            distr_product(1, 2, 3, 4, 8, OtContext(ep), ep)

    def test_outsider_rejected(self):
        net = InMemoryNetwork(4)
        ep = net.endpoint(3)
        with pytest.raises(ParameterError):
            distr_product(1, 2, 3, 4, 8, OtContext(ep), ep)

    def test_mismatched_widths_detected(self):
        # If the parties disagree on the loop width, their first batches
        # announce different transfer counts on the same channel and first
        # round tag, and the mediator faults the receiver.
        def holder_a(ep):
            ot = OtContext(ep)
            rng = random.Random(1)
            distr_product(1, 2, 3, 2, 8, ot, ep, rng=rng)
            distr_product(1, 2, 3, 2, 8, ot, ep, rng=rng)
            return True

        def holder_b(ep):
            ot = OtContext(ep)
            distr_product(1, 2, 3, 3, 8, ot, ep)  # expects one more bit
            return True

        with pytest.raises(ProtocolDesync):
            run_on_fresh_network(2, {1: holder_a, 2: holder_b}, timeout=30)

    def test_gcd_sized_product_split_under_frame_limit(self):
        # k=1024: the gcd loop runs over the 2048 bits of N with 3076-bit
        # shares, so one LOAD of every mask pair would exceed MAX_PAYLOAD
        bit_width, share_bits = 2048, 3076
        assert bit_width > batch_capacity(share_bits)
        rng = random.Random(41)
        a, b = rng.getrandbits(1026), rng.getrandbits(bit_width)
        ((s1, s2),) = run_products([(a, b, bit_width)], share_bits)
        assert (s1 + s2) % (1 << share_bits) == a * b

    def test_chosen_masks_are_uniform(self):
        # 10^4 single-bit sessions with b = 1: the value the choosing side
        # sees is mask + a and must be uniform on [0, 256).
        sessions = 10_000
        cases = [(57, 1, 1)] * sessions
        counts = [0] * 256
        for _s1, s2 in run_products(cases, 8, seed=99):
            counts[s2] += 1
        expected = sessions / 256
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < CHI2_255_05, chi2


class TestCrossTerms:
    def run_sum_product(self, xy_pairs, bit_width, share_bits, seed=0):
        """Run product_of_sums with party i holding xy_pairs[i-1]; returns
        {party: result}."""

        def fn(x, y):
            def run(ep):
                return product_of_sums(
                    x, y, bit_width, share_bits, OtContext(ep), ep,
                    phase=Phase.DIST_MUL, rng=random.Random(seed + ep.party_id),
                )

            return run

        results, _ = run_on_fresh_network(
            len(xy_pairs),
            {i: fn(x, y) for i, (x, y) in enumerate(xy_pairs, start=1)},
        )
        return results

    def run_pair(self, shares_i, shares_j, bits, share_bits):
        results = self.run_sum_product(
            [(s.p_share, s.q_share) for s in (shares_i, shares_j)], bits, share_bits
        )
        assert results[1] == results[2]
        return results[1]

    def test_worked_example(self):
        # shares (p_i, q_i) = (4, 8) and (p_j, q_j) = (7, 3): the product
        # (4+7)(8+3) = 121 is the local terms 4*8 + 7*3 plus the cross
        # terms p_i*q_j + p_j*q_i = 4*3 + 7*8 = 68
        shares_i = ShareSet(owner=1, p_share=4, q_share=8, special=False)
        shares_j = ShareSet(owner=2, p_share=7, q_share=3, special=True)
        assert self.run_pair(shares_i, shares_j, 4, 10) == 121 == 4 * 8 + 7 * 3 + 68

    def test_zero_p_shares(self):
        shares_i = ShareSet(owner=1, p_share=4, q_share=8, special=False)
        shares_j = ShareSet(owner=2, p_share=8, q_share=4, special=False)
        assert self.run_pair(shares_i, shares_j, 4, 12) == (4 + 8) * (8 + 4)

    def test_recombination_randomized(self):
        rng = random.Random(31)
        for _ in range(15):
            pi, qi = 4 * rng.randrange(1, 16), 4 * rng.randrange(1, 16)
            pj, qj = 4 * rng.randrange(1, 16) + 3, 4 * rng.randrange(1, 16) + 3
            shares_i = ShareSet(owner=1, p_share=pi, q_share=qi, special=False)
            shares_j = ShareSet(owner=2, p_share=pj, q_share=qj, special=True)
            assert self.run_pair(shares_i, shares_j, 7, 16) == (pi + pj) * (qi + qj)

    def test_role_assignment_symmetric(self):
        # handing the same share sets to opposite endpoints must not
        # change the recombined value
        shares_a = ShareSet(owner=1, p_share=12, q_share=20, special=False)
        shares_b = ShareSet(owner=2, p_share=15, q_share=7, special=True)
        forward = self.run_pair(shares_a, shares_b, 6, 14)
        swapped = self.run_pair(
            ShareSet(owner=1, p_share=15, q_share=7, special=True),
            ShareSet(owner=2, p_share=12, q_share=20, special=False),
            6,
            14,
        )
        assert forward == swapped == (12 + 15) * (20 + 7)

    @pytest.mark.parametrize("n", [4, 8])
    def test_gcd_shaped_many_parties(self, n):
        # the gcd test's shape: x is a share sum p_i + q_i, y is as wide
        # as the largest N, and the shares live modulo gcd_share_modulus_bits
        cfg = ProtocolConfig(parties=n, bits=16, seed=b"\x05")
        share_bits = gcd_share_modulus_bits(cfg)
        bit_width = 2 * cfg.bits + 2 * cfg.tree_depth
        rng = random.Random(n)
        xy_pairs = [
            (rng.randrange(1 << (cfg.bits + 1)), rng.randrange(1 << bit_width))
            for _ in range(n)
        ]
        results = self.run_sum_product(xy_pairs, bit_width, share_bits, seed=10 * n)
        expected = sum(x for x, _ in xy_pairs) * sum(y for _, y in xy_pairs)
        assert set(results.values()) == {expected % (1 << share_bits)}


class TestComputeModulus:
    def run_modulus(self, cfg, share_sets, record_transcripts=False):
        def fn(party):
            def run(ep):
                return compute_modulus(
                    cfg,
                    share_sets[party - 1],
                    OtContext(ep),
                    ep,
                    rng=random.Random(party * 7),
                )

            return run

        results, network = run_on_fresh_network(
            cfg.parties,
            {p: fn(p) for p in range(1, cfg.parties + 1)},
            record_transcripts=record_transcripts,
        )
        values = set(results.values())
        assert len(values) == 1
        return values.pop(), network

    def test_worked_example_two_party(self):
        cfg = ProtocolConfig(parties=2, bits=8, seed=b"\x01")
        share_sets = [
            ShareSet(owner=1, p_share=3, q_share=7, special=True),
            ShareSet(owner=2, p_share=4, q_share=4, special=False),
        ]
        modulus, _ = self.run_modulus(cfg, share_sets)
        assert modulus == 7 * 11 == 77

    def test_reconstruction_random(self):
        for n, bits, trials in ((2, 16, 12), (4, 16, 8), (8, 16, 4)):
            cfg = ProtocolConfig(parties=n, bits=bits, seed=b"\x02")
            for trial in range(trials):
                rng = random.Random(100 * n + trial)
                share_sets = [
                    ShareSet(
                        owner=i,
                        p_share=4 * rng.randrange(1, 1 << (bits - 2)) + (3 if i == 1 else 0),
                        q_share=4 * rng.randrange(1, 1 << (bits - 2)) + (3 if i == 1 else 0),
                        special=i == 1,
                    )
                    for i in range(1, n + 1)
                ]
                p = sum(s.p_share for s in share_sets)
                q = sum(s.q_share for s in share_sets)
                modulus, _ = self.run_modulus(cfg, share_sets)
                assert modulus == p * q

    def test_share_modulus_width_covers_product(self):
        for n, bits in ((2, 8), (4, 16), (8, 32)):
            cfg = ProtocolConfig(parties=n, bits=bits, seed=b"\x03")
            max_sum = n * ((1 << bits) - 1)
            assert max_sum * max_sum < 1 << share_modulus_bits(cfg)

    def test_every_party_broadcasts_before_collecting(self):
        cfg = ProtocolConfig(parties=4, bits=8, seed=b"\x04")
        rng = random.Random(17)
        share_sets = [
            ShareSet(
                owner=i,
                p_share=4 * rng.randrange(1, 64) + (3 if i == 1 else 0),
                q_share=4 * rng.randrange(1, 64) + (3 if i == 1 else 0),
                special=i == 1,
            )
            for i in range(1, 5)
        ]
        _, network = self.run_modulus(cfg, share_sets, record_transcripts=True)
        for party in range(1, 5):
            mul_events = [
                (d, env) for d, env in network.transcript(party) if env.phase == Phase.DIST_MUL
            ]
            assert mul_events[0][0] == "send"  # own blinded total goes out first
            assert all(d == "recv" for d, _env in mul_events[1:])

    @pytest.mark.parametrize("n", [4, 8])
    def test_every_party_loads_before_it_chooses_in_each_round(self, n):
        # one batch per product here, so each of the n-1 rounds is one
        # LOAD (the party masks for party i+r) and then one CHOOSE (party
        # i-r masks for it); the header's other endpoint names that party
        cfg = ProtocolConfig(parties=n, bits=8, seed=b"\x04")
        share_sets = [
            ShareSet(owner=i, p_share=4 * i + 3 * (i == 1), q_share=8 * i + 3 * (i == 1),
                     special=i == 1)
            for i in range(1, n + 1)
        ]
        _, network = self.run_modulus(cfg, share_sets, record_transcripts=True)
        for party in range(1, n + 1):
            headers = [
                OT_HEADER.unpack_from(env.payload)[:2]
                for direction, env in network.transcript(party)
                if direction == "send" and env.phase == Phase.OT_CONTROL
            ]
            assert [kind for kind, _ in headers] == [LOAD, CHOOSE] * (n - 1), party
            assert [other for _, other in headers] == [
                (party - 1 + sign * r) % n + 1 for r in range(1, n) for sign in (1, -1)
            ], party

    @pytest.mark.parametrize("n", [4, 8])
    def test_each_party_blocks_at_most_twice(self, monkeypatch, n):
        # a party sends every round's LOAD and CHOOSE before it reads any
        # RESULT, so it can block only on its first RESULT and on the
        # blinded totals; a receive that blocks records its pending
        # receive and then hands the turn on
        blocking = []
        original = InMemoryNetwork._pass_turn

        def counting(net, host):
            if host in net._blocked:
                blocking.append(host)
            original(net, host)

        monkeypatch.setattr(InMemoryNetwork, "_pass_turn", counting)
        cfg = ProtocolConfig(parties=n, bits=16, seed=b"\x05")
        share_sets = [
            ShareSet(owner=i, p_share=4 * i + 3 * (i == 1), q_share=8 * i + 3 * (i == 1),
                     special=i == 1)
            for i in range(1, n + 1)
        ]
        modulus, _ = self.run_modulus(cfg, share_sets)
        assert modulus == sum(s.p_share for s in share_sets) * sum(s.q_share for s in share_sets)
        per_party = {party: blocking.count(party) for party in range(1, n + 1)}
        assert max(per_party.values()) <= 2, per_party


@pytest.mark.parametrize("share_bits", [38, 1030])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_masks_are_the_draws_of_randrange(share_bits, seed):
    # the masking side's m0 of every transfer is its mask, and the masks
    # must be the values rng.randrange(2**share_bits) would give
    width = (share_bits + 7) // 8
    bit_width = 12
    _, network = run_on_fresh_network(
        2,
        {
            1: lambda ep: distr_product(
                1, 2, 5, bit_width, share_bits, OtContext(ep), ep, rng=random.Random(seed)
            ),
            2: lambda ep: distr_product(1, 2, 9, bit_width, share_bits, OtContext(ep), ep),
        },
        record_transcripts=True,
    )
    ((_, env),) = [t for t in network.transcript(1) if t[0] == "send"]
    body = env.payload[OT_HEADER.size :]
    masks = [
        int.from_bytes(body[2 * e * width : (2 * e + 1) * width], "little")
        for e in range(bit_width)
    ]
    expected = random.Random(seed)
    assert masks == [expected.randrange(2**share_bits) for _ in range(bit_width)]
