import math
import random
from collections import Counter

import pytest

from mprsa import (
    FilterOutcome,
    InMemoryNetwork,
    OtContext,
    ParameterError,
    ProtocolConfig,
    ShareSet,
    elect_round_leader,
    filter_contribution,
    filter_round,
    gcd_share_modulus_bits,
    gcd_test,
    jacobi,
    run_filter_test,
)
from mprsa import biprime
from mprsa.hashing import party_rng
from conftest import run_on_fresh_network


def admissible_gammas(N):
    return [
        g for g in range(2, N) if math.gcd(g, N) == 1 and jacobi(g, N) == 1
    ]


def split_into_shares(p, q):
    """Two-party split: special party takes (p-4, q-4), regular takes (4, 4)."""
    return [
        ShareSet(owner=1, p_share=p - 4, q_share=q - 4, special=True),
        ShareSet(owner=2, p_share=4, q_share=4, special=False),
    ]


def pass_fraction(p, q):
    """Exhaustive fraction of admissible gammas the filter product accepts."""
    N = p * q
    exponent = (N + 1 - p - q) // 4
    gammas = admissible_gammas(N)
    passing = sum(1 for g in gammas if pow(g, exponent, N) in (1, N - 1))
    return passing / len(gammas)


class TestFilterContribution:
    def test_contributions_multiply_to_whole_exponent(self):
        # For any valid share split the product telescopes to
        # gamma**((N+1-p-q)/4) mod N.
        N, p, q = 77, 7, 11
        share_sets = split_into_shares(p, q)
        for gamma in admissible_gammas(N):
            product = 1
            for shares in share_sets:
                product = product * filter_contribution(N, shares, gamma) % N
            assert product == pow(gamma, (N + 1 - p - q) // 4, N)

    def test_four_party_split_same_product(self):
        p, q = 19, 23
        N = p * q
        share_sets = [
            ShareSet(owner=1, p_share=3, q_share=3, special=True),
            ShareSet(owner=2, p_share=4, q_share=4, special=False),
            ShareSet(owner=3, p_share=4, q_share=8, special=False),
            ShareSet(owner=4, p_share=8, q_share=8, special=False),
        ]
        assert sum(s.p_share for s in share_sets) == p
        assert sum(s.q_share for s in share_sets) == q
        gamma = 2
        product = 1
        for shares in share_sets:
            product = product * filter_contribution(N, shares, gamma) % N
        assert product == pow(gamma, (N + 1 - p - q) // 4, N)

    def test_integrality_guard(self):
        shares = ShareSet(owner=1, p_share=3, q_share=7, special=True)
        # N = 15 makes the special exponent 15+1-10 = 6, not a multiple of 4
        with pytest.raises(ParameterError):
            filter_contribution(15, shares, 2)


class TestFilterMathematics:
    def test_biprime_accepts_every_admissible_gamma(self):
        # exhaustive completeness at small scale
        for p, q in ((7, 11), (11, 19), (19, 23), (23, 31)):
            assert pass_fraction(p, q) == 1.0, (p, q)

    def test_composite_factors_pass_at_most_half(self):
        # p composite (3 mod 4) makes N a non-biprime of the protocol's shape
        cases = [(15, 7), (15, 11), (27, 7), (35, 11), (15, 19), (51, 7)]
        for p, q in cases:
            assert pass_fraction(p, q) <= 0.5, (p, q)


class TestFilterRounds:
    def run_filter(self, cfg, N, share_sets, *, attempt=1, single_round=None):
        def fn(party):
            def run(ep):
                rng = party_rng(cfg.seed, party)
                if single_round is not None:
                    leader = elect_round_leader(cfg, single_round, attempt=attempt)
                    return filter_round(
                        single_round, leader, N, share_sets[party - 1], ep, rng
                    )
                return run_filter_test(
                    cfg, N, share_sets[party - 1], ep, rng, attempt=attempt
                )

            return run

        results, _ = run_on_fresh_network(
            cfg.parties, {p: fn(p) for p in range(1, cfg.parties + 1)}
        )
        values = list(results.values())
        assert all(bool(v) == bool(values[0]) for v in values)
        return results[1]

    def test_biprime_accepted_for_many_rounds(self):
        cfg = ProtocolConfig(parties=2, bits=8, filter_rounds=20, seed=b"\x10")
        outcome = self.run_filter(cfg, 77, split_into_shares(7, 11))
        assert outcome.accepted and outcome.rounds_run == 20
        assert len(outcome.leaders) == 20

    def test_single_round_equals_s_one(self):
        cfg1 = ProtocolConfig(parties=2, bits=8, filter_rounds=1, seed=b"\x11")
        outcome = self.run_filter(cfg1, 77, split_into_shares(7, 11))
        single = self.run_filter(cfg1, 77, split_into_shares(7, 11), single_round=1)
        assert outcome.accepted == single is True

    def test_non_biprime_rejected_quickly(self):
        cfg = ProtocolConfig(parties=2, bits=8, filter_rounds=20, seed=b"\x12")
        outcome = self.run_filter(cfg, 7 * 15, split_into_shares(7, 15))
        assert not outcome.accepted
        assert outcome.rounds_run <= 10  # each round rejects with p >= 1/2

    def test_each_round_leader_elected_once(self, monkeypatch):
        # each party hashes each round's election input once; the steps
        # may run on any thread, so the calls are told apart by input
        calls = Counter()
        original = biprime.hash_to_range

        def counted(data, m):
            calls[data] += 1
            return original(data, m)

        monkeypatch.setattr(biprime, "hash_to_range", counted)
        cfg = ProtocolConfig(parties=2, bits=8, filter_rounds=5, seed=b"\x10")
        outcome = self.run_filter(cfg, 77, split_into_shares(7, 11))
        assert outcome.accepted and outcome.rounds_run == 5
        assert calls == {b"\x10|gamma|%d|1" % r: 2 for r in range(1, 6)}

    def test_leader_election_deterministic_and_in_range(self):
        cfg = ProtocolConfig(parties=8, bits=16, seed=b"\x13")
        leaders = [elect_round_leader(cfg, r, attempt=1) for r in range(1, 30)]
        assert all(1 <= leader <= 8 for leader in leaders)
        assert leaders == [elect_round_leader(cfg, r, attempt=1) for r in range(1, 30)]
        assert len(set(leaders)) > 1  # rotates across rounds
        salted = [elect_round_leader(cfg, r, attempt=5) for r in range(1, 30)]
        assert salted != leaders


class TestGcdTest:
    def run_gcd(self, cfg, N, share_sets, *, seed_base=0):
        traces = {}

        def fn(party):
            def run(ep):
                trace = {}
                verdict = gcd_test(
                    cfg,
                    N,
                    share_sets[party - 1],
                    OtContext(ep),
                    ep,
                    random.Random(seed_base + party),
                    trace=trace,
                )
                traces[party] = trace
                return verdict

            return run

        results, _ = run_on_fresh_network(
            cfg.parties, {p: fn(p) for p in range(1, cfg.parties + 1)}
        )
        assert len(set(results.values())) == 1
        return results[1], traces

    def test_shared_factor_with_p_plus_q_minus_one_always_rejects(self):
        # p = 7, q = 15: p + q - 1 = 21 shares the factor 7 with N = 105,
        # so G is a multiple of 21 and the verdict is false for every r.
        cfg = ProtocolConfig(parties=2, bits=8, seed=b"\x20")
        for seed_base in range(5):
            verdict, _ = self.run_gcd(
                cfg, 105, split_into_shares(7, 15), seed_base=seed_base
            )
            assert verdict is False

    def test_biprime_accepted(self):
        cfg = ProtocolConfig(parties=2, bits=8, seed=b"\x21")
        verdict, _ = self.run_gcd(cfg, 77, split_into_shares(7, 11), seed_base=40)
        assert verdict is True

    def test_reconstruction_identity(self):
        cfg = ProtocolConfig(parties=4, bits=16, seed=b"\x22")
        rng = random.Random(5)
        for trial in range(5):
            share_sets = [
                ShareSet(
                    owner=i,
                    p_share=4 * rng.randrange(1, 1 << 14) + (3 if i == 1 else 0),
                    q_share=4 * rng.randrange(1, 1 << 14) + (3 if i == 1 else 0),
                    special=i == 1,
                )
                for i in range(1, 5)
            ]
            p = sum(s.p_share for s in share_sets)
            q = sum(s.q_share for s in share_sets)
            N = p * q
            verdict, traces = self.run_gcd(cfg, N, share_sets, seed_base=trial * 10)
            r_total = sum(traces[party]["r"] for party in traces)
            expected = r_total * (p + q - 1) % N
            for party in traces:
                assert traces[party]["combined"] == expected
            assert verdict == (math.gcd(expected, N) == 1)

    def test_share_width_covers_worst_case(self):
        for n, bits in ((2, 8), (4, 16), (8, 32)):
            cfg = ProtocolConfig(parties=n, bits=bits, seed=b"\x23")
            max_candidate = n * ((1 << bits) - 1)
            max_modulus = max_candidate * max_candidate
            worst_total = (n * (max_modulus - 1)) * (2 * max_candidate - 1)
            assert worst_total < 1 << gcd_share_modulus_bits(cfg)
