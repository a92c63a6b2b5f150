import random
from collections import Counter

import pytest

from mprsa import (
    ParameterError,
    ProtocolConfig,
    ShareSet,
    designate_special,
    generate_shares,
)


def config_for(n, bits=16, seed=b"\x01"):
    return ProtocolConfig(parties=n, bits=bits, seed=seed)


class TestConfigValidation:
    def test_party_count_must_be_power_of_two(self):
        for bad in (0, 1, 3, 6, 12):
            with pytest.raises(ParameterError):
                ProtocolConfig(parties=bad, bits=16)

    def test_party_ids_stay_below_the_mediator(self):
        # party 65535 would be MEDIATOR (0xFFFF), and 65536 fits no id field
        with pytest.raises(ParameterError):
            ProtocolConfig(parties=1 << 16, bits=16)
        assert ProtocolConfig(parties=1 << 15, bits=16).tree_depth == 15

    def test_other_bounds(self):
        with pytest.raises(ParameterError):
            ProtocolConfig(parties=2, bits=7)
        with pytest.raises(ParameterError):
            ProtocolConfig(parties=2, bits=16, trial_bound=2)
        with pytest.raises(ParameterError):
            ProtocolConfig(parties=2, bits=16, filter_rounds=0)

    def test_tree_depth(self):
        for t in (1, 2, 3, 4):
            assert config_for(2**t).tree_depth == t


class TestShareSetInvariants:
    def test_special_residue_enforced(self):
        ShareSet(owner=1, p_share=3, q_share=7, special=True)
        with pytest.raises(ParameterError):
            ShareSet(owner=1, p_share=4, q_share=7, special=True)

    def test_regular_residue_enforced(self):
        ShareSet(owner=2, p_share=4, q_share=8, special=False)
        with pytest.raises(ParameterError):
            ShareSet(owner=2, p_share=3, q_share=8, special=False)

    def test_floors(self):
        with pytest.raises(ParameterError):
            ShareSet(owner=2, p_share=0, q_share=4, special=False)


class TestGenerateShares:
    def test_special_shares_are_3_mod_4(self, rng):
        cfg = config_for(4)
        for _ in range(50):
            shares = generate_shares(cfg, 1, True, rng)
            assert shares.p_share % 4 == 3
            assert shares.q_share % 4 == 3

    def test_regular_shares_are_0_mod_4(self, rng):
        cfg = config_for(4)
        for _ in range(50):
            shares = generate_shares(cfg, 2, False, rng)
            assert shares.p_share % 4 == 0
            assert shares.q_share % 4 == 0

    def test_shares_stay_below_two_to_the_bits(self, rng):
        cfg = config_for(2, bits=8)
        for _ in range(300):
            for special in (True, False):
                shares = generate_shares(cfg, 1, special, rng)
                assert 1 <= shares.p_share < 1 << cfg.bits
                assert 1 <= shares.q_share < 1 << cfg.bits

    def test_reconstructed_sums_are_3_mod_4(self):
        # one special party, the rest regular: sums must land on 3 mod 4
        for t in (1, 2, 3):
            n = 2**t
            cfg = config_for(n)
            for seed in range(30):
                rng = random.Random(seed)
                all_shares = [
                    generate_shares(cfg, i, i == 1, rng) for i in range(1, n + 1)
                ]
                p = sum(s.p_share for s in all_shares)
                q = sum(s.q_share for s in all_shares)
                assert p % 4 == 3 and q % 4 == 3

    def test_sum_magnitude_bound(self):
        for t in (1, 2, 3):
            n = 2**t
            cfg = config_for(n, bits=12)
            rng = random.Random(t)
            for _ in range(50):
                all_shares = [
                    generate_shares(cfg, i, i == 1, rng) for i in range(1, n + 1)
                ]
                assert sum(s.p_share for s in all_shares) < n << cfg.bits
                assert sum(s.q_share for s in all_shares) < n << cfg.bits


class TestDesignateSpecial:
    def test_deterministic_and_in_range(self):
        cfg = config_for(8, seed=b"\xaa\xbb")
        first = designate_special(cfg)
        assert 1 <= first <= 8
        assert all(designate_special(cfg) == first for _ in range(10))

    def test_frequency_roughly_uniform_over_seeds(self):
        n = 4
        tally = Counter()
        for seed_int in range(1000):
            cfg = config_for(n, seed=seed_int.to_bytes(4, "big"))
            tally[designate_special(cfg)] += 1
        for party in range(1, n + 1):
            assert abs(tally[party] / 1000 - 1 / n) <= 0.05
