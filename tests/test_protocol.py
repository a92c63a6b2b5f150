import hashlib
import random

import pytest

from mprsa import (
    GaveUp,
    ParameterError,
    ProtocolConfig,
    SecrecyError,
    ShareSet,
    assert_counts,
    designate_special,
    is_probable_prime,
    reconstruct_for_test,
    records_to_jsonl,
    run_in_memory,
)
from conftest import ScriptedRandom


def small_config(seed=b"\x01", **overrides):
    base = dict(parties=2, bits=16, trial_bound=50, filter_rounds=5, seed=seed)
    base.update(overrides)
    return ProtocolConfig(**base)


class TestReconstructForTest:
    def test_worked_example(self):
        share_sets = [
            ShareSet(owner=1, p_share=3, q_share=7, special=True),
            ShareSet(owner=2, p_share=4, q_share=4, special=False),
        ]
        assert reconstruct_for_test(share_sets, test_mode=True) == (7, 11)

    def test_sums_keep_trailing_bits(self):
        rng = random.Random(0)
        cfg = small_config()
        from mprsa import generate_shares

        share_sets = [generate_shares(cfg, i, i == 1, rng) for i in (1, 2)]
        p, q = reconstruct_for_test(share_sets, test_mode=True)
        assert p % 4 == 3 and q % 4 == 3

    def test_refused_outside_test_mode(self):
        share_sets = [ShareSet(owner=1, p_share=3, q_share=3, special=True)]
        with pytest.raises(SecrecyError):
            reconstruct_for_test(share_sets)


class TestRiggedRun:
    def test_known_primes_in_one_attempt(self):
        cfg = ProtocolConfig(
            parties=2, bits=8, trial_bound=10, filter_rounds=5, seed=bytes.fromhex("33")
        )
        special = designate_special(cfg)
        scripts = {special: [1, 1], 3 - special: [1, 3]}  # p = 11, q = 19
        rngs = {p: ScriptedRandom(scripts[p], seed=1000 + p) for p in (1, 2)}
        result = run_in_memory(cfg, rngs=rngs, verify=True)
        assert result.modulus == 209
        assert result.attempts == 1
        assert result.verified is True
        assert (result.p, result.q) == (11, 19)


class TestFullRuns:
    def test_two_party_run_verifies(self):
        result = run_in_memory(small_config(), verify=True)
        assert result.verified is True
        assert result.p * result.q == result.modulus
        assert result.modulus % 4 == 1
        assert result.attempts >= 1
        check = random.Random(1)
        assert is_probable_prime(result.p, 40, rng=check)
        assert is_probable_prime(result.q, 40, rng=check)

    def test_all_parties_agree_on_modulus(self):
        result = run_in_memory(small_config(parties=4, seed=b"\x44"), verify=True)
        moduli = {o.modulus for o in result.outcomes.values()}
        attempts = {o.attempts for o in result.outcomes.values()}
        assert len(moduli) == 1 and len(attempts) == 1
        assert result.verified is True

    def test_gave_up_at_iteration_cap(self):
        cfg = small_config(seed=b"\x00\x00")
        with pytest.raises(GaveUp):
            run_in_memory(cfg, max_attempts=1)

    def test_counters_within_envelope_every_attempt(self):
        cfg = ProtocolConfig(
            parties=4, bits=16, trial_bound=10, filter_rounds=3, seed=b"\x55"
        )
        result = run_in_memory(cfg)
        by_attempt = {}
        for record in result.records:
            by_attempt.setdefault(record.attempt, []).append(record)
        for attempt, records in by_attempt.items():
            report = assert_counts(records, cfg)
            assert report.ok, (attempt, report.violations)

    def test_every_share_set_respects_the_residue_rule(self):
        # the verified reconstruction implies this, but check directly
        cfg = small_config(parties=4, seed=b"\x66")
        result = run_in_memory(cfg, verify=True)
        assert result.p % 4 == 3 and result.q % 4 == 3


class TestDeterminism:
    @pytest.mark.parametrize("parties", [2, 4, 8])
    def test_repeated_runs_are_identical(self, parties):
        cfg = small_config(seed=b"\x77", parties=parties)
        a = run_in_memory(cfg, record_transcripts=True)
        b = run_in_memory(cfg, record_transcripts=True)
        assert a.modulus == b.modulus
        assert a.attempts == b.attempts
        assert records_to_jsonl(a.records) == records_to_jsonl(b.records)
        assert a.transcripts == b.transcripts  # the mediator's included

    @pytest.mark.parametrize(
        "parties, modulus, attempts, records_sha256",
        [
            (2, 2912054149, 36,
             "0a9ca9e6ee3118f71d4ffc1ef2e3f52f2ba9565b6fae0ae808f7d9e716f59fcf"),
            (4, 7645800901, 4,
             "0011456302d24764f9578dbc2868ed11a53d23d6555d3b61ebeacbe1d170627e"),
            (8, 52748331781, 13,
             "b272433de82209deb2bc58ffa2ede3f124d71ca93d40814a5b593772880b09b1"),
        ],
        ids=["2", "4", "8"],
    )
    def test_seed_fixes_modulus_attempts_and_records(
        self, parties, modulus, attempts, records_sha256
    ):
        # a refactor must not move the modulus a seed produces; each of
        # these runs ends in a gcd test
        result = run_in_memory(ProtocolConfig(parties=parties, bits=16, seed=b"\x01"))
        assert result.modulus == modulus
        assert result.attempts == attempts
        digest = hashlib.sha256(records_to_jsonl(result.records).encode()).hexdigest()
        assert digest == records_sha256

    def test_different_seeds_give_different_moduli(self):
        a = run_in_memory(small_config(seed=b"\x01"))
        b = run_in_memory(small_config(seed=b"\x02"))
        assert a.modulus != b.modulus


class TestHarnessPlumbing:
    def test_endpoint_party_mismatch_rejected(self):
        from mprsa import InMemoryNetwork, run_party

        cfg = small_config()
        net = InMemoryNetwork(2)
        with pytest.raises(ParameterError):
            run_party(cfg, 2, net.endpoint(1), random.Random(0))
