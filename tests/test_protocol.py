import hashlib
import random

import pytest

from mprsa import (
    GaveUp,
    MEDIATOR,
    InMemoryNetwork,
    ParameterError,
    Phase,
    ProtocolConfig,
    SecrecyError,
    ShareSet,
    assert_counts,
    designate_special,
    is_probable_prime,
    primes_below,
    protocol,
    reconstruct_for_test,
    reduction_schedule,
    records_to_jsonl,
    run_in_memory,
)
from mprsa.transport import first_match
from mprsa.wire import BROADCAST, encode_envelope
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
    def test_known_primes_in_one_attempt(self, monkeypatch):
        cfg = ProtocolConfig(
            parties=2, bits=8, trial_bound=10, filter_rounds=5, seed=bytes.fromhex("33")
        )
        special = designate_special(cfg)
        scripts = {special: [1, 1], 3 - special: [1, 3]}  # p = 11, q = 19
        monkeypatch.setattr(
            protocol, "party_rng",
            lambda seed, p: ScriptedRandom(scripts[p], seed=1000 + p),
        )
        result = run_in_memory(cfg, verify=True)
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


# parties, modulus, attempts and records sha256 of seed 01 at k=16
SEED_01_PINS = [
    (2, 2912054149, 36,
     "0a9ca9e6ee3118f71d4ffc1ef2e3f52f2ba9565b6fae0ae808f7d9e716f59fcf"),
    (4, 7645800901, 4,
     "0011456302d24764f9578dbc2868ed11a53d23d6555d3b61ebeacbe1d170627e"),
    (8, 52748331781, 13,
     "b272433de82209deb2bc58ffa2ede3f124d71ca93d40814a5b593772880b09b1"),
]


# sha256 of each participant's transcript in the SEED_01_PINS runs, the
# parties in id order and then the mediator; each event is hashed as its
# direction ("send" or "recv") followed by the envelope's frame
SEED_01_TRANSCRIPT_PINS = {
    2: (
        "032fdf4d40b2f326c9c2af4109ab75ef8c067e0fa56228898406b29208d4c32e",
        "0643a6bdf99f11bb1c5681896af9e9a1cfdf029fee55a642d591138e1a90d17f",
        "9f9dad2da4dfe708a72e2df8f9216818cb3bff5f164fd9ec80f5f8604d69f27b",
    ),
    4: (
        "eafd18681e3e2d7ea3bdd08c7b7df0c6d337a73a3e0f4a5ed5623c650ced8c43",
        "24bf7042a24f8ad3183f92fe8d879c01b80c7651034f761867360f9155b77516",
        "d9d292ecb1e4ecafbc99d3ee79948e4a1e7a440ad31815bbc22960eff635071b",
        "e4b7a350c0303d313f2803888deee0e8b8df4c6e679f646a24d674d3145dbbcb",
        "ed8168f7919e0ef7c6153662622855619d7878a86ac5551c94706456271aa74e",
    ),
    8: (
        "03e74535c45f475f44529ef094fac2ae089f38c2cbecc06704ccd04c868b5962",
        "839d20f8c27dc8e588e56c068e7b483eac4290d456aff8de30d5f036bc0be53d",
        "15ed257c8f067a3fd03f5851a398c0b44ffd0bbb143cfadcb26146dcc9aa1aed",
        "ec915ce0acf9ae395fb1f50a477043ab8e524d7cf2b75e9fb8a0dc6c9d9bb397",
        "6c55570d79b381c39a7c10c07050a8149a38f1e29047ecd3446d350b8b2f6a28",
        "9b6e7ef25fa46804bcd09235fbd24b83f3e4f9bb66aeaf75e27bd3c058f761a3",
        "ba06811b0ec73e350310903e55ed6b352282b053d6d4b891b7ea646ee92dba89",
        "5ae1e31b8798a771d75673ee565a2e7aad63e51a5c9e9b070cf6f8fea7ff9f19",
        "53c5b215023ca660cd65e013d418399f52694ac89e284a87fdb02fea1f62a1a8",
    ),
}


def transcript_sha256(events):
    digest = hashlib.sha256()
    for direction, env in events:
        digest.update(direction.encode() + encode_envelope(env))
    return digest.hexdigest()


def shuffled_next_runnable(seed):
    """A stand-in for InMemoryNetwork._next_runnable that picks a
    seeded-random runnable participant instead of the first one in the
    downward ring scan; the hand-over, parked steps included, is kept."""
    order = random.Random(seed)

    def next_runnable(net, actor):
        ready = [
            pid
            for pid in net._ring
            if pid != actor
            and pid not in net._done
            and (
                pid not in net._blocked
                or first_match(net._queues[pid], *net._blocked[pid][:2])
            )
        ]
        return order.choice(ready) if ready else None

    return next_runnable


class TestDeterminism:
    @pytest.mark.parametrize("parties", [2, 4, 8])
    def test_repeated_runs_are_identical(self, parties):
        cfg = small_config(seed=b"\x77", parties=parties)
        a = run_in_memory(cfg, record_transcripts=True, timeout=60)
        b = run_in_memory(cfg, record_transcripts=True, timeout=60)
        assert a.modulus == b.modulus
        assert a.attempts == b.attempts
        assert records_to_jsonl(a.records) == records_to_jsonl(b.records)
        assert a.transcripts == b.transcripts  # the mediator's included

    @pytest.mark.parametrize(
        "parties, modulus, attempts, records_sha256", SEED_01_PINS, ids=["2", "4", "8"]
    )
    def test_seed_fixes_modulus_attempts_and_records(
        self, parties, modulus, attempts, records_sha256
    ):
        # a refactor must not move the modulus a seed produces; each of
        # these runs ends in a gcd test
        result = run_in_memory(
            ProtocolConfig(parties=parties, bits=16, seed=b"\x01"), timeout=60
        )
        assert result.modulus == modulus
        assert result.attempts == attempts
        digest = hashlib.sha256(records_to_jsonl(result.records).encode()).hexdigest()
        assert digest == records_sha256

    @pytest.mark.parametrize("parties", sorted(SEED_01_TRANSCRIPT_PINS))
    def test_seed_fixes_every_transcript(self, parties):
        # a rewrite of a hot path must put byte-identical envelopes on the
        # network in the same order, at every party and at the mediator
        result = run_in_memory(
            ProtocolConfig(parties=parties, bits=16, seed=b"\x01"),
            record_transcripts=True,
            timeout=60,
        )
        participants = list(range(1, parties + 1)) + [MEDIATOR]
        digests = tuple(transcript_sha256(result.transcripts[p]) for p in participants)
        assert digests == SEED_01_TRANSCRIPT_PINS[parties]

    @pytest.mark.parametrize(
        "parties, modulus, attempts, records_sha256", SEED_01_PINS, ids=["2", "4", "8"]
    )
    def test_results_do_not_depend_on_the_turn_order(
        self, monkeypatch, parties, modulus, attempts, records_sha256
    ):
        # every party receives selectively by phase, sender and round, so
        # the order in which runnable participants act must not matter;
        # the mediator serves requests as they arrive, so only the set of
        # its events is fixed
        config = ProtocolConfig(parties=parties, bits=16, seed=b"\x01")
        ring = run_in_memory(config, record_transcripts=True, timeout=60)
        for seed in range(3):
            monkeypatch.setattr(
                InMemoryNetwork, "_next_runnable", shuffled_next_runnable(seed)
            )
            result = run_in_memory(config, record_transcripts=True, timeout=60)
            assert result.modulus == modulus
            assert result.attempts == attempts
            digest = hashlib.sha256(records_to_jsonl(result.records).encode()).hexdigest()
            assert digest == records_sha256
            for party in range(1, parties + 1):
                assert result.transcripts[party] == ring.transcripts[party]
            assert sorted(result.transcripts[MEDIATOR]) == sorted(ring.transcripts[MEDIATOR])

    def test_sixteen_parties_verify_and_repeat(self):
        cfg = ProtocolConfig(parties=16, bits=32, seed=b"\x02")
        a = run_in_memory(cfg, verify=True, timeout=60)
        b = run_in_memory(cfg, verify=True, timeout=60)
        assert a.verified is True
        assert a.modulus == b.modulus
        assert records_to_jsonl(a.records) == records_to_jsonl(b.records)
        by_attempt = {}
        for record in a.records:
            by_attempt.setdefault(record.attempt, []).append(record)
        assert len(by_attempt) == a.attempts
        for attempt, records in by_attempt.items():
            assert len(records) == 16
            report = assert_counts(records, cfg)
            assert report.ok, (attempt, report.violations)

    def test_different_seeds_give_different_moduli(self):
        a = run_in_memory(small_config(seed=b"\x01"), timeout=60)
        b = run_in_memory(small_config(seed=b"\x02"), timeout=60)
        assert a.modulus != b.modulus


class TestTrialDivisionPairing:
    @pytest.mark.parametrize("parties", [4, 8])
    def test_residues_follow_the_unsalted_schedule(self, parties):
        # every attempt pairs the parties exactly as reduction_schedule does
        # for (seed, beta, turn): test seq s tests primes[s // 2], and its
        # turn j residue travels in round s * (t + 1) + j
        config = ProtocolConfig(parties=parties, bits=16, seed=b"\x01")
        result = run_in_memory(config, record_transcripts=True)
        assert result.attempts > 1
        primes = primes_below(config.trial_bound)
        stride = config.tree_depth + 1
        residues = 0
        for party in range(1, parties + 1):
            for direction, env in result.transcripts[party]:
                if direction != "send" or env.phase != Phase.TRIAL_DIV or env.to == BROADCAST:
                    continue
                seq, turn = divmod(env.round, stride)
                plans = reduction_schedule(config, primes[seq // 2])
                assert env.to == plans[turn - 1].mapping[env.sender]
                residues += 1
        assert residues > 0


class TestHarnessPlumbing:
    def test_endpoint_party_mismatch_rejected(self):
        from mprsa import InMemoryNetwork, run_party

        cfg = small_config()
        net = InMemoryNetwork(2)
        with pytest.raises(ParameterError):
            run_party(cfg, 2, net.endpoint(1), random.Random(0))
