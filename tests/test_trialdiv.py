import hashlib
import random
from collections import Counter

import pytest

from mprsa import (
    Envelope,
    ParameterError,
    ProtocolConfig,
    build_pairing,
    generate_shares,
    hash_to_range,
    primes_below,
    reduction_schedule,
    run_parties,
    tree_divisibility_test,
    tree_role,
    trialdiv,
)
from mprsa.streamnet import StreamEndpoint
from mprsa.wire import BROADCAST, encode_envelope, encode_natural
from conftest import run_on_fresh_network


def config_for(n, seed=b"\x07", trial_bound=100):
    return ProtocolConfig(parties=n, bits=16, trial_bound=trial_bound, seed=seed)


def fold_residues(plans, residues, beta):
    """Pure twin of the networked reduction: apply every turn's merges and
    return the final party's accumulator."""
    values = {party: residue % beta for party, residue in residues.items()}
    for plan in plans:
        for dropped, target in plan.mapping.items():
            values[target] = (values[target] + values[dropped]) % beta
    (final,) = plans[-1].survivors if plans else (min(values),)
    return values[final]


def run_tree(config, beta, residues, *, test_seq=0):
    """Run the networked reduction for one residue tuple; all parties must agree."""

    def party_fn(party):
        return lambda ep: tree_divisibility_test(
            config, beta, residues[party - 1], ep, test_seq=test_seq
        )

    results, _ = run_on_fresh_network(
        config.parties, {p: party_fn(p) for p in range(1, config.parties + 1)}
    )
    verdicts = set(results.values())
    assert len(verdicts) == 1, f"parties disagree: {results}"
    return verdicts.pop()


class TestHashToRange:
    def test_m_one_is_always_one(self):
        for data in (b"", b"a", b"0123456789"):
            assert hash_to_range(data, 1) == 1

    def test_deterministic(self):
        assert hash_to_range(b"same input", 100) == hash_to_range(b"same input", 100)

    def test_range_and_uniformity(self):
        m = 16
        tally = Counter(
            hash_to_range(f"probe-{i}".encode(), m) for i in range(10_000)
        )
        assert set(tally) <= set(range(1, m + 1))
        for bucket in range(1, m + 1):
            assert abs(tally[bucket] / 10_000 - 1 / m) <= 0.02

    def test_bad_bound(self):
        with pytest.raises(ParameterError):
            hash_to_range(b"x", 0)


class TestBuildPairing:
    def test_bijection_over_random_triples(self):
        rng = random.Random(11)
        for t in (1, 2, 3):
            cfg = config_for(2**t)
            for _ in range(40):
                beta = rng.choice(primes_below(200))
                turn = rng.randrange(1, t + 1)
                prior = list(range(1, (1 << (t - turn + 1)) + 1))
                cfg_seeded = ProtocolConfig(
                    parties=cfg.parties, bits=16, seed=rng.randbytes(8)
                )
                plan = build_pairing(cfg_seeded, beta, turn, prior)
                assert sorted(plan.mapping.values()) == sorted(plan.survivors)
                assert sorted(plan.mapping) == prior[len(prior) // 2 :]
                assert len(set(plan.mapping.values())) == len(plan.mapping)

    def test_identical_across_parties(self):
        # every party computes the plan from the same public inputs
        cfg = config_for(8)
        first = build_pairing(cfg, 13, 1, range(1, 9))
        for _ in range(5):
            again = build_pairing(cfg, 13, 1, range(1, 9))
            assert again == first

    def test_two_party_case(self):
        cfg = config_for(2)
        plan = build_pairing(cfg, 3, 1, [1, 2])
        assert plan.survivors == (1,)
        assert plan.mapping == {2: 1}

    def test_plans_differ_across_beta_and_turns(self):
        cfg = config_for(16, seed=b"\x42")
        by_beta = {
            beta: build_pairing(cfg, beta, 1, range(1, 17)).mapping
            for beta in primes_below(60)
        }
        assert len({tuple(sorted(m.items())) for m in by_beta.values()}) > 1
        turn1 = build_pairing(cfg, 7, 1, range(1, 17)).mapping
        turn2 = build_pairing(cfg, 7, 2, range(1, 9)).mapping
        assert turn1 != turn2

    def test_plans_pinned(self):
        # every plan the shared hash yields, mapping order included, as
        # recorded for the unsalted plans while an attempt salt still existed
        digest = hashlib.sha256()
        for n in (2, 4, 8, 16, 32):
            for seed in (bytes.fromhex("01"), bytes.fromhex("42")):
                cfg = ProtocolConfig(parties=n, bits=16, seed=seed)
                for beta in primes_below(541):
                    for plan in reduction_schedule(cfg, beta):
                        digest.update(
                            repr((plan.turn, plan.survivors, list(plan.mapping.items()))).encode()
                        )
        assert digest.hexdigest() == (
            "9bdc3eb237cb63913276a080cc4f1639fe9c3aa1f2d80bcef1519ba71caa075c"
        )

    def test_size_validation(self):
        cfg = config_for(4)
        with pytest.raises(ParameterError):
            build_pairing(cfg, 3, 1, [1, 2])  # wrong survivor count for turn 1
        with pytest.raises(ParameterError):
            build_pairing(cfg, 3, 3, [1, 2])  # turn beyond tree depth


def count_hashes(monkeypatch):
    """Record every digest input build_pairing hands to the shared hash."""
    inputs = []
    original = trialdiv.hash_to_range

    def counting(data, m):
        inputs.append(data)
        return original(data, m)

    monkeypatch.setattr(trialdiv, "hash_to_range", counting)
    return inputs


class TestPairingHashCost:
    def test_no_digest_input_hashed_twice(self, monkeypatch):
        inputs = count_hashes(monkeypatch)
        for n in (4, 8, 16, 32):
            for seed in (bytes.fromhex("01"), bytes.fromhex("42")):
                cfg = ProtocolConfig(parties=n, bits=16, seed=seed)
                for beta in primes_below(100):
                    for turn in range(1, cfg.tree_depth + 1):
                        inputs.clear()
                        build_pairing(cfg, beta, turn, range(1, (n >> (turn - 1)) + 1))
                        assert len(inputs) == len(set(inputs))

    def test_one_survivor_slot_hashes_nothing(self, monkeypatch):
        inputs = count_hashes(monkeypatch)
        trialdiv._run_schedules.cache_clear()  # a warm schedule would skip the hash
        plan = build_pairing(config_for(2), 3, 1, [1, 2])
        assert plan.mapping == {2: 1}
        cfg = config_for(8)
        for beta in primes_below(100):
            build_pairing(cfg, beta, 3, [1, 2])
        assert inputs == []
        # at n = 4 only the first turn's first drop needs the hash
        for beta in primes_below(100):
            reduction_schedule(config_for(4), beta)
            assert len(inputs) == 1
            inputs.clear()

    def test_constant_hash_fails_to_cover(self, monkeypatch):
        calls = []

        def constant(data, m):
            calls.append(data)
            return 1

        monkeypatch.setattr(trialdiv, "hash_to_range", constant)
        with pytest.raises(ParameterError, match="failed to cover"):
            build_pairing(config_for(8), 13, 1, range(1, 9))
        assert len(calls) > trialdiv._ASSIGN_SCAN_CAP


class TestScheduleMemo:
    def test_a_run_shares_each_schedule(self, monkeypatch):
        inputs = count_hashes(monkeypatch)
        trialdiv._run_schedules.cache_clear()
        first = reduction_schedule(config_for(8), 13)
        assert isinstance(first, tuple) and inputs
        inputs.clear()
        assert reduction_schedule(config_for(8), 13) is first
        # bits and trial_bound do not enter the pairings
        assert reduction_schedule(ProtocolConfig(parties=8, bits=32, seed=b"\x07"), 13) is first
        assert reduction_schedule(config_for(8, trial_bound=60), 13) is first
        assert inputs == []

    def test_the_memo_holds_one_run(self, monkeypatch):
        inputs = count_hashes(monkeypatch)
        trialdiv._run_schedules.cache_clear()
        first = reduction_schedule(config_for(8), 13)
        reduction_schedule(config_for(8, seed=b"\x08"), 13)
        inputs.clear()
        again = reduction_schedule(config_for(8), 13)
        assert inputs
        assert again == first and again is not first


class TestTreeRole:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_role_follows_the_schedule(self, n):
        for seed in (bytes.fromhex("01"), bytes.fromhex("42"), b"\x07"):
            cfg = ProtocolConfig(parties=n, bits=16, seed=seed)
            for beta in primes_below(100):
                plans = reduction_schedule(cfg, beta)
                roots = []
                for party in range(1, n + 1):
                    sources, target = tree_role(cfg, beta, party)
                    # sources[j] is whoever the schedule sends to party in turn j + 1
                    for plan, source in zip(plans, sources):
                        assert plan.mapping[source] == party
                    if target is None:
                        roots.append(party)
                        assert len(sources) == cfg.tree_depth
                    else:
                        # the party is dropped in the turn after its last receive
                        assert plans[len(sources)].mapping[party] == target
                assert roots == [1]


class TestTreeReduction:
    def test_reject_example(self):
        cfg = config_for(4)
        assert run_tree(cfg, 5, (3, 1, 0, 1)) is False  # sum 5 divides

    def test_survive_example(self):
        cfg = config_for(4)
        assert run_tree(cfg, 5, (1, 1, 1, 1)) is True  # sum 4 does not

    def test_matches_oracle_on_random_tuples(self):
        rng = random.Random(3)
        for n in (2, 4, 8):
            cfg = config_for(n)
            for beta in (3, 5, 7):
                for _ in range(6):
                    residues = tuple(rng.randrange(beta) for _ in range(n))
                    expected = sum(residues) % beta != 0
                    assert run_tree(cfg, beta, residues) == expected

    def test_pure_fold_matches_network(self):
        rng = random.Random(4)
        for n in (2, 4, 8):
            cfg = config_for(n)
            for _ in range(5):
                beta = rng.choice((3, 5, 7, 11))
                residues = tuple(rng.randrange(beta) for _ in range(n))
                plans = reduction_schedule(cfg, beta)
                folded = fold_residues(
                    plans, {i + 1: r for i, r in enumerate(residues)}, beta
                )
                assert (folded != 0) == run_tree(cfg, beta, residues)

    def test_per_party_message_counts_hit_the_envelope(self):
        # one completed reduction: a party dropped in turn 1 touches
        # exactly 2 messages, the final party exactly log2(n)+1
        n = 8
        cfg = config_for(n)
        beta = 11
        plans = reduction_schedule(cfg, beta)
        residues = tuple(1 for _ in range(n))

        def party_fn(party):
            return lambda ep: tree_divisibility_test(cfg, beta, residues[party - 1], ep)

        results, network = run_on_fresh_network(
            n, {p: party_fn(p) for p in range(1, n + 1)}
        )
        assert set(results.values()) == {True}
        from mprsa import Phase

        t = cfg.tree_depth
        final = plans[-1].survivors[0]
        for party in range(1, n + 1):
            observed = network.metrics.snapshot(party)[Phase.TRIAL_DIV].messages
            assert 2 <= observed <= t + 1
            if party in plans[0].mapping:
                assert observed == 2
            if party == final:
                assert observed == t + 1

    def test_residue_below_256_travels_in_a_fourteen_byte_frame(self):
        # 4-byte length, 9-byte header and one residue byte
        cfg = config_for(2)
        beta = 251

        def party_fn(party):
            return lambda ep: tree_divisibility_test(cfg, beta, 250 - party, ep)

        _, network = run_on_fresh_network(
            2, {p: party_fn(p) for p in (1, 2)}, record_transcripts=True
        )
        residues = [
            env
            for party in (1, 2)
            for direction, env in network.transcript(party)
            if direction == "send" and env.to != BROADCAST
        ]
        assert [len(encode_envelope(env)) for env in residues] == [14]

    def test_end_to_end_against_divisibility_oracle(self):
        # pass all primes below B iff no such prime divides either sum
        bound = 100
        cases = 0
        for n, bits in ((2, 16), (2, 32), (4, 16), (4, 32), (8, 16), (8, 32)):
            cfg = ProtocolConfig(parties=n, bits=bits, trial_bound=bound, seed=b"\x09")
            for trial in range(6):
                rng = random.Random(1000 * n + bits + trial)
                share_sets = [
                    generate_shares(cfg, i, i == 1, rng) for i in range(1, n + 1)
                ]
                p = sum(s.p_share for s in share_sets)
                q = sum(s.q_share for s in share_sets)

                def party_fn(party):
                    def run(ep):
                        seq = 0
                        for beta in primes_below(bound):
                            for value in (
                                share_sets[party - 1].p_share,
                                share_sets[party - 1].q_share,
                            ):
                                ok = ep.run(
                                    tree_divisibility_test(
                                        cfg, beta, value % beta, ep, test_seq=seq
                                    )
                                )
                                seq += 1
                                if not ok:
                                    return False
                        return True

                    return run

                results, _ = run_on_fresh_network(
                    n, {i: party_fn(i) for i in range(1, n + 1)}
                )
                oracle = all(p % beta and q % beta for beta in primes_below(bound))
                assert set(results.values()) == {oracle}
                cases += 1
        assert cases == 36


class RecordingEndpoint:
    """Stands in for the network at one party: records the round tag of
    every send, broadcast and receive, answers each receive with a
    residue of 1, and runs steps as the socket endpoint does."""

    def __init__(self, party_id):
        self.party_id = party_id
        self.rounds = []

    def send(self, env):
        self.rounds.append(env.round)

    broadcast = send

    def receive(self, phase, from_, round_):
        self.rounds.append(round_)
        return Envelope(from_, self.party_id, phase, round_, encode_natural(1))

    run = StreamEndpoint.run  # a plain loop over receive


@pytest.mark.parametrize("n", [2, 8, 256, 512])
def test_consecutive_tests_use_disjoint_round_tags(n):
    # the final survivor takes part in every turn of a test, so it touches
    # all of that test's tags: t residues and the verdict
    cfg = ProtocolConfig(parties=n, bits=16, seed=b"\x07")
    root = reduction_schedule(cfg, 541)[-1].survivors[0]
    endpoint = RecordingEndpoint(root)
    role = tree_role(cfg, 541, root)
    tags = []
    for test_seq in (0, 1):
        endpoint.rounds = []
        endpoint.run(
            tree_divisibility_test(cfg, 541, 0, endpoint, test_seq=test_seq, role=role)
        )
        tags.append(set(endpoint.rounds))
        assert len(tags[-1]) == cfg.tree_depth + 1
    assert not tags[0] & tags[1]
