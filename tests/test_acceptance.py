"""Acceptance suite: one test per numbered criterion.

Each test prints a `[criterion N] PASS/FAIL` line (visible with -s, or on
failure); run as

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from mprsa import (
    InMemoryNetwork,
    OtContext,
    Phase,
    ProtocolConfig,
    assert_counts,
    build_pairing,
    distr_product,
    gcd_test,
    generate_shares,
    is_probable_prime,
    jacobi,
    records_to_jsonl,
    reduction_schedule,
    run_in_memory,
    tree_divisibility_test,
)
from mprsa.metrics import gcd_phase_expected
from conftest import run_on_fresh_network

# Frozen non-biprime (p, q) pairs: both 3 mod 4, below 2**8, at least one
# composite; drawn pseudo-randomly (seed 0xBEEF) with no filtering beyond
# the shape constraints.
NON_BIPRIMES = [
    (15, 135), (171, 27), (39, 79), (143, 179), (99, 35), (207, 107),
    (219, 183), (123, 207), (171, 87), (91, 115), (95, 51), (171, 235),
    (147, 171), (11, 195), (11, 63), (83, 235), (123, 87), (111, 147),
    (131, 115), (107, 87),
]

# Seed under which one party happens to lead every filter round of the
# successful attempt, so the worst-case per-party figure s*(n+1) is
# actually observed (see test_c5).
ALL_ROUNDS_LEADER_SEED = (161).to_bytes(2, "big")


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"[criterion {number}] {status}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


class TestCriterion1:
    def test_c1_end_to_end_ten_runs(self):
        started = time.time()
        attempts = []
        for seed_int in range(1, 11):
            cfg = ProtocolConfig(
                parties=4,
                bits=32,
                trial_bound=541,
                filter_rounds=40,
                seed=seed_int.to_bytes(2, "big"),
            )
            result = run_in_memory(cfg, verify=True, timeout=600)
            check = random.Random(seed_int)
            assert result.p * result.q == result.modulus
            assert result.p % 4 == 3 and result.q % 4 == 3
            assert is_probable_prime(result.p, 40, rng=check)
            assert is_probable_prime(result.q, 40, rng=check)
            assert result.verified is True
            attempts.append(result.attempts)
        elapsed = time.time() - started
        report(
            1,
            elapsed <= 600,
            f"10 verified runs, attempts={attempts}, {elapsed:.1f}s",
        )


class TestCriterion2:
    def run_batch(self, cases, share_bits):
        def holder_a(ep):
            ot = OtContext(ep)
            rng = random.Random(1234)
            return [
                distr_product(1, 2, a, l, share_bits, ot, ep, rng=rng).value
                for a, _b, l in cases
            ]

        def holder_b(ep):
            ot = OtContext(ep)
            return [
                distr_product(1, 2, b, l, share_bits, ot, ep).value
                for _a, b, l in cases
            ]

        results, _ = run_on_fresh_network(2, {1: holder_a, 2: holder_b}, timeout=300)
        return list(zip(results[1], results[2]))

    def test_c2_recombination(self):
        cases = [(a, b, 4) for a, b in itertools.product(range(16), repeat=2)]
        failures = 0
        for (a, b, _), (s1, s2) in zip(cases, self.run_batch(cases, 8)):
            if (s1 + s2) % 256 != (a * b) % 256:
                failures += 1
        rng = random.Random(999)
        wide = [
            (rng.randrange(1 << 32), rng.randrange(1 << 32), 32) for _ in range(1000)
        ]
        for (a, b, _), (s1, s2) in zip(wide, self.run_batch(wide, 64)):
            if (s1 + s2) % (1 << 64) != a * b:
                failures += 1
        report(2, failures == 0, "256 exhaustive + 1000 randomized products")


class TestCriterion3:
    def test_c3_trial_division_equivalence(self):
        mismatches = 0
        checked = 0
        rng = random.Random(42)
        for n in (2, 4, 8):
            cfg = ProtocolConfig(parties=n, bits=16, seed=b"\x07")
            for beta in (3, 5, 7):
                plans = reduction_schedule(cfg, beta)
                final = plans[-1].survivors[0]
                grids = np.meshgrid(*[np.arange(beta)] * n, indexing="ij")
                tuples = np.stack([g.reshape(-1) for g in grids], axis=1).astype(
                    np.int64
                )
                acc = tuples.copy()
                for plan in plans:
                    for dropped, target in plan.mapping.items():
                        acc[:, target - 1] = (
                            acc[:, target - 1] + acc[:, dropped - 1]
                        ) % beta
                tree = acc[:, final - 1] != 0
                oracle = (tuples.sum(axis=1) % beta) != 0
                mismatches += int(np.count_nonzero(tree != oracle))
                checked += len(tuples)

                # the networked reduction agrees with the pure fold on a
                # sample including the all-zero and all-one edge tuples
                sample = [
                    tuple(rng.randrange(beta) for _ in range(n)) for _ in range(8)
                ]
                sample += [(0,) * n, (1,) * n]
                for residues in sample:
                    expected = sum(residues) % beta != 0

                    def party_fn(party):
                        return lambda ep: tree_divisibility_test(
                            cfg, beta, residues[party - 1], ep
                        )

                    results, _ = run_on_fresh_network(
                        n, {p: party_fn(p) for p in range(1, n + 1)}
                    )
                    if set(results.values()) != {expected}:
                        mismatches += 1
        report(3, mismatches == 0, f"{checked} residue tuples, zero mismatches")


class TestCriterion4:
    @staticmethod
    def admissible(N):
        return (
            g for g in range(2, N) if math.gcd(g, N) == 1 and jacobi(g, N) == 1
        )

    def test_c4_filter_completeness_and_soundness(self):
        primes = [
            p
            for p in range(3, 256, 4)
            if all(p % d for d in range(2, int(p**0.5) + 1))
        ]
        assert primes[0] == 3 and len(primes) == 29
        complete = True
        for p, q in itertools.combinations(primes, 2):
            N = p * q
            exponent = (N + 1 - p - q) // 4
            for gamma in self.admissible(N):
                if pow(gamma, exponent, N) not in (1, N - 1):
                    complete = False
                    break
            if not complete:
                break

        sound = True
        worst = 0.0
        for p, q in NON_BIPRIMES:
            N = p * q
            exponent = (N + 1 - p - q) // 4
            total = passing = 0
            for gamma in self.admissible(N):
                total += 1
                if pow(gamma, exponent, N) in (1, N - 1):
                    passing += 1
            fraction = passing / total
            worst = max(worst, fraction)
            if fraction > 0.5:
                sound = False
        report(
            4,
            complete and sound,
            f"all {len(primes) * (len(primes) - 1) // 2} biprimes pass every "
            f"admissible gamma; worst non-biprime pass fraction {worst:.3f}",
        )


class TestCriterion5:
    def test_c5_count_reproduction(self):
        n, k, s = 4, 32, 5
        cfg = ProtocolConfig(
            parties=n,
            bits=k,
            trial_bound=10,
            filter_rounds=s,
            seed=ALL_ROUNDS_LEADER_SEED,
        )
        result = run_in_memory(cfg, timeout=600)
        final = [r for r in result.records if r.attempt == result.attempts]
        ctx = final[0].context
        assert ctx.success and ctx.filter_rounds_run == s

        problems = []
        executed = ctx.trial_tests_p + ctx.trial_tests_q
        for record in final:
            counts = record.counts
            if counts[Phase.DIST_MUL].messages != 2 * k * (n - 1) + n:
                problems.append(f"distmul messages {counts[Phase.DIST_MUL].messages}")
            if counts[Phase.DIST_MUL].ot_inits != 2 * k * (n - 1):
                problems.append(f"distmul inits {counts[Phase.DIST_MUL].ot_inits}")
            gcd_msgs, gcd_inits = gcd_phase_expected(cfg, ctx.modulus_bits)
            if counts[Phase.BIPRIME_GCD].messages != gcd_msgs:
                problems.append(f"gcd messages {counts[Phase.BIPRIME_GCD].messages}")
            if counts[Phase.BIPRIME_GCD].ot_inits != gcd_inits:
                problems.append(f"gcd inits {counts[Phase.BIPRIME_GCD].ot_inits}")
            trial = counts[Phase.TRIAL_DIV].messages
            if not 2 * executed <= trial <= executed * (int(math.log2(n)) + 1):
                problems.append(f"trial messages {trial}")
            led = sum(1 for leader in ctx.filter_leaders if leader == record.party)
            if counts[Phase.BIPRIME_FILTER].messages != 3 * s + (n - 2) * led:
                problems.append(
                    f"filter messages {counts[Phase.BIPRIME_FILTER].messages}"
                )

        # with this seed one party led every round, so the closed-form
        # worst case s*(n+1) is observed verbatim
        leader = ctx.filter_leaders[0]
        if set(ctx.filter_leaders) != {leader}:
            problems.append(f"expected a single leader, got {ctx.filter_leaders}")
        leader_counts = next(r for r in final if r.party == leader).counts
        if leader_counts[Phase.BIPRIME_FILTER].messages != s * (n + 1):
            problems.append(
                f"leader filter messages {leader_counts[Phase.BIPRIME_FILTER].messages}"
            )

        overall = assert_counts(final, cfg)
        problems.extend(overall.violations)
        report(
            5,
            not problems,
            f"distmul {2 * k * (n - 1) + n}/{2 * k * (n - 1)} exact per party; "
            f"gcd exact at width {ctx.modulus_bits} "
            f"(closed-form 2k figure: {4 * k * (n - 1) + n}); "
            f"filter leader observed {s * (n + 1)}"
            + (f"; problems: {problems}" if problems else ""),
        )


class TestCriterion6:
    def test_c6_deterministic_runs(self):
        cfg = ProtocolConfig(
            parties=4, bits=16, trial_bound=50, filter_rounds=8, seed=b"\x61"
        )
        first = run_in_memory(cfg, record_transcripts=True)
        second = run_in_memory(cfg, record_transcripts=True)
        same_modulus = first.modulus == second.modulus
        same_metrics = records_to_jsonl(first.records) == records_to_jsonl(
            second.records
        )
        same_transcripts = first.transcripts == second.transcripts
        report(
            6,
            same_modulus and same_metrics and same_transcripts,
            f"modulus {first.modulus} reproduced with byte-identical metrics "
            "and transcripts",
        )


class TestCriterion7:
    def test_c7_pairing_bijectivity(self):
        failures = 0
        rng = random.Random(7)
        for t in (1, 2, 3):
            n = 2**t
            for _ in range(100):
                beta = rng.choice([3, 5, 7, 11, 13, 17, 19])
                seed = rng.randbytes(6)
                turn = rng.randrange(1, t + 1)
                cfg = ProtocolConfig(parties=n, bits=16, seed=seed)
                prior = list(range(1, (1 << (t - turn + 1)) + 1))
                plan_a = build_pairing(cfg, beta, turn, prior)
                plan_b = build_pairing(cfg, beta, turn, prior)  # a second party
                if plan_a != plan_b:
                    failures += 1
                if sorted(plan_a.mapping.values()) != sorted(plan_a.survivors):
                    failures += 1
                if sorted(plan_a.mapping) != prior[len(prior) // 2 :]:
                    failures += 1
        report(7, failures == 0, "300 triples, all bijective and party-independent")


class TestCriterion8:
    def test_c8_gcd_reconstruction_identity(self):
        failures = 0
        for trial in range(100):
            cfg = ProtocolConfig(parties=4, bits=16, seed=trial.to_bytes(2, "big"))
            rng = random.Random(5000 + trial)
            share_sets = [
                generate_shares(cfg, i, i == 1, rng) for i in range(1, 5)
            ]
            p = sum(s.p_share for s in share_sets)
            q = sum(s.q_share for s in share_sets)
            N = p * q
            traces = {}

            def party_fn(party):
                def run(ep):
                    trace = {}
                    verdict = gcd_test(
                        cfg,
                        N,
                        share_sets[party - 1],
                        OtContext(ep),
                        ep,
                        random.Random(9000 + 10 * trial + party),
                        trace=trace,
                    )
                    traces[party] = trace
                    return verdict

                return run

            results, _ = run_on_fresh_network(
                4, {i: party_fn(i) for i in range(1, 5)}, timeout=120
            )
            expected = sum(traces[i]["r"] for i in traces) * (p + q - 1) % N
            if any(traces[i]["combined"] != expected for i in traces):
                failures += 1
            if set(results.values()) != {math.gcd(expected, N) == 1}:
                failures += 1
        report(8, failures == 0, "100 runs, distributed G exact every time")
