import json
import random
import sys
import threading

import pytest

from mprsa import (
    AttemptContext,
    AttemptRecord,
    Counts,
    OtContext,
    Phase,
    PhaseMetrics,
    ProtocolConfig,
    ShareSet,
    assert_counts,
    compute_modulus,
    expected_counts,
    expected_work,
    records_to_jsonl,
    summary_table,
)
from mprsa.metrics import COUNTED_PHASES, ZERO_COUNTS, gcd_phase_expected
from conftest import run_on_fresh_network


def formula_value(rows, phase, metric):
    return next(r.value for r in rows if r.phase == phase and r.metric == metric)


class TestExpectedCounts:
    def test_worked_examples(self):
        cfg = ProtocolConfig(parties=4, bits=32, trial_bound=10, seed=b"\x01")
        rows = expected_counts(cfg)
        assert formula_value(rows, "TrialDiv", "messages worst case") == 30
        assert formula_value(rows, "DistMul", "messages") == 196
        assert formula_value(rows, "DistMul", "ot inits") == 192

    def test_two_party_reductions(self):
        cfg = ProtocolConfig(
            parties=2, bits=16, trial_bound=50, filter_rounds=5, seed=b"\x02"
        )
        rows = expected_counts(cfg)
        assert formula_value(rows, "TrialDiv", "messages worst case") == 2 * 50
        assert formula_value(rows, "TrialDiv", "messages best case") == 2 * 50
        assert formula_value(rows, "BiprimeFilter", "messages worst case") == 5 * 3
        assert formula_value(rows, "BiprimeFilter", "messages best case") == 5 * 3
        assert formula_value(rows, "DistMul", "messages") == 2 * 16 + 2

    def test_doubled_trial_rows_present(self):
        cfg = ProtocolConfig(parties=8, bits=16, trial_bound=100, seed=b"\x03")
        rows = expected_counts(cfg)
        single = formula_value(rows, "TrialDiv", "messages worst case")
        both = formula_value(rows, "TrialDiv", "messages worst case, both numbers")
        assert both == 2 * single


class TestExpectedWork:
    @pytest.mark.parametrize(
        "bits, trial_bound, attempts, multiplications",
        [(32, 541, 130.8, 4.1), (512, 541, 31_610, 999.6), (16, 3, 34.7, 34.7)],
    )
    def test_hand_computed_values(self, bits, trial_bound, attempts, multiplications):
        # at B=3 there is no odd prime below the bound, so s_B = 1 and
        # every attempt multiplies
        cfg = ProtocolConfig(parties=4, bits=bits, trial_bound=trial_bound, seed=b"\x01")
        work = expected_work(cfg)
        assert work.attempts == pytest.approx(attempts, abs=0.5)
        assert work.multiplications == pytest.approx(multiplications, abs=0.05)


class TestCountsPlumbing:
    def test_counts_arithmetic(self):
        a = Counts(3, 1, 2)
        b = Counts(1, 1, 0)
        assert a + b == Counts(4, 2, 2)
        assert a - b == Counts(2, 0, 2)
        with pytest.raises(AttributeError):
            a.messages = 7
        assert Counts(3, 1, 2) == a and hash(Counts(3, 1, 2)) == hash(a)
        assert repr(Counts(1, 2, 3)) == "Counts(messages=1, broadcasts=2, ot_inits=3)"
        assert a - a == ZERO_COUNTS
        assert ZERO_COUNTS + a == a

    def test_sink_snapshot_isolated_per_party(self):
        sink = PhaseMetrics()
        sink.tick_message(1, Phase.TRIAL_DIV)
        sink.tick_broadcast(1, Phase.TRIAL_DIV)
        sink.tick_ot_init(2, Phase.DIST_MUL)
        assert sink.snapshot(1)[Phase.TRIAL_DIV] == Counts(2, 1, 0)
        assert sink.snapshot(2)[Phase.DIST_MUL] == Counts(0, 0, 1)
        assert sink.snapshot(2)[Phase.TRIAL_DIV] == Counts()

    def test_control_phase_not_counted(self):
        sink = PhaseMetrics()
        sink.tick_message(1, Phase.OT_CONTROL)
        assert all(c == Counts() for c in sink.snapshot(1).values())


    def test_concurrent_ticks_are_exact(self):
        sink = PhaseMetrics()
        threads_per_party, ticks = 4, 5_000
        start = threading.Barrier(2 * threads_per_party)

        def tick(party):
            start.wait()
            for _ in range(ticks):
                sink.tick_message(party, Phase.DIST_MUL, 2)
                sink.tick_broadcast(party, Phase.DIST_MUL)
                sink.tick_ot_init(party, Phase.DIST_MUL, 3)

        workers = [
            threading.Thread(target=tick, args=(party,))
            for party in (1, 2)
            for _ in range(threads_per_party)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch often, so a lost update would show
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        n = threads_per_party * ticks
        for party in (1, 2):
            assert sink.snapshot(party)[Phase.DIST_MUL] == Counts(3 * n, n, 3 * n)

    def test_ticks_of_ended_threads_still_count(self):
        # each thread ticks into its own table, which must outlive it
        sink = PhaseMetrics()

        def tick():
            sink.tick_message(1, Phase.DIST_MUL)
            sink.tick_broadcast(1, Phase.DIST_MUL)
            sink.tick_ot_init(1, Phase.DIST_MUL)

        for _ in range(8):
            worker = threading.Thread(target=tick)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
        assert sink.snapshot(1)[Phase.DIST_MUL] == Counts(16, 8, 8)

    def test_an_idle_phase_keeps_its_counts_object(self):
        # run_party records a shared zero for a phase whose Counts is unchanged
        sink = PhaseMetrics()
        sink.tick_message(1, Phase.TRIAL_DIV)
        before = sink.snapshot(1)
        sink.tick_message(1, Phase.DIST_MUL)
        after = sink.snapshot(1)
        assert after[Phase.TRIAL_DIV] is before[Phase.TRIAL_DIV]
        assert after[Phase.DIST_MUL] is not before[Phase.DIST_MUL]
        assert after[Phase.DIST_MUL] == Counts(1, 0, 0)

    def test_snapshot_is_not_moved_by_later_ticks(self):
        # run_party subtracts the snapshot taken at an attempt's start
        sink = PhaseMetrics()
        sink.tick_message(1, Phase.TRIAL_DIV)
        before = sink.snapshot(1)
        sink.tick_message(1, Phase.TRIAL_DIV, 4)
        sink.tick_broadcast(1, Phase.TRIAL_DIV)
        sink.tick_ot_init(1, Phase.DIST_MUL, 2)
        assert before[Phase.TRIAL_DIV] == Counts(1, 0, 0)
        assert before[Phase.DIST_MUL] == Counts()
        after = sink.snapshot(1)
        assert after[Phase.TRIAL_DIV] - before[Phase.TRIAL_DIV] == Counts(5, 1, 0)
        assert after[Phase.DIST_MUL] - before[Phase.DIST_MUL] == Counts(0, 0, 2)


class TestJsonLines:
    def make_record(self, attempt, party, messages):
        counts = {phase: Counts() for phase in (
            Phase.TRIAL_DIV, Phase.DIST_MUL, Phase.BIPRIME_FILTER, Phase.BIPRIME_GCD
        )}
        counts[Phase.TRIAL_DIV] = Counts(messages, 0, 0)
        return AttemptRecord(attempt, party, counts, AttemptContext())

    def test_schema_and_ordering(self):
        records = [
            self.make_record(2, 1, 5),
            self.make_record(1, 2, 7),
            self.make_record(1, 1, 3),
        ]
        lines = records_to_jsonl(records).strip().split("\n")
        rows = [json.loads(line) for line in lines]
        assert [set(r) for r in rows] == [
            {"attempt", "party", "phase", "messages", "broadcasts", "ot_inits"}
        ] * len(rows)
        keys = [(r["attempt"], r["party"]) for r in rows]
        assert keys == sorted(keys)
        assert rows[0]["phase"] == "TrialDiv" and rows[0]["messages"] == 3

    def test_deterministic_bytes(self):
        records = [self.make_record(1, p, p) for p in (3, 1, 2)]
        assert records_to_jsonl(records) == records_to_jsonl(list(reversed(records)))

    def test_summary_table_shape(self):
        table = summary_table([self.make_record(1, 1, 4)])
        assert "TrialDiv" in table and "messages" in table


class TestAssertCounts:
    def observed_multiplication(self, n, bits):
        """Run just the multiplication phase and package real records."""
        cfg = ProtocolConfig(parties=n, bits=bits, seed=b"\x05")
        rng = random.Random(n)
        share_sets = [
            ShareSet(
                owner=i,
                p_share=4 * rng.randrange(1, 1 << (bits - 2)) + (3 if i == 1 else 0),
                q_share=4 * rng.randrange(1, 1 << (bits - 2)) + (3 if i == 1 else 0),
                special=i == 1,
            )
            for i in range(1, n + 1)
        ]

        def fn(party):
            return lambda ep: compute_modulus(
                cfg, share_sets[party - 1], OtContext(ep), ep,
                rng=random.Random(50 + party),
            )

        results, network = run_on_fresh_network(
            n, {p: fn(p) for p in range(1, n + 1)}
        )
        context = AttemptContext(ran_multiplication=True)
        records = [
            AttemptRecord(1, p, network.metrics.snapshot(p), context)
            for p in range(1, n + 1)
        ]
        return cfg, records, results[1]

    def test_multiplication_counts_exact(self):
        for n in (2, 4):
            cfg, records, _ = self.observed_multiplication(n, 16)
            report = assert_counts(records, cfg)
            assert report.ok, report.violations

    def test_violation_detected(self):
        cfg, records, _ = self.observed_multiplication(2, 16)
        broken = records[0].counts[Phase.DIST_MUL] + Counts(1, 0, 0)
        records[0].counts[Phase.DIST_MUL] = broken
        report = assert_counts(records, cfg)
        assert not report.ok
        assert any("DistMul messages" in v for v in report.violations)

    @pytest.mark.parametrize("observed", [0, 9, 99], ids=["below", "inside", "above"])
    def test_wrong_filter_count_is_one_violation(self, observed):
        # two filter rounds led by parties 1 and 2 of four: parties 3 and 4
        # send 3 * 2 messages; a wrong count is reported once, whether it
        # lies inside the range [3 * 2, 2 * (4 + 1)] or outside it
        cfg = ProtocolConfig(parties=4, bits=16, seed=b"\x05")
        context = AttemptContext(filter_rounds_run=2, filter_leaders=(1, 2))
        records = [
            AttemptRecord(
                1, p, {**dict.fromkeys(COUNTED_PHASES, ZERO_COUNTS),
                       Phase.BIPRIME_FILTER: Counts(6 + 2 * (p <= 2))}, context,
            )
            for p in range(1, 5)
        ]
        assert assert_counts(records, cfg).ok
        records[2].counts[Phase.BIPRIME_FILTER] = Counts(observed)
        assert assert_counts(records, cfg).violations == [
            f"party 3 BiprimeFilter messages: observed {observed}, expected 6"
        ]

    def test_global_totals_grow_quadratically(self):
        # per-party messages are Theta(n*k), so the global total is
        # Theta(n^2 k): doubling n multiplies it by about four (exactly
        # n*(2k(n-1)+n), so the small-n ratios sit a little above that)
        totals = {}
        for n in (2, 4, 8):
            cfg, records, _ = self.observed_multiplication(n, 16)
            k = cfg.bits
            per_party = [r.counts[Phase.DIST_MUL].messages for r in records]
            assert set(per_party) == {2 * k * (n - 1) + n}
            totals[n] = n * (2 * k * (n - 1) + n)
            assert sum(per_party) == totals[n]
        assert 3.0 < totals[4] / totals[2] < 7.0
        assert 3.0 < totals[8] / totals[4] < 7.0

    def test_gcd_phase_expected_width(self):
        cfg = ProtocolConfig(parties=4, bits=32, seed=b"\x06")
        messages, inits = gcd_phase_expected(cfg, modulus_bits=68)
        assert messages == 2 * 68 * 3 + 4
        assert inits == 2 * 68 * 3
