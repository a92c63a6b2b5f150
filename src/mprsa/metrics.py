"""Per-party, per-phase communication accounting.

The counting model matches the protocol's overhead analysis: every
message-touch event is one communication, so a point-to-point send ticks
the sender once and the receiver once (at delivery), and a broadcast
ticks the sender once and every recipient once.  Oblivious-transfer
mediator traffic is invisible here; instead each OT transfer contributes
one communication per endpoint (load and choose) plus one initialization
tick per endpoint, which keeps "communications" and "OT instantiations"
separately reproducible.  An OT session ticks once by its size.
`expected_work` gives the attempts and multiplications a keygen expects
from the density of primes, to set a run's own figures against.

One party's ticks come from several threads: its own, and whichever
turn holder runs its steps inline.  So a tick takes no lock.  Each
thread adds to plain integers in its own table, where it is the only
writer, and a snapshot sums those tables into `Counts` values, once per
attempt and party.
"""

import json
import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

from .numtheory import primes_below
from .wire import Phase

PHASE_LABELS = {
    Phase.TRIAL_DIV: "TrialDiv",
    Phase.DIST_MUL: "DistMul",
    Phase.BIPRIME_FILTER: "BiprimeFilter",
    Phase.BIPRIME_GCD: "BiprimeGcd",
}

COUNTED_PHASES = tuple(PHASE_LABELS)


class Counts(NamedTuple):
    """One immutable set of counts; `+` and `-` act field by field."""

    messages: int = 0
    broadcasts: int = 0
    ot_inits: int = 0

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(
            self.messages + other.messages,
            self.broadcasts + other.broadcasts,
            self.ot_inits + other.ot_inits,
        )

    def __sub__(self, other: "Counts") -> "Counts":
        return Counts(
            self.messages - other.messages,
            self.broadcasts - other.broadcasts,
            self.ot_inits - other.ot_inits,
        )


ZERO_COUNTS = Counts()


class PhaseMetrics:
    """(party, phase) counter sink whose ticks take no lock.

    A thread's first tick of a (party, phase) gives it its own
    [messages, broadcasts, ot_inits] slot, kept in a thread-local table
    and registered under the lock.  Later ticks of that thread add to
    that slot with one dict lookup, and no other thread writes it, so no
    update is lost however threads interleave.  The registry keeps a
    slot after its thread ends.  `snapshot` sums each counted phase's
    slots over all threads into a `Counts`, so it reads every tick made
    before it and an earlier snapshot never moves.  Uncounted phases get
    slots that no snapshot reads.  A phase whose totals have not moved
    since the last snapshot gets the same `Counts` object back; that is
    a cache detail, and callers compare counts by value.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._slots: dict[tuple[int, Phase], list[list[int]]] = {}
        self._last: dict[tuple[int, Phase], tuple[list[list[int]], Counts]] = {}

    def _new_slot(self, party: int, phase: Phase) -> list[int]:
        """Give the calling thread its slot for (party, phase)."""
        try:
            table = self._local.table
        except AttributeError:
            table = self._local.table = {}
        slot = table[party, phase] = [0, 0, 0]
        with self._lock:
            self._slots.setdefault((party, phase), []).append(slot)
        return slot

    def tick_message(self, party: int, phase: Phase, count: int = 1) -> None:
        try:
            self._local.table[party, phase][0] += count
        except (AttributeError, KeyError):
            self._new_slot(party, phase)[0] += count

    def tick_broadcast(self, party: int, phase: Phase) -> None:
        try:
            slot = self._local.table[party, phase]
        except (AttributeError, KeyError):
            slot = self._new_slot(party, phase)
        slot[0] += 1
        slot[1] += 1

    def tick_ot_init(self, party: int, phase: Phase, count: int = 1) -> None:
        try:
            self._local.table[party, phase][2] += count
        except (AttributeError, KeyError):
            self._new_slot(party, phase)[2] += count

    def snapshot(self, party: int) -> dict[Phase, Counts]:
        counts = {}
        with self._lock:
            for phase in COUNTED_PHASES:
                key = party, phase
                slots = self._slots.get(key)
                if slots is None:
                    counts[phase] = ZERO_COUNTS
                    continue
                last = self._last.get(key)
                if last is None or last[0] != slots:
                    seen = list(map(list.copy, slots))
                    last = self._last[key] = seen, Counts(*map(sum, zip(*seen)))
                counts[phase] = last[1]
        return counts


@dataclass(slots=True)
class AttemptContext:
    """Role and progress facts needed to evaluate the count formulas."""

    trial_tests_p: int = 0
    trial_tests_q: int = 0
    ran_multiplication: bool = False
    filter_rounds_run: int = 0
    filter_leaders: tuple[int, ...] = ()
    ran_gcd: bool = False
    modulus_bits: int = 0
    success: bool = False


@dataclass(slots=True)
class AttemptRecord:
    """One party's per-phase counter deltas for one candidate attempt."""

    attempt: int
    party: int
    counts: dict[Phase, Counts]
    context: AttemptContext


@dataclass(frozen=True, slots=True)
class FormulaRow:
    phase: str
    metric: str
    formula: str
    value: int


def expected_counts(config) -> list[FormulaRow]:
    """Evaluate the closed-form per-party overhead expressions.

    The trial-division figures cover a single tested number; the protocol
    tests both p and q, so doubled rows are reported as a derived column.
    """
    n, k, b, s = config.parties, config.bits, config.trial_bound, config.filter_rounds
    log2n = int(math.log2(n))
    rows = [
        FormulaRow("TrialDiv", "messages worst case", "B*(log2(n)+1)", b * (log2n + 1)),
        FormulaRow("TrialDiv", "messages best case", "2*B", 2 * b),
        FormulaRow(
            "TrialDiv",
            "messages worst case, both numbers",
            "2*B*(log2(n)+1)",
            2 * b * (log2n + 1),
        ),
        FormulaRow("TrialDiv", "messages best case, both numbers", "4*B", 4 * b),
        FormulaRow("DistMul", "messages", "2*k*(n-1)+n", 2 * k * (n - 1) + n),
        FormulaRow("DistMul", "ot inits", "2*k*(n-1)", 2 * k * (n - 1)),
        FormulaRow("BiprimeFilter", "messages worst case", "s*(n+1)", s * (n + 1)),
        FormulaRow("BiprimeFilter", "messages best case", "3*s", 3 * s),
        FormulaRow("BiprimeGcd", "messages", "4*k*(n-1)+n", 4 * k * (n - 1) + n),
        FormulaRow("BiprimeGcd", "ot inits", "4*k*(n-1)", 4 * k * (n - 1)),
    ]
    return rows


class ExpectedWork(NamedTuple):
    attempts: float
    multiplications: float


def expected_work(config) -> ExpectedWork:
    """Expected attempts and multiplications of one keygen.

    A candidate survives trial division below B with chance
    s_B = prod(1 - 1/beta) over the odd primes beta < B, and an odd
    survivor is prime with chance pi = 2 / (ln p * s_B), where
    ln p = ln n + (k - 1) * ln 2.  A keygen needs p and q prime at once,
    so it expects 1/(s_B*pi)**2 attempts and 1/pi**2 multiplications.
    This is the density estimate Boneh-Franklin size their sieve by.
    """
    survive = math.prod(1 - 1 / beta for beta in primes_below(config.trial_bound))
    log_p = math.log(config.parties) + (config.bits - 1) * math.log(2)
    prime = 2 / (log_p * survive)
    return ExpectedWork(1 / (survive * prime) ** 2, 1 / prime**2)


def gcd_phase_expected(config, modulus_bits: int) -> tuple[int, int]:
    """Exact (messages, ot_inits) per party for the gcd phase.

    The bit-looped side of each gcd cross-product is the random value
    r_i < N, so the loop width is the actual bit length of N rather than
    the 2k the closed-form analysis assumes.
    """
    n = config.parties
    return 2 * modulus_bits * (n - 1) + n, 2 * modulus_bits * (n - 1)


@dataclass(slots=True)
class CountReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def _expect_equal(self, label: str, observed: int, expected: int) -> None:
        if observed != expected:
            self.violations.append(f"{label}: observed {observed}, expected {expected}")

    def _expect_range(self, label: str, observed: int, low: int, high: int) -> None:
        if not low <= observed <= high:
            self.violations.append(f"{label}: observed {observed}, expected in [{low}, {high}]")


def assert_counts(records: list[AttemptRecord], config) -> CountReport:
    """Compare one attempt's observed per-party counts with the formulas.

    `records` holds one AttemptRecord per party for the same attempt.
    Phases that were cut short are normalized to the work actually
    executed (tests run, filter rounds run); the equality-constrained
    phases must match exactly.
    """
    report = CountReport()
    if not records:
        report.violations.append("no records supplied")
        return report
    attempts = {r.attempt for r in records}
    if len(attempts) != 1:
        report.violations.append(f"records span several attempts: {sorted(attempts)}")
        return report
    n = config.parties
    k = config.bits
    log2n = int(math.log2(n))
    ctx = records[0].context

    for record in sorted(records, key=lambda r: r.party):
        party = record.party
        counts = record.counts

        executed = ctx.trial_tests_p + ctx.trial_tests_q
        trial = counts[Phase.TRIAL_DIV]
        report._expect_range(
            f"party {party} TrialDiv messages",
            trial.messages,
            2 * executed,
            executed * (log2n + 1),
        )

        mul = counts[Phase.DIST_MUL]
        if ctx.ran_multiplication:
            report._expect_equal(
                f"party {party} DistMul messages", mul.messages, 2 * k * (n - 1) + n
            )
            report._expect_equal(
                f"party {party} DistMul ot inits", mul.ot_inits, 2 * k * (n - 1)
            )
            report._expect_equal(f"party {party} DistMul broadcasts", mul.broadcasts, 1)
        else:
            report._expect_equal(f"party {party} DistMul messages", mul.messages, 0)

        filt = counts[Phase.BIPRIME_FILTER]
        rounds = ctx.filter_rounds_run
        led = sum(1 for leader in ctx.filter_leaders[:rounds] if leader == party)
        expect_filter = 3 * rounds + (n - 2) * led
        report._expect_equal(
            f"party {party} BiprimeFilter messages", filt.messages, expect_filter
        )

        g = counts[Phase.BIPRIME_GCD]
        if ctx.ran_gcd:
            exp_msgs, exp_inits = gcd_phase_expected(config, ctx.modulus_bits)
            report._expect_equal(f"party {party} BiprimeGcd messages", g.messages, exp_msgs)
            report._expect_equal(f"party {party} BiprimeGcd ot inits", g.ot_inits, exp_inits)
        else:
            report._expect_equal(f"party {party} BiprimeGcd messages", g.messages, 0)
    return report


def records_to_jsonl(records: list[AttemptRecord]) -> str:
    """Serialize records one JSON object per line, deterministically ordered."""
    lines = []
    for record in sorted(records, key=lambda r: (r.attempt, r.party)):
        for phase in COUNTED_PHASES:
            counts = record.counts.get(phase, Counts())
            lines.append(
                json.dumps(
                    {
                        "attempt": record.attempt,
                        "party": record.party,
                        "phase": PHASE_LABELS[phase],
                        "messages": counts.messages,
                        "broadcasts": counts.broadcasts,
                        "ot_inits": counts.ot_inits,
                    },
                    separators=(", ", ": "),
                )
            )
    return "\n".join(lines) + "\n" if lines else ""


def summary_table(records: list[AttemptRecord]) -> str:
    """Aggregate counts per phase across parties and attempts."""
    totals = {phase: Counts() for phase in COUNTED_PHASES}
    for record in records:
        for phase in COUNTED_PHASES:
            totals[phase] = totals[phase] + record.counts.get(phase, Counts())
    width = max(len(label) for label in PHASE_LABELS.values())
    lines = [f"{'phase':<{width}}  {'messages':>10}  {'broadcasts':>10}  {'ot_inits':>10}"]
    for phase in COUNTED_PHASES:
        counts = totals[phase]
        lines.append(
            f"{PHASE_LABELS[phase]:<{width}}  {counts.messages:>10}  "
            f"{counts.broadcasts:>10}  {counts.ot_inits:>10}"
        )
    return "\n".join(lines)
