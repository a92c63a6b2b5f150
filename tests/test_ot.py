import random
import struct

import pytest

from mprsa import (
    DeadlockError,
    Envelope,
    InMemoryNetwork,
    MalformedMessage,
    OtContext,
    OtStateError,
    ParameterError,
    Phase,
    ProtocolDesync,
    RoleError,
    distr_product,
    ot_choose,
    ot_init,
    ot_send,
)
from mprsa.ot import _decode_request, ot_receive_chosen, ot_send_choices
from mprsa.wire import MEDIATOR, encode_envelope
from conftest import run_on_fresh_network

# kind, other endpoint, phase, count - the header of every mediator frame;
# the batch's first round tag rides in the envelope
OT_HEADER = ">BHBI"
LOAD, CHOOSE, RESULT = 1, 2, 3
# every test message is below 2**BITS, so it travels in two bytes
BITS = 16


def run_batches(batches, phase=Phase.DIST_MUL, record_transcripts=False):
    """Run each (pairs, choice bits) batch in turn from sender 1 to receiver 2
    over one fresh network; returns (values per batch, network, receiver ctx)."""

    def sessions(ctx):
        for pairs, choices in batches:
            yield ot_init(ctx, 1, 2, phase, count=len(pairs), value_bits=BITS), pairs, choices

    def sender(ep):
        for session, pairs, _ in sessions(OtContext(ep)):
            ot_send(session, pairs)

    def receiver(ep):
        ctx = OtContext(ep)
        return [ot_choose(session, choices) for session, _, choices in sessions(ctx)], ctx

    results, net = run_on_fresh_network(
        2, {1: sender, 2: receiver}, record_transcripts=record_transcripts
    )
    values, ctx2 = results[2]
    return values, net, ctx2


class TestFunctionalCorrectness:
    def test_worked_example(self):
        values, _, _ = run_batches([([(10, 20)], 1)])
        assert values == [[20]]

    def test_exhaustive_small_batches(self):
        # batch sizes around the byte boundaries of the choice bits, each
        # with all-zero, all-one and random choices
        rng = random.Random(5)
        batches = []
        for count in (1, 2, 7, 8, 9, 15, 16, 17):
            for choices in (0, (1 << count) - 1, rng.getrandbits(count)):
                pairs = [(rng.randrange(1 << 16), rng.randrange(1 << 16)) for _ in range(count)]
                batches.append((pairs, choices))
        values, _, _ = run_batches(batches)
        assert values == [
            [pair[(choices >> e) & 1] for e, pair in enumerate(pairs)]
            for pairs, choices in batches
        ]

    def test_rendezvous_choose_before_load(self):
        # party 1 holds the first turn, so as the receiver its CHOOSE
        # reaches the mediator before party 2's LOAD
        def chooser(ep):
            session = ot_init(OtContext(ep), 2, 1, Phase.DIST_MUL, count=2, value_bits=BITS)
            return ot_choose(session, 0b01)

        def loader(ep):
            session = ot_init(OtContext(ep), 2, 1, Phase.DIST_MUL, count=2, value_bits=BITS)
            ot_send(session, [(111, 222), (333, 444)])

        results, net = run_on_fresh_network(
            2, {1: chooser, 2: loader}, record_transcripts=True
        )
        assert results[1] == [222, 333]
        arrivals = [
            env.payload[0]
            for direction, env in net.transcript(MEDIATOR)
            if direction == "recv"
        ]
        assert arrivals == [CHOOSE, LOAD]


class TestMediatorOrder:
    """The mediator answers each receiver's CHOOSEs in the order it sent
    them, whatever order their LOADs arrive in."""

    @staticmethod
    def choose_from_both(ep):
        # party 3 sends its CHOOSE for sender 1, then for sender 2, lets
        # party 2 go on and only then reads both results
        ctx = OtContext(ep)
        sessions = [
            ot_init(ctx, sender, 3, Phase.DIST_MUL, value_bits=BITS) for sender in (1, 2)
        ]
        for session in sessions:
            ot_send_choices(session, 1)
        ep.send(Envelope(3, 2, Phase.DIST_MUL, 0, b"go"))
        return [ep.run(ot_receive_chosen(session)) for session in sessions]

    @staticmethod
    def load_in_turn():
        # one transfer from each of parties 1 and 2 to party 3; party 2
        # loads on party 3's word and then gives party 1 its word, so
        # party 2's LOAD reaches the mediator before party 1's
        def load(ep, pair):
            session = ot_init(OtContext(ep), ep.party_id, 3, Phase.DIST_MUL, value_bits=BITS)
            ot_send(session, [pair])

        def party1(ep):
            ep.receive(Phase.DIST_MUL, from_=2, round_=0)
            load(ep, (10, 11))

        def party2(ep):
            ep.receive(Phase.DIST_MUL, from_=3, round_=0)
            load(ep, (20, 21))
            ep.send(Envelope(2, 1, Phase.DIST_MUL, 0, b"go"))

        return {1: party1, 2: party2}

    def test_results_follow_the_choose_order(self):
        results, net = run_on_fresh_network(
            3, {**self.load_in_turn(), 3: self.choose_from_both}, record_transcripts=True
        )
        assert results[3] == [[11], [21]]
        arrivals = [
            (env.payload[0], env.sender)
            for direction, env in net.transcript(MEDIATOR)
            if direction == "recv"
        ]
        assert arrivals == [(CHOOSE, 3), (CHOOSE, 3), (LOAD, 2), (LOAD, 1)]
        answered = [
            struct.unpack_from(OT_HEADER, env.payload)[:2]
            for direction, env in net.transcript(3)
            if direction == "recv" and env.phase == Phase.OT_CONTROL
        ]
        assert answered == [(RESULT, 1), (RESULT, 2)]

    def test_a_count_mismatch_behind_a_waiting_choose_still_faults(self):
        # party 2 loads one transfer where party 3 chose two: party 3 gets
        # sender 1's result first and then the fault
        read = []

        def chooser(ep):
            ctx = OtContext(ep)
            first = ot_init(ctx, 1, 3, Phase.DIST_MUL, count=1, value_bits=BITS)
            second = ot_init(ctx, 2, 3, Phase.DIST_MUL, count=2, value_bits=BITS)
            ot_send_choices(first, 1)
            ot_send_choices(second, 0b10)
            ep.send(Envelope(3, 2, Phase.DIST_MUL, 0, b"go"))
            read.append(ep.run(ot_receive_chosen(first)))
            ep.run(ot_receive_chosen(second))

        with pytest.raises(ProtocolDesync, match="rejected"):
            run_on_fresh_network(3, {**self.load_in_turn(), 3: chooser}, timeout=30)
        assert read == [[11]]

    def test_duplicate_choose_rejected(self):
        def chooser(ep):
            # two CHOOSEs for the same channel and first round
            for _ in range(2):
                raw_request(ep, CHOOSE, 1, 3, b"\x01")
            return ep.receive(Phase.OT_CONTROL, from_=MEDIATOR)

        with pytest.raises(MalformedMessage, match="duplicate request"):
            run_on_fresh_network(2, {1: lambda ep: None, 2: chooser}, timeout=30)

    def test_no_result_to_read_before_the_choices_are_sent(self):
        session = ot_init(OtContext(InMemoryNetwork(2).endpoint(2)), 1, 2,
                          Phase.DIST_MUL, value_bits=BITS)
        with pytest.raises(OtStateError):
            ot_receive_chosen(session)


class TestSessionPlumbing:
    def test_two_inits_take_distinct_rounds(self):
        net = InMemoryNetwork(2)
        ctx = OtContext(net.endpoint(1))
        s1 = ot_init(ctx, 1, 2, Phase.DIST_MUL, value_bits=BITS)
        s2 = ot_init(ctx, 1, 2, Phase.DIST_MUL, value_bits=BITS)
        assert s1.round != s2.round

    def test_batch_reserves_contiguous_rounds(self):
        net = InMemoryNetwork(2)
        ctx = OtContext(net.endpoint(1))
        batch = ot_init(ctx, 1, 2, Phase.DIST_MUL, count=5, value_bits=BITS)
        after = ot_init(ctx, 1, 2, Phase.DIST_MUL, value_bits=BITS)
        assert after.round == batch.round + 5

    def test_both_endpoints_derive_same_rounds(self):
        net = InMemoryNetwork(2)
        ctx1, ctx2 = OtContext(net.endpoint(1)), OtContext(net.endpoint(2))
        for count in (1, 3, 2):
            a = ot_init(ctx1, 1, 2, Phase.BIPRIME_GCD, count=count, value_bits=BITS)
            b = ot_init(ctx2, 1, 2, Phase.BIPRIME_GCD, count=count, value_bits=BITS)
            assert a.round == b.round

    def test_phases_are_separate_channels(self):
        # a DIST_MUL and a BIPRIME_GCD batch on the same pair both start at
        # round 0; chosen in the opposite order, each returns its own values
        def sender(ep):
            ctx = OtContext(ep)
            ot_send(ot_init(ctx, 1, 2, Phase.DIST_MUL, value_bits=BITS), [(1, 2)])
            ot_send(ot_init(ctx, 1, 2, Phase.BIPRIME_GCD, value_bits=BITS), [(3, 4)])

        def receiver(ep):
            ctx = OtContext(ep)
            gcd = ot_init(ctx, 1, 2, Phase.BIPRIME_GCD, value_bits=BITS)
            mul = ot_init(ctx, 1, 2, Phase.DIST_MUL, value_bits=BITS)
            assert gcd.round == mul.round == 0
            return ot_choose(gcd, 1), ot_choose(mul, 1)

        results, _ = run_on_fresh_network(2, {1: sender, 2: receiver}, timeout=30)
        assert results[2] == ([4], [2])

        # a CHOOSE in the other phase never pairs with the LOAD
        def stray_chooser(ep):
            return ot_choose(ot_init(OtContext(ep), 1, 2, Phase.BIPRIME_GCD, value_bits=BITS), 1)

        def mul_sender(ep):
            ot_send(ot_init(OtContext(ep), 1, 2, Phase.DIST_MUL, value_bits=BITS), [(1, 2)])

        with pytest.raises(DeadlockError):
            run_on_fresh_network(2, {1: mul_sender, 2: stray_chooser}, timeout=30)

    def test_init_ticks_both_parties_once(self):
        net = InMemoryNetwork(2)
        ctx1, ctx2 = OtContext(net.endpoint(1)), OtContext(net.endpoint(2))
        ot_init(ctx1, 1, 2, Phase.DIST_MUL, value_bits=BITS)
        ot_init(ctx2, 1, 2, Phase.DIST_MUL, value_bits=BITS)
        assert net.metrics.snapshot(1)[Phase.DIST_MUL].ot_inits == 1
        assert net.metrics.snapshot(2)[Phase.DIST_MUL].ot_inits == 1
        # a batch ticks once per transfer it holds
        ot_init(ctx1, 1, 2, Phase.DIST_MUL, count=4, value_bits=BITS)
        assert net.metrics.snapshot(1)[Phase.DIST_MUL].ot_inits == 5

    def test_arity_one_rejected(self):
        # a transfer offering one message (1-out-of-1) is not an OT
        net = InMemoryNetwork(2)
        ctx = OtContext(net.endpoint(1))
        session = ot_init(ctx, 1, 2, Phase.DIST_MUL, count=2, value_bits=BITS)
        with pytest.raises(ParameterError):
            ot_send(session, [(1, 2), (3,)])
        assert not session.spent
        assert net.metrics.snapshot(1)[Phase.DIST_MUL].messages == 0

    def test_empty_batch_rejected(self):
        net = InMemoryNetwork(2)
        ctx = OtContext(net.endpoint(1))
        with pytest.raises(ParameterError):
            ot_init(ctx, 1, 2, Phase.DIST_MUL, count=0, value_bits=BITS)
        # more transfers than the channel's 32-bit round field holds
        with pytest.raises(ParameterError):
            ot_init(ctx, 1, 2, Phase.DIST_MUL, count=2**32, value_bits=BITS)
        # messages with no bits to carry
        with pytest.raises(ParameterError):
            ot_init(ctx, 1, 2, Phase.DIST_MUL, value_bits=0)
        assert net.metrics.snapshot(1)[Phase.DIST_MUL].ot_inits == 0

    def test_sender_equals_receiver_rejected(self):
        net = InMemoryNetwork(2)
        with pytest.raises(ParameterError):
            ot_init(OtContext(net.endpoint(1)), 1, 1, Phase.DIST_MUL, value_bits=BITS)

    def test_third_party_cannot_init(self):
        net = InMemoryNetwork(4)
        with pytest.raises(RoleError):
            ot_init(OtContext(net.endpoint(3)), 1, 2, Phase.DIST_MUL, value_bits=BITS)

    def test_wrong_length_load(self):
        net = InMemoryNetwork(2)
        session = ot_init(OtContext(net.endpoint(1)), 1, 2, Phase.DIST_MUL, value_bits=BITS)
        with pytest.raises(ParameterError):
            ot_send(session, [(1, 2, 3)])
        assert not session.spent

    def test_message_at_or_above_value_bits_rejected(self):
        net = InMemoryNetwork(2)
        ctx = OtContext(net.endpoint(1))
        for bad in (2**BITS, -1):
            session = ot_init(ctx, 1, 2, Phase.DIST_MUL, count=2, value_bits=BITS)
            with pytest.raises(ParameterError):
                ot_send(session, [(1, 2), (2**BITS - 1, bad)])
            assert not session.spent
        assert net.metrics.snapshot(1)[Phase.DIST_MUL].messages == 0

    def test_wrong_batch_size_rejected(self):
        net = InMemoryNetwork(2)
        ctx1, ctx2 = OtContext(net.endpoint(1)), OtContext(net.endpoint(2))
        sender = ot_init(ctx1, 1, 2, Phase.DIST_MUL, count=2, value_bits=BITS)
        with pytest.raises(ParameterError):
            ot_send(sender, [(1, 2)])
        receiver = ot_init(ctx2, 1, 2, Phase.DIST_MUL, count=2, value_bits=BITS)
        with pytest.raises(ParameterError):
            ot_choose(receiver, 0b111)

    def test_double_load_rejected(self):
        def sender(ep):
            session = ot_init(OtContext(ep), 1, 2, Phase.DIST_MUL, value_bits=BITS)
            ot_send(session, [(1, 2)])
            with pytest.raises(OtStateError):
                ot_send(session, [(1, 2)])
            return session

        results, _ = run_on_fresh_network(2, {1: sender}, timeout=30)
        assert results[1].spent

    def test_receiver_cannot_load(self):
        net = InMemoryNetwork(2)
        session = ot_init(OtContext(net.endpoint(2)), 1, 2, Phase.DIST_MUL, value_bits=BITS)
        with pytest.raises(RoleError):
            ot_send(session, [(1, 2)])

    def test_sender_cannot_choose(self):
        net = InMemoryNetwork(2)
        session = ot_init(OtContext(net.endpoint(1)), 1, 2, Phase.DIST_MUL, value_bits=BITS)
        with pytest.raises(RoleError):
            ot_choose(session, 1)

    def test_sender_cannot_read_results(self):
        # the role check raises when the steps are asked for, before any
        # of them runs
        net = InMemoryNetwork(2)
        session = ot_init(OtContext(net.endpoint(1)), 1, 2, Phase.DIST_MUL, value_bits=BITS)
        session.spent = True
        with pytest.raises(RoleError):
            ot_receive_chosen(session)

    def test_choice_bounds(self):
        # one choice bit per transfer: r must lie in [0, 2**count)
        net = InMemoryNetwork(2)
        ctx = OtContext(net.endpoint(2))
        for count in (1, 2, 9):
            session = ot_init(ctx, 1, 2, Phase.DIST_MUL, count=count, value_bits=BITS)
            for bad in (-1, 2**count):
                with pytest.raises(ParameterError):
                    ot_choose(session, bad)
            assert not session.spent

    def test_second_choose_rejected(self):
        values, _, ctx2 = run_batches([([(5, 6)], 0)])
        assert values == [[5]]
        # rebuild a handle in the spent state and reuse it
        session = ot_init(ctx2, 1, 2, Phase.DIST_MUL, value_bits=BITS)
        session.spent = True
        with pytest.raises(OtStateError):
            ot_choose(session, 0)

    def test_no_second_choose_after_a_fault(self):
        # the mediator faults a CHOOSE whose count differs from its LOAD's;
        # a second CHOOSE on that session would wait at the mediator forever
        def sender(ep):
            session = ot_init(OtContext(ep), 1, 2, Phase.DIST_MUL, count=2, value_bits=BITS)
            ot_send(session, [(1, 2), (3, 4)])

        def receiver(ep):
            session = ot_init(OtContext(ep), 1, 2, Phase.DIST_MUL, count=3, value_bits=BITS)
            with pytest.raises(ProtocolDesync):
                ot_choose(session, 0b101)
            with pytest.raises(OtStateError):
                ot_choose(session, 0b101)
            return session.spent

        results, _ = run_on_fresh_network(2, {1: sender, 2: receiver}, timeout=30)
        assert results[2] is True


def control_kinds(network):
    """Kind byte of every mediator frame sent, per participant."""
    return {
        party: [
            env.payload[0]
            for direction, env in network.transcript(party)
            if direction == "send" and env.phase == Phase.OT_CONTROL
        ]
        for party in (1, 2, MEDIATOR)
    }


class TestAccountingAndPrivacy:
    def test_session_costs_exactly_three_control_messages(self):
        # one product is one LOAD, one CHOOSE and one RESULT per batch; a
        # product sized like a k=1024 gcd product needs two batches
        for bit_width, share_bits, batches in ((16, 38, 1), (2048, 3076, 2)):
            a, b = (1 << share_bits) - 3, (1 << bit_width) - 5

            def holder(value, rng=None):
                def run(ep):
                    return distr_product(
                        1, 2, value, bit_width, share_bits, OtContext(ep), ep, rng=rng
                    )

                return run

            _, net = run_on_fresh_network(
                2,
                {1: holder(a, random.Random(3)), 2: holder(b)},
                record_transcripts=True,
            )
            assert control_kinds(net) == {
                1: [LOAD] * batches,
                2: [CHOOSE] * batches,
                MEDIATOR: [RESULT] * batches,
            }

    def test_session_ticks_one_communication_per_endpoint(self):
        for count in (1, 3):
            _, net, _ = run_batches(
                [([(7, 8)] * count, (1 << count) - 1)], phase=Phase.BIPRIME_GCD
            )
            for party in (1, 2):
                counts = net.metrics.snapshot(party)
                assert counts[Phase.BIPRIME_GCD].messages == count
                assert counts[Phase.BIPRIME_GCD].ot_inits == count
            # control traffic itself is not phase traffic
            assert net.metrics.snapshot(1)[Phase.DIST_MUL].messages == 0

    def test_receiver_bytes_depend_only_on_chosen_message(self):
        def receiver_view(pairs, choices):
            _, net, _ = run_batches([(pairs, choices)], record_transcripts=True)
            return [encode_envelope(env) for kind, env in net.transcript(2) if kind == "recv"]

        # unchosen messages differ; the bytes reaching the receiver must not
        assert receiver_view([(1, 42)], 1) == receiver_view([(999, 42)], 1)
        assert receiver_view([(1, 42)], 1) != receiver_view([(1, 43)], 1)
        choices = 0b101
        batch = [(1, 42), (5, 6), (8, 9)]
        other_unchosen = [(0, 42), (5, 0), (0, 9)]
        other_chosen = [(1, 42), (5, 6), (8, 10)]
        assert receiver_view(batch, choices) == receiver_view(other_unchosen, choices)
        assert receiver_view(batch, choices) != receiver_view(other_chosen, choices)

    def test_sender_bytes_independent_of_choice(self):
        def sender_view(pairs, choices):
            _, net, _ = run_batches([(pairs, choices)], record_transcripts=True)
            return [(direction, encode_envelope(env)) for direction, env in net.transcript(1)]

        views = [sender_view([(11, 22)], c) for c in (0, 1)]
        batch = [(11, 22), (44, 55), (77, 88)]
        batch_views = [sender_view(batch, choices) for choices in (0b000, 0b110, 0b011)]
        assert views[0] == views[1]
        assert batch_views[0] == batch_views[1] == batch_views[2]
        # and in this realization the sender hears nothing at all
        assert all(rec[0] == "send" for rec in views[0] + batch_views[0])

    def test_choose_frame_carries_one_bit_per_transfer(self):
        assert struct.calcsize(OT_HEADER) == 8
        for count in (1, 8, 9, 17):
            _, net, _ = run_batches(
                [([(1, 2)] * count, (1 << count) - 1)], record_transcripts=True
            )
            (choose,) = [env for direction, env in net.transcript(2) if direction == "send"]
            assert choose.payload[0] == CHOOSE
            assert len(choose.payload) == 8 + (count + 7) // 8

    def test_load_at_38_bits_carries_ten_bytes_per_transfer(self):
        # two messages of ceil(38 / 8) = 5 bytes each, whatever their values
        def holder(value, rng=None):
            return lambda ep: distr_product(1, 2, value, 16, 38, OtContext(ep), ep, rng=rng)

        for a in (0, 1, 2**38 - 1):
            _, net = run_on_fresh_network(
                2, {1: holder(a, random.Random(3)), 2: holder(7)}, record_transcripts=True
            )
            (load,) = [
                env
                for direction, env in net.transcript(1)
                if direction == "send" and env.phase == Phase.OT_CONTROL
            ]
            assert len(load.payload) == 8 + 10 * 16


def raw_request(ep, kind, other, count, body, round_=0):
    payload = struct.pack(OT_HEADER, kind, other, Phase.DIST_MUL, count) + body
    ep.send(Envelope(ep.party_id, MEDIATOR, Phase.OT_CONTROL, round_, payload))


class TestMalformedBatches:
    """A batch whose frame does not match its header stops the run with
    MalformedMessage; headers that disagree fault the receiver.  Neither
    may leave a party blocked."""

    @staticmethod
    def choose_three(ep):
        session = ot_init(OtContext(ep), 1, 2, Phase.DIST_MUL, count=3, value_bits=BITS)
        return ot_choose(session, 0b010)

    def test_truncated_load(self):
        def sender(ep):
            # header announces 3 transfers, body holds 2 of two-byte messages
            raw_request(ep, LOAD, 2, 3, bytes.fromhex("0100 0200 0300 0400"))

        with pytest.raises(MalformedMessage):
            run_on_fresh_network(2, {1: sender, 2: self.choose_three}, timeout=30)

    def test_load_longer_than_its_count(self):
        def sender(ep):
            body = bytes(range(16))  # four transfers of two-byte messages under a count of 3
            raw_request(ep, LOAD, 2, 3, body)

        with pytest.raises(MalformedMessage):
            run_on_fresh_network(2, {1: sender, 2: self.choose_three}, timeout=30)

    def test_empty_load_rejected(self):
        def load(count, body):
            payload = struct.pack(OT_HEADER, LOAD, 2, Phase.DIST_MUL, count) + body
            return _decode_request(Envelope(1, MEDIATOR, Phase.OT_CONTROL, 0, payload))

        assert load(1, b"\x01\x02")[2].items == b"\x01\x02"
        for count, body in ((0, b""), (0, b"\x01\x02"), (1, b"")):
            with pytest.raises(MalformedMessage):
                load(count, body)

    def test_empty_choose_rejected(self):
        # a CHOOSE of no transfers could never pair with a LOAD
        payload = struct.pack(OT_HEADER, CHOOSE, 1, Phase.DIST_MUL, 0)
        with pytest.raises(MalformedMessage):
            _decode_request(Envelope(2, MEDIATOR, Phase.OT_CONTROL, 0, payload))

    def test_duplicate_load_rejected(self):
        def sender(ep):
            # two LOADs for the same channel and first round
            for _ in range(2):
                raw_request(ep, LOAD, 2, 3, bytes(12))

        with pytest.raises(MalformedMessage, match="duplicate request"):
            run_on_fresh_network(2, {1: sender, 2: self.choose_three}, timeout=30)

    def test_choose_count_does_not_match_payload(self):
        def sender(ep):
            session = ot_init(OtContext(ep), 1, 2, Phase.DIST_MUL, count=3, value_bits=BITS)
            ot_send(session, [(1, 2), (3, 4), (5, 6)])

        def chooser(ep):
            # three transfers take one byte of choice bits, not two
            raw_request(ep, CHOOSE, 1, 3, b"\x01\x00")
            return ep.receive(Phase.OT_CONTROL, from_=MEDIATOR)

        with pytest.raises(MalformedMessage):
            run_on_fresh_network(2, {1: sender, 2: chooser}, timeout=30)

    def test_header_cut_short(self):
        def sender(ep):
            ep.send(Envelope(1, MEDIATOR, Phase.OT_CONTROL, 0, b"\x01\x00"))

        with pytest.raises(MalformedMessage):
            run_on_fresh_network(2, {1: sender, 2: self.choose_three}, timeout=30)

    def test_choose_bit_at_its_count_rejected(self):
        def choose(bits):
            payload = struct.pack(OT_HEADER, CHOOSE, 1, Phase.DIST_MUL, 3) + bytes([bits])
            return _decode_request(Envelope(2, MEDIATOR, Phase.OT_CONTROL, 0, payload))

        assert choose(0b111)[2].items == 0b111
        with pytest.raises(MalformedMessage):
            choose(0b1000)

    def test_disagreeing_counts_fault_the_receiver(self):
        def sender(ep):
            session = ot_init(OtContext(ep), 1, 2, Phase.DIST_MUL, count=2, value_bits=BITS)
            ot_send(session, [(1, 2), (3, 4)])

        with pytest.raises(ProtocolDesync):
            run_on_fresh_network(2, {1: sender, 2: self.choose_three}, timeout=30)

    def test_truncated_result(self):
        # two two-byte values for three transfers, then three four-byte
        # values, whose length divides evenly by the count
        for body in (bytes.fromhex("0700 0800"), bytes(12)):

            def mediator(ep):
                request = ep.receive(Phase.OT_CONTROL, from_=2)
                _kind, sender, phase, count = struct.unpack_from(OT_HEADER, request.payload)
                reply = struct.pack(OT_HEADER, RESULT, sender, phase, count) + body
                ep.send(Envelope(MEDIATOR, 2, Phase.OT_CONTROL, request.round, reply))

            with pytest.raises(MalformedMessage):
                run_on_fresh_network(
                    2, {2: self.choose_three, MEDIATOR: mediator}, timeout=30
                )

    def test_load_of_a_wider_width_is_caught_by_the_receiver(self):
        # 3 transfers of 4-byte messages make a LOAD the mediator accepts,
        # but the receiver agreed on 2-byte messages
        def sender(ep):
            session = ot_init(OtContext(ep), 1, 2, Phase.DIST_MUL, count=3, value_bits=32)
            ot_send(session, [(1, 2), (3, 4), (5, 6)])

        with pytest.raises(MalformedMessage):
            run_on_fresh_network(2, {1: sender, 2: self.choose_three}, timeout=30)
