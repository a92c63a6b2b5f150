import sys
import time

import pytest

from mprsa import (
    AddressError,
    ChannelClosed,
    DeadlockError,
    Envelope,
    InMemoryNetwork,
    ParameterError,
    Phase,
    ProtocolDesync,
)
from mprsa.wire import BROADCAST, MEDIATOR
from conftest import run_on_fresh_network


def simple_env(sender, to, payload=b"", phase=Phase.TRIAL_DIV, round_=0):
    return Envelope(sender, to, phase, round_, payload)


def sender_of(*envelopes):
    """Party callable that sends the given envelopes in order."""

    def run(ep):
        for env in envelopes:
            ep.send(env)

    return run


def interleaved_fns(per_sender):
    """Parties 1-7 each send party 8 one message per round and wait for
    its acknowledging broadcast; party 8 returns {sender: envelopes}."""
    senders = range(1, 8)

    def pump(ep):
        sender = ep.party_id
        for i in range(per_sender):
            ep.send(simple_env(sender, 8, bytes([sender, i % 256]), round_=i))
            ep.receive(Phase.DIST_MUL, from_=8, round_=i)

    def sink(ep):
        seen = {s: [] for s in senders}
        for i in range(per_sender):
            for _ in senders:
                env = ep.receive(Phase.TRIAL_DIV)
                seen[env.sender].append(env)
            ep.broadcast(simple_env(8, BROADCAST, phase=Phase.DIST_MUL, round_=i))
        return seen

    return {**dict.fromkeys(senders, pump), 8: sink}


class TestPointToPoint:
    def test_send_receive_byte_identical(self):
        results, _ = run_on_fresh_network(2, {
            1: sender_of(simple_env(1, 2, b"\x00\x01\xff payload")),
            2: lambda ep: ep.receive(Phase.TRIAL_DIV),
        })
        env = results[2]
        assert env.payload == b"\x00\x01\xff payload"
        assert env.sender == 1 and env.to == 2

    def test_fifo_per_pair(self):
        results, _ = run_on_fresh_network(2, {
            1: sender_of(*(simple_env(1, 2, bytes([i]), round_=i) for i in range(10))),
            2: lambda ep: [ep.receive(Phase.TRIAL_DIV).payload[0] for _ in range(10)],
        })
        assert results[2] == list(range(10))

    def test_counter_delta_one_per_side(self):
        def sender(ep):
            ep.send(simple_env(1, 2, b"x"))
            return tuple(ep.metrics.snapshot(p)[Phase.TRIAL_DIV].messages for p in (1, 2))

        def receiver(ep):
            ep.receive(Phase.TRIAL_DIV)
            return ep.metrics.snapshot(2)[Phase.TRIAL_DIV].messages

        results, _ = run_on_fresh_network(2, {1: sender, 2: receiver})
        # the destination is ticked at delivery, not at send
        assert results[1] == (1, 0)
        assert results[2] == 1

    def test_out_of_phase_message_retained(self):
        def receiver(ep):
            return (
                ep.receive(Phase.TRIAL_DIV).payload,
                ep.receive(Phase.DIST_MUL).payload,
            )

        results, _ = run_on_fresh_network(2, {
            1: sender_of(
                simple_env(1, 2, b"mul", phase=Phase.DIST_MUL),
                simple_env(1, 2, b"trial", phase=Phase.TRIAL_DIV),
            ),
            2: receiver,
        })
        assert results[2] == (b"trial", b"mul")

    def test_selective_by_sender(self):
        def receiver(ep):
            return (
                ep.receive(Phase.TRIAL_DIV, from_=3).payload,
                ep.receive(Phase.TRIAL_DIV, from_=2).payload,
            )

        results, _ = run_on_fresh_network(4, {
            1: receiver,
            2: sender_of(simple_env(2, 1, b"from2")),
            3: sender_of(simple_env(3, 1, b"from3")),
        })
        assert results[1] == (b"from3", b"from2")

    def test_unknown_destination(self):
        net = InMemoryNetwork(2)
        with pytest.raises(AddressError):
            net.endpoint(1).send(simple_env(1, 9))

    def test_self_send_rejected(self):
        net = InMemoryNetwork(2)
        with pytest.raises(AddressError):
            net.endpoint(1).send(simple_env(1, 1))

    def test_spoofed_sender_rejected(self):
        net = InMemoryNetwork(2)
        with pytest.raises(ParameterError):
            net.endpoint(1).send(simple_env(2, 1))

    def test_round_mismatch_is_desync(self):
        with pytest.raises(ProtocolDesync):
            run_on_fresh_network(2, {
                1: sender_of(simple_env(1, 2, round_=5)),
                2: lambda ep: ep.receive(Phase.TRIAL_DIV, from_=1, round_=6),
            })


class TestBroadcast:
    def test_all_peers_receive(self):
        def receiver(ep):
            return ep.receive(Phase.TRIAL_DIV).payload

        results, _ = run_on_fresh_network(4, {
            1: receiver,
            2: lambda ep: ep.broadcast(simple_env(2, BROADCAST, b"hello")),
            3: receiver,
            4: receiver,
        })
        assert {peer: results[peer] for peer in (1, 3, 4)} == dict.fromkeys(
            (1, 3, 4), b"hello"
        )

    def test_sender_counter_delta_is_one(self):
        _, net = run_on_fresh_network(4, {
            2: lambda ep: ep.broadcast(simple_env(2, BROADCAST, b"x")),
        })
        counts = net.metrics.snapshot(2)[Phase.TRIAL_DIV]
        assert counts.messages == 1
        assert counts.broadcasts == 1

    def test_no_self_delivery(self):
        def party1(ep):
            ep.broadcast(simple_env(1, BROADCAST, b"x"))
            ep.receive(Phase.TRIAL_DIV)

        # no participant can ever send party 1 a TRIAL_DIV message
        with pytest.raises(DeadlockError, match="party 1 waits on TRIAL_DIV"):
            run_on_fresh_network(2, {1: party1})

    def test_mediator_not_a_broadcast_target(self):
        seen = []

        def mediator(ep):
            try:
                seen.append(ep.receive(Phase.TRIAL_DIV))
            except ChannelClosed:
                pass  # the parties finished and the network closed first

        results, _ = run_on_fresh_network(2, {
            1: lambda ep: ep.broadcast(simple_env(1, BROADCAST, b"x")),
            2: lambda ep: ep.receive(Phase.TRIAL_DIV),
            MEDIATOR: mediator,
        })
        assert results[2].payload == b"x"
        assert seen == []

    def test_wrong_address_rejected(self):
        net = InMemoryNetwork(2)
        with pytest.raises(AddressError):
            net.endpoint(1).broadcast(simple_env(1, 2))
        with pytest.raises(AddressError):
            net.endpoint(1).send(simple_env(1, BROADCAST))


class TestBlockingAndClose:
    def test_receive_blocks_until_send(self):
        order = []

        def waiter(ep):
            # party 1 holds the first turn, so this receive runs before
            # party 2 has sent anything
            payload = ep.receive(Phase.TRIAL_DIV, from_=2).payload
            order.append("received")
            return payload

        def late_sender(ep):
            ep.send(simple_env(2, 1, b"late"))
            order.append("sent")

        results, _ = run_on_fresh_network(2, {1: waiter, 2: late_sender})
        assert results[1] == b"late"
        assert order == ["sent", "received"]

    def test_close_unblocks_with_channel_closed(self):
        def waiter(ep):
            ep.send(simple_env(2, 1, b"go"))
            try:
                ep.receive(Phase.TRIAL_DIV)
            except ChannelClosed:
                return "closed"

        def closer(ep):
            ep.receive(Phase.TRIAL_DIV, from_=2)  # party 2 is blocked by now
            ep.network.close()

        results, _ = run_on_fresh_network(2, {1: closer, 2: waiter})
        assert results[2] == "closed"

    def test_randomized_interleavings_no_loss_no_corruption(self):
        # every sender waits for party 8's acknowledgement of each round,
        # so party 8's inbox holds all seven senders' messages interleaved
        results, _ = run_on_fresh_network(8, interleaved_fns(100))
        for sender, envelopes in results[8].items():
            rounds = [env.round for env in envelopes]
            assert rounds == list(range(100))  # per-pair FIFO, no loss
            assert all(env.payload == bytes([sender, env.round % 256]) for env in envelopes)


class TestScheduler:
    def test_two_runs_have_identical_transcripts(self):
        def party1(ep):
            ep.send(simple_env(1, 2, b"ping"))
            return ep.receive(Phase.TRIAL_DIV, from_=2).payload

        def party2(ep):
            env = ep.receive(Phase.TRIAL_DIV, from_=1)
            ep.send(simple_env(2, 1, b"pong-" + env.payload))
            return env.payload

        def run_once():
            results, net = run_on_fresh_network(
                2, {1: party1, 2: party2}, timeout=30, record_transcripts=True
            )
            return results, {p: net.transcript(p) for p in (1, 2, MEDIATOR)}

        (res_a, tr_a), (res_b, tr_b) = run_once(), run_once()
        assert res_a == res_b == {1: b"pong-ping", 2: b"ping"}
        assert tr_a == tr_b

    def test_deadlock_detected(self):
        def stuck(peer):
            def run(ep):
                ep.receive(Phase.TRIAL_DIV, from_=peer, round_=0)

            return run

        with pytest.raises(DeadlockError) as info:
            run_on_fresh_network(2, {1: stuck(2), 2: stuck(1)}, timeout=30)
        report = str(info.value)
        assert "party 1 waits on TRIAL_DIV from 2 round 0" in report
        assert "party 2 waits on TRIAL_DIV from 1 round 0" in report
        assert "mediator waits on OT_CONTROL from any round any" in report

    def test_shutdown_close_is_not_a_failure(self):
        # the mediator is still blocked when both parties are done, so
        # run_parties' own close() ends it with ChannelClosed
        def noop(ep):
            return ep.party_id

        results, _ = run_on_fresh_network(
            2,
            {1: noop, 2: noop, MEDIATOR: lambda ep: ep.receive(Phase.OT_CONTROL)},
            timeout=30,
        )
        assert results == {1: 1, 2: 2}

    def test_timeout_not_masked_by_shutdown_close(self):
        # party 1 holds the turn past the deadline while party 2 waits;
        # the close() that ends party 2 must not hide the timeout
        def slow(ep):
            time.sleep(1.0)

        with pytest.raises(TimeoutError):
            run_on_fresh_network(
                2, {1: slow, 2: lambda ep: ep.receive(Phase.TRIAL_DIV)}, timeout=0.2
            )

    def test_reproducible_under_forced_thread_switches(self):
        # nine threads on fewer cores, preempted as often as the
        # interpreter allows: the order of events must still not change
        def run_once():
            results, net = run_on_fresh_network(
                8, interleaved_fns(30), timeout=60, record_transcripts=True
            )
            return results, [net.transcript(p) for p in (*range(1, 9), MEDIATOR)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            first, second = run_once(), run_once()
        finally:
            sys.setswitchinterval(interval)
        assert first == second
