import random
import sys
import threading
import time
from collections import deque

import pytest

from mprsa import (
    AddressError,
    ChannelClosed,
    DeadlockError,
    Envelope,
    InMemoryNetwork,
    OtContext,
    ParameterError,
    Phase,
    ProtocolConfig,
    ProtocolDesync,
    ot_choose,
    ot_init,
    ot_send,
    run_in_memory,
    run_mediator,
    run_parties,
    run_party,
    transport,
    tree_divisibility_test,
    tree_role,
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


def count_baton_wakes(monkeypatch) -> list:
    """Patch InMemoryNetwork._give_turn to list every participant it
    wakes: each release of a locked baton is an OS-level hand-off."""
    wakes = []
    original = InMemoryNetwork._give_turn

    def counting(net, pid):
        if net._baton[pid].locked():
            wakes.append(pid)
        original(net, pid)

    monkeypatch.setattr(InMemoryNetwork, "_give_turn", counting)
    return wakes


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

    def test_transcript_of_an_unknown_participant(self):
        net = InMemoryNetwork(2, record_transcripts=True)
        with pytest.raises(AddressError, match="no such participant: 9"):
            net.transcript(9)

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

    def test_peers_are_the_other_parties_ascending(self):
        net = InMemoryNetwork(4)
        for pid in (1, 2, 3, 4, MEDIATOR):
            assert net.endpoint(pid).peers == [p for p in (1, 2, 3, 4) if p != pid]

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

    def test_turn_given_before_the_party_parks(self):
        # party 1 blocks at once and hands the turn to party 2 while party 2
        # is still asleep, so party 2's baton is released before it ever
        # waits on it; its later receives must still wait for their message
        rounds = 20
        log = []

        def pinger(ep):
            for r in range(rounds):
                ep.send(simple_env(1, 2, bytes([r]), round_=r))
                log.append(("1 sent", r))
                env = ep.receive(Phase.TRIAL_DIV, from_=2, round_=r)
                log.append(("1 got", env.payload[0]))

        def late_ponger(ep):
            time.sleep(0.2)
            handed_over_early = ep.network._turn == ep.party_id
            for r in range(rounds):
                env = ep.receive(Phase.TRIAL_DIV, from_=1, round_=r)
                log.append(("2 got", env.payload[0]))
                ep.send(simple_env(2, 1, env.payload, round_=r))
                log.append(("2 sent", r))
            return handed_over_early

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results, _ = run_on_fresh_network(2, {1: pinger, 2: late_ponger}, timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert results[2] is True
        assert log == [
            (event, r)
            for r in range(rounds)
            for event in ("1 sent", "2 got", "2 sent", "1 got")
        ]

    def test_close_from_another_thread_ends_every_parked_party(self):
        # party 1 keeps the turn, so parties 2-4 park waiting for it until
        # a thread outside the run closes the network
        net = InMemoryNetwork(4)
        closed_at = []
        release = threading.Event()

        def holder(ep):
            assert release.wait(10.0)

        def parked(ep):
            try:
                ep.receive(Phase.TRIAL_DIV)
            except ChannelClosed:
                return time.monotonic() - closed_at[0]

        def closer():
            time.sleep(0.2)
            closed_at.append(time.monotonic())
            net.close()
            release.set()

        thread = threading.Thread(target=closer)
        thread.start()
        results = run_parties(net, {1: holder, 2: parked, 3: parked, 4: parked}, timeout=30)
        thread.join(10.0)
        assert not thread.is_alive()
        assert results[1] is None
        assert all(results[p] is not None and results[p] < 1.0 for p in (2, 3, 4))

    def test_randomized_interleavings_no_loss_no_corruption(self):
        # every sender waits for party 8's acknowledgement of each round,
        # so party 8's inbox holds all seven senders' messages interleaved
        results, _ = run_on_fresh_network(8, interleaved_fns(100))
        for sender, envelopes in results[8].items():
            rounds = [env.round for env in envelopes]
            assert rounds == list(range(100))  # per-pair FIFO, no loss
            assert all(env.payload == bytes([sender, env.round % 256]) for env in envelopes)


class TestPartyCap:
    """An in-memory network refuses more than MAX_MEMORY_PARTIES parties
    before it builds its tables or anything starts a thread."""

    @staticmethod
    def forbid_building(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built or started something over the cap")

        monkeypatch.setattr(transport, "PhaseMetrics", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)

    @pytest.mark.parametrize("parties", [transport.MAX_MEMORY_PARTIES + 1, 1 << 15])
    def test_network_over_the_cap(self, monkeypatch, parties):
        self.forbid_building(monkeypatch)
        with pytest.raises(ParameterError, match="in-memory"):
            InMemoryNetwork(parties)

    def test_run_over_the_cap(self, monkeypatch):
        self.forbid_building(monkeypatch)
        with pytest.raises(ParameterError, match="in-memory"):
            run_in_memory(ProtocolConfig(parties=1 << 15, bits=16, seed=b"\x01"))

    def test_network_at_the_cap(self):
        net = InMemoryNetwork(transport.MAX_MEMORY_PARTIES)
        assert net.party_ids[-1] == transport.MAX_MEMORY_PARTIES == 128


class TestLiveWindow:
    """A network runs only between run_parties' start and its last party's
    finish; a handle used outside that window fails at once."""

    @staticmethod
    def outcome_on_side_thread(call):
        outcome = []

        def run():
            try:
                call()
            except ChannelClosed as exc:
                outcome.append(str(exc))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(1.0)
        assert not thread.is_alive(), "the call blocked"
        return outcome

    def test_handle_before_the_run_fails_at_once(self):
        net = InMemoryNetwork(2)
        assert self.outcome_on_side_thread(
            lambda: net.endpoint(2).send(simple_env(2, 1))
        ) == ["network is not running"]
        assert self.outcome_on_side_thread(
            lambda: net.endpoint(1).receive(Phase.TRIAL_DIV)
        ) == ["network is not running"]

    def test_parties_finishing_end_the_run(self, monkeypatch):
        closes = []
        monkeypatch.setattr(InMemoryNetwork, "close", lambda net: closes.append(net))
        mediators = []

        def mediator(ep):
            mediators.append(threading.current_thread())
            run_mediator(ep)

        def sender(ep):
            ot_send(ot_init(OtContext(ep), 1, 2, Phase.DIST_MUL, value_bits=8), [(3, 4)])

        def receiver(ep):
            return ot_choose(ot_init(OtContext(ep), 1, 2, Phase.DIST_MUL, value_bits=8), 1)

        results, net = run_on_fresh_network(
            2, {1: sender, 2: receiver, MEDIATOR: mediator}, timeout=30
        )
        assert results[2] == [4]
        assert not mediators[0].is_alive()
        assert closes == []  # run_parties did not close the network
        assert self.outcome_on_side_thread(
            lambda: net.endpoint(1).send(simple_env(1, 2))
        ) == ["network is not running"]

    @pytest.mark.parametrize("fns", [{}, {MEDIATOR: run_mediator}], ids=["none", "mediator"])
    def test_run_without_a_party_callable_ends_at_once(self, fns):
        net = InMemoryNetwork(4)
        started = time.monotonic()
        assert run_parties(net, fns, timeout=30) == {}
        assert time.monotonic() - started < 1.0
        assert not [
            t.name for t in threading.enumerate()
            if t.name.startswith(("party-", "ot-mediator"))
        ]
        assert self.outcome_on_side_thread(
            lambda: net.endpoint(1).send(simple_env(1, 2))
        ) == ["network is not running"]
        assert self.outcome_on_side_thread(
            lambda: net.endpoint(MEDIATOR).receive(Phase.OT_CONTROL)
        ) == ["network is not running"]


class TestParkedSteps:
    """Steps that wait on a receive are parked and run on by whichever
    thread holds the turn; what goes wrong in them reaches their owner.
    A plain receive that waits is parked one-receive steps, so its owner
    is woken once per receive that waits."""

    @pytest.mark.parametrize("wait", ["steps", "receive"])
    def test_desync_is_raised_from_the_owners_run(self, monkeypatch, wait):
        # the desync is met on the thread that runs the parked steps, or
        # the parked plain receive, and raised from their owner's run or
        # receive on its own thread
        met_on = []
        original = transport.take_match

        def take(inbox, metrics, party_id, *args):
            try:
                return original(inbox, metrics, party_id, *args)
            except ProtocolDesync:
                met_on.append(threading.get_ident())
                raise

        monkeypatch.setattr(transport, "take_match", take)

        def steps(ep):
            ep.send(simple_env(2, 1, phase=Phase.DIST_MUL))
            yield (Phase.TRIAL_DIV, 1, 6)

        def owner(ep):
            try:
                if wait == "steps":
                    ep.run(steps(ep))
                else:
                    ep.send(simple_env(2, 1, phase=Phase.DIST_MUL))
                    ep.receive(Phase.TRIAL_DIV, 1, 6)
            except ProtocolDesync:
                return threading.get_ident()

        def sender(ep):
            ep.receive(Phase.DIST_MUL, from_=2)  # party 2 is parked
            ep.send(simple_env(1, 2, round_=5))
            return threading.get_ident()

        results, _ = run_on_fresh_network(2, {1: sender, 2: owner}, timeout=30)
        # party 1's finish ran the parked receive, which raised in party 2
        assert met_on == [results[1]]
        assert results[2] is not None and results[2] != results[1]

    def test_deadlock_names_the_parked_receive(self):
        # party 3 takes no part, so the survivor it sends to waits forever
        config = ProtocolConfig(parties=4, bits=16, trial_bound=100, seed=b"\x07")
        beta = 11
        waiter = tree_role(config, beta, 3)[1]
        turn = tree_role(config, beta, waiter)[0].index(3) + 1
        fns = {
            p: lambda ep: tree_divisibility_test(config, beta, 1, ep) for p in (1, 2, 4)
        }
        with pytest.raises(DeadlockError) as info:
            run_on_fresh_network(4, fns, timeout=30)
        assert f"party {waiter} waits on TRIAL_DIV from 3 round {turn}" in str(info.value)

    def test_close_from_another_thread_ends_every_parked_party(self):
        # parties 2-4 park their steps waiting on party 1, which then
        # keeps the turn until a thread outside the run closes the network
        net = InMemoryNetwork(4)
        closed_at = []
        release = threading.Event()

        def steps(ep):
            if ep.party_id == 4:
                ep.send(simple_env(4, 1, phase=Phase.DIST_MUL))
            yield (Phase.TRIAL_DIV, 1, 0)

        def holder(ep):
            ep.receive(Phase.DIST_MUL, from_=4)
            parked = sorted(ep.network._steps)
            assert release.wait(10.0)
            return parked

        def owner(ep):
            try:
                ep.run(steps(ep))
            except ChannelClosed:
                return time.monotonic() - closed_at[0]

        def closer():
            time.sleep(0.2)
            closed_at.append(time.monotonic())
            net.close()
            release.set()

        thread = threading.Thread(target=closer)
        thread.start()
        results = run_parties(net, {1: holder, 2: owner, 3: owner, 4: owner}, timeout=30)
        thread.join(10.0)
        assert not thread.is_alive()
        assert results[1] == [2, 3, 4]
        assert all(results[p] is not None and results[p] < 1.0 for p in (2, 3, 4))

    @staticmethod
    def run_long_stretch(timeout=None):
        """Run 4 parties whose every attempt fails trial division, until a
        closer sees over 50 attempts or, given a timeout, until the run
        times out; returns the draw count, when each party ended, when
        the run was stopped and how long after the start that was."""
        # every candidate is below 2**10 and so has a prime factor below
        # the trial bound: trial division rejects each attempt, and the
        # turn holder runs the parties' sieve steps inline, with the lock
        # held, for as long as the run lasts
        config = ProtocolConfig(parties=4, bits=8, trial_bound=1031, seed=b"\x01")
        net = InMemoryNetwork(4)
        draws, ended, stopped_at = [], {}, []

        class CountingRandom(random.Random):
            def randrange(self, *args):
                draws.append(None)
                return super().randrange(*args)

        def party(ep):
            rng = CountingRandom(ep.party_id)
            try:
                run_party(config, ep.party_id, ep, rng, max_attempts=10**9)
            except ChannelClosed:
                ended[ep.party_id] = time.monotonic()

        def closer():
            # closes once over 50 attempts ran, however fast the machine
            deadline = time.monotonic() + 10.0
            while len(draws) <= 2 * 4 * 50 and time.monotonic() < deadline:
                time.sleep(0.01)
            stopped_at.append(time.monotonic())
            net.close()

        fns = {MEDIATOR: run_mediator, **dict.fromkeys(range(1, 5), party)}
        started = time.monotonic()
        if timeout is None:
            thread = threading.Thread(target=closer)
            thread.start()
            run_parties(net, fns, timeout=30)
            thread.join(10.0)
            assert not thread.is_alive()
        else:
            with pytest.raises(TimeoutError):
                run_parties(net, fns, timeout=timeout)
            stopped_at.append(started + timeout)
            for thread in threading.enumerate():
                if thread.name.startswith(("party-", "ot-mediator")):
                    thread.join(10.0)
        return len(draws), ended, stopped_at[0], stopped_at[0] - started

    @pytest.mark.parametrize("stop", ["close", "timeout"])
    def test_long_inline_stretch_still_stops(self, stop):
        draws, ended, stopped_at, took = self.run_long_stretch()
        if stop == "timeout":
            # three times what the closed run took to pass 50 attempts, so
            # the timeout comes after them however slow the machine
            draws, ended, stopped_at, _ = self.run_long_stretch(max(0.3, 3 * took))
        assert draws > 2 * 4 * 50  # over 50 attempts ran before the stop
        assert sorted(ended) == [1, 2, 3, 4]
        assert max(ended.values()) - stopped_at < 1.0


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

    def test_last_party_to_finish_ends_the_mediator(self):
        # the mediator is still waiting in receive when both parties are
        # done; the last one's finish closes the network, which
        # run_mediator takes as its end, and a participant that does not
        # is a failure
        def noop(ep):
            return ep.party_id

        results, _ = run_on_fresh_network(2, {1: noop, 2: noop}, timeout=30)
        assert results == {1: 1, 2: 2}
        with pytest.raises(ChannelClosed):
            run_on_fresh_network(
                2,
                {1: noop, 2: noop, MEDIATOR: lambda ep: ep.receive(Phase.OT_CONTROL)},
                timeout=30,
            )

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

    def test_only_the_turn_holder_touches_the_network(self, monkeypatch):
        # every inbox append and every take_match must come from the
        # participant holding the turn of a running network; a wake that
        # skipped the turn check would let a parked one act on a stale
        # baton release, or after the close
        touches = []

        class Inbox(deque):
            def __init__(self, net):
                super().__init__()
                self.net = net

            def append(self, env):
                touches.append((env.sender, self.net._turn, self.net._closed))
                super().append(env)

        original_init, original_take = InMemoryNetwork.__init__, transport.take_match

        def init(net, *args, **kwargs):
            original_init(net, *args, **kwargs)
            net._queues = {pid: Inbox(net) for pid in net._queues}

        def take(inbox, metrics, party_id, *args):
            touches.append((party_id, inbox.net._turn, inbox.net._closed))
            return original_take(inbox, metrics, party_id, *args)

        monkeypatch.setattr(InMemoryNetwork, "__init__", init)
        monkeypatch.setattr(transport, "take_match", take)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = run_in_memory(ProtocolConfig(parties=8, bits=16, seed=b"\x01"))
        finally:
            sys.setswitchinterval(interval)
        assert result.attempts > 1 and len(touches) > 1000
        assert [t for t in touches if t[0] != t[1] or t[2]] == []

    @pytest.mark.parametrize("parties", [4, 8])
    def test_tree_test_wakes_each_party_once(self, monkeypatch, parties):
        # each party runs its 20 tests as one set of steps, and parked
        # steps run inline on the turn holder's thread: a party's thread
        # is woken only when its steps end, whatever the number of tests
        wakes = count_baton_wakes(monkeypatch)
        config = ProtocolConfig(parties=parties, bits=16, trial_bound=100, seed=b"\x07")
        beta, tests = 7, 20

        def steps(ep, role):
            verdicts = []
            for seq in range(tests):
                verdicts.append(
                    (yield from tree_divisibility_test(
                        config, beta, ep.party_id + seq, ep, test_seq=seq, role=role
                    ))
                )
            return verdicts

        def party(ep):
            return ep.run(steps(ep, tree_role(config, beta, ep.party_id)))

        results, _ = run_on_fresh_network(
            parties, dict.fromkeys(range(1, parties + 1), party), timeout=60
        )
        assert len({tuple(verdicts) for verdicts in results.values()}) == 1
        assert len(wakes) <= parties + 2

    def test_mediator_is_not_woken(self, monkeypatch):
        # the mediator serves every request as steps that the turn holder
        # runs inline, so its thread waits from its start to the close;
        # only a first turn that reached it before it parked could wake it
        wakes = count_baton_wakes(monkeypatch)
        run_in_memory(ProtocolConfig(parties=4, bits=16, seed=b"\x01"), timeout=60)
        assert wakes.count(MEDIATOR) <= 1

    def test_party_wakes_do_not_grow_with_rejected_candidates(self, monkeypatch):
        # an attempt up to the filter's verdict is one set of steps that
        # runs inline, whether trial division rejects it or it multiplies,
        # so a party is woken when those steps end and around its gcd
        # test's blocking receives, however many candidates failed before
        wakes = count_baton_wakes(monkeypatch)
        parties = 8
        result = run_in_memory(ProtocolConfig(parties=parties, bits=32, seed=b"\x01"), timeout=60)
        records = [r for r in result.records if r.party == 1]
        multiplied = sum(r.context.ran_multiplication for r in records)
        gcd_tests = sum(r.context.ran_gcd for r in records)
        assert result.attempts > 10 * multiplied
        party_wakes = [pid for pid in wakes if pid != MEDIATOR]
        assert len(party_wakes) <= 4 * parties * gcd_tests

    @pytest.mark.parametrize("parties", [4, 8])
    def test_party_wakes_do_not_grow_with_multiplications(self, monkeypatch, parties):
        # at B=3 every attempt multiplies and runs a filter round; an
        # attempt up to the filter's verdict is one set of steps, so a
        # party is woken when they end and around its gcd test's blocking
        # receives, however many products ran before
        wakes = count_baton_wakes(monkeypatch)
        config = ProtocolConfig(parties=parties, bits=16, trial_bound=3, seed=b"\x01")
        result = run_in_memory(config, timeout=60)
        records = [r for r in result.records if r.party == 1]
        gcd_tests = sum(r.context.ran_gcd for r in records)
        assert all(r.context.ran_multiplication for r in records)
        assert result.attempts > 20 * gcd_tests
        party_wakes = [pid for pid in wakes if pid != MEDIATOR]
        assert len(party_wakes) <= 4 * parties * gcd_tests
