import os
import socket
import struct
import threading
import time

import pytest

from mprsa import (
    AddressError,
    ChannelClosed,
    Envelope,
    MalformedMessage,
    PayloadTooLarge,
    Phase,
    PhaseMetrics,
    ProtocolConfig,
    protocol,
    records_to_jsonl,
    run_in_memory,
    run_mediator,
    run_party,
    streamnet,
)
from mprsa.hashing import party_rng
from mprsa.streamnet import open_mesh, take_frames
from mprsa.wire import BROADCAST, MAX_BODY, MAX_PAYLOAD, MEDIATOR, encode_envelope


# a socket receive waits until close(), so a test whose receive is never
# answered ends with ChannelClosed once this many seconds have passed
WATCHDOG_S = 60.0


class Mesh(dict):
    """{id: endpoint} plus the watchdog timer that closes them all."""

    watchdog: threading.Timer


def build_mesh(ids, watchdog_s=WATCHDOG_S):
    """Pre-bind ephemeral listeners for every participant and open the
    full mesh concurrently; returns {id: endpoint}, with a watchdog armed
    that closes every endpoint after `watchdog_s` seconds."""
    listeners, addresses = {}, {}
    for pid in ids:
        srv = socket.create_server(("127.0.0.1", 0), backlog=len(ids))
        listeners[pid] = srv
        addresses[pid] = ("127.0.0.1", srv.getsockname()[1])
    endpoints = {}
    errors = []

    def opener(pid):
        try:
            endpoints[pid] = open_mesh(
                pid, addresses, metrics=PhaseMetrics(), listener=listeners[pid]
            )
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=opener, args=(pid,), daemon=True) for pid in ids]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not errors, errors
    assert set(endpoints) == set(ids)
    mesh = Mesh(endpoints)
    mesh.watchdog = threading.Timer(watchdog_s, close_all, args=(endpoints,))
    mesh.watchdog.daemon = True
    mesh.watchdog.start()
    return mesh


def close_all(endpoints):
    """Close every endpoint, once a mesh's watchdog is stopped."""
    watchdog = getattr(endpoints, "watchdog", None)
    if watchdog is not None:
        watchdog.cancel()
        watchdog.join()
    for ep in endpoints.values():
        ep.close()


class TestMeshBasics:
    def test_point_to_point_roundtrip(self):
        endpoints = build_mesh([1, 2, MEDIATOR])
        try:
            endpoints[1].send(Envelope(1, 2, Phase.TRIAL_DIV, 9, b"over tcp"))
            env = endpoints[2].receive(Phase.TRIAL_DIV, from_=1, round_=9)
            assert env.payload == b"over tcp"
        finally:
            close_all(endpoints)

    def test_broadcast_reaches_all_parties_only(self):
        endpoints = build_mesh([1, 2, 3, 4, MEDIATOR])
        try:
            endpoints[3].broadcast(Envelope(3, BROADCAST, Phase.DIST_MUL, 0, b"fan"))
            for pid in (1, 2, 4):
                assert endpoints[pid].receive(Phase.DIST_MUL).payload == b"fan"
            # links are FIFO: a later frame matched first means the
            # broadcast never reached the mediator
            endpoints[3].send(Envelope(3, MEDIATOR, Phase.DIST_MUL, 0, b"marker"))
            assert endpoints[MEDIATOR].receive(Phase.DIST_MUL, from_=3).payload == b"marker"
        finally:
            close_all(endpoints)

    def test_peers_are_the_other_parties_ascending(self):
        endpoints = build_mesh([1, 2, 3, 4, MEDIATOR])
        try:
            for pid, endpoint in endpoints.items():
                assert endpoint.peers == [p for p in (1, 2, 3, 4) if p != pid]
        finally:
            close_all(endpoints)

    def test_peers_is_a_fresh_list(self):
        endpoints = build_mesh([1, 2, 3, MEDIATOR])
        try:
            peers = endpoints[2].peers
            peers.reverse()
            peers.append(99)
            assert endpoints[2].peers == [1, 3]
        finally:
            close_all(endpoints)

    @pytest.mark.parametrize("sender", [7, 1], ids=["stranger", "self"])
    def test_receive_from_a_party_with_no_link_fails_at_once(self, sender):
        # like a write to an unknown destination: no frame can ever come
        endpoints = build_mesh([1, 2])
        try:
            started = time.monotonic()
            with pytest.raises(AddressError):
                endpoints[1].receive(Phase.TRIAL_DIV, from_=sender)
            assert time.monotonic() - started < 0.5
        finally:
            close_all(endpoints)

    def test_counters_mirror_memory_semantics(self):
        endpoints = build_mesh([1, 2, MEDIATOR])
        try:
            endpoints[1].send(Envelope(1, 2, Phase.TRIAL_DIV, 0, b"x"))
            assert endpoints[1].metrics.snapshot(1)[Phase.TRIAL_DIV].messages == 1
            endpoints[2].receive(Phase.TRIAL_DIV)
            assert endpoints[2].metrics.snapshot(2)[Phase.TRIAL_DIV].messages == 1
        finally:
            close_all(endpoints)

    def test_close_unblocks_receiver(self):
        endpoints = build_mesh([1, 2, MEDIATOR])
        errors = []

        def waiter():
            try:
                endpoints[1].receive(Phase.TRIAL_DIV)
            except ChannelClosed as exc:
                errors.append(exc)

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        endpoints[1].close()
        thread.join(10)
        close_all(endpoints)
        assert len(errors) == 1

    @pytest.mark.parametrize(
        "frame",
        [
            Envelope(3, 1, Phase.TRIAL_DIV, 0, b"forged sender"),
            Envelope(2, 3, Phase.TRIAL_DIV, 0, b"someone else's"),
        ],
        ids=["sender", "destination"],
    )
    def test_link_carries_only_its_peers_frames(self, frame):
        # party 2 writes a frame on its own link to party 1 that claims
        # another sender or another destination; party 1 must not deliver
        # it, and drops the link instead
        endpoints = build_mesh([1, 2, 3])
        try:
            endpoints[2]._write(1, encode_envelope(frame))
            with pytest.raises(ChannelClosed, match="no open link to 2"):
                endpoints[1].receive(Phase.TRIAL_DIV, from_=2)
            endpoints[3].send(Envelope(3, 1, Phase.TRIAL_DIV, 0, b"genuine"))
            assert endpoints[1].receive(Phase.TRIAL_DIV, from_=3).payload == b"genuine"
        finally:
            close_all(endpoints)

    def test_a_queued_frame_needs_no_wait(self):
        # the DIST_MUL receive pulls in the TRIAL_DIV frame sent before it
        endpoints = build_mesh([1, 2])
        try:
            endpoints[2].send(Envelope(2, 1, Phase.TRIAL_DIV, 0, b"early"))
            endpoints[2].send(Envelope(2, 1, Phase.DIST_MUL, 0, b"late"))
            assert endpoints[1].receive(Phase.DIST_MUL).payload == b"late"
            assert endpoints[1].receive(Phase.TRIAL_DIV).payload == b"early"
        finally:
            close_all(endpoints)

    def test_watchdog_ends_an_unanswered_receive(self):
        endpoints = build_mesh([1, 2], watchdog_s=0.2)
        try:
            started = time.monotonic()
            with pytest.raises(ChannelClosed, match="endpoint closed"):
                endpoints[1].receive(Phase.TRIAL_DIV, from_=2)
            assert time.monotonic() - started < 5
        finally:
            close_all(endpoints)

    def test_hello_must_name_an_expected_peer(self):
        # party 1 accepts from 2 and the mediator; hellos that claim to be
        # party 1 itself, or a peer already attached, are refused
        for hellos in ([1, 1], [2, 2]):
            srv = socket.create_server(("127.0.0.1", 0))
            port = srv.getsockname()[1]
            addresses = {pid: ("127.0.0.1", port) for pid in (1, 2, MEDIATOR)}
            dialers = []
            for hello in hellos:
                sock = socket.create_connection(("127.0.0.1", port))
                sock.sendall(hello.to_bytes(2, "big"))
                dialers.append(sock)
            try:
                with pytest.raises(AddressError):
                    open_mesh(1, addresses, listener=srv, connect_timeout=5)
            finally:
                for sock in dialers:
                    sock.close()

    def test_mesh_binds_and_dials_an_ipv6_address(self):
        # party 1 binds its own listener, which the mediator dials
        probe = socket.socket(socket.AF_INET6)
        probe.bind(("::1", 0))
        addresses = {1: ("::1", probe.getsockname()[1]), MEDIATOR: ("::1", 0)}
        probe.close()
        endpoints = {}
        thread = threading.Thread(
            target=lambda: endpoints.update({1: open_mesh(1, addresses, connect_timeout=10)}),
            daemon=True,
        )
        thread.start()
        endpoints[MEDIATOR] = open_mesh(MEDIATOR, addresses, connect_timeout=10)
        thread.join(10)
        try:
            assert not thread.is_alive() and 1 in endpoints
            endpoints[1].send(Envelope(1, MEDIATOR, Phase.OT_CONTROL, 0, b"v6"))
            assert endpoints[MEDIATOR].receive(Phase.OT_CONTROL, from_=1).payload == b"v6"
        finally:
            close_all(endpoints)

    def test_silent_dialer_cannot_hold_setup(self):
        # a dialer that connects and never says hello: setup gives up at
        # the connect deadline, with the listener closed
        srv = socket.create_server(("127.0.0.1", 0))
        port = srv.getsockname()[1]
        addresses = {pid: ("127.0.0.1", port) for pid in (1, 2)}
        silent = socket.create_connection(("127.0.0.1", port))
        outcome = []

        def setup():
            try:
                open_mesh(1, addresses, listener=srv, connect_timeout=1)
            except Exception as exc:  # noqa: BLE001
                outcome.append(exc)

        started = time.monotonic()
        thread = threading.Thread(target=setup, daemon=True)
        thread.start()
        thread.join(3)
        try:
            assert not thread.is_alive(), "open_mesh still waits for a hello"
            assert time.monotonic() - started < 3
            assert len(outcome) == 1 and isinstance(outcome[0], ChannelClosed)
            assert srv.fileno() == -1
        finally:
            silent.close()
            srv.close()


class TestFrameParser:
    def test_keeps_a_partial_tail(self):
        first = encode_envelope(Envelope(2, 1, Phase.TRIAL_DIV, 0, b"one"))
        second = encode_envelope(Envelope(2, 1, Phase.DIST_MUL, 1, b"two"))
        buf = bytearray(first + second[:6])
        assert [env.payload for env in take_frames(buf)] == [b"one"]
        assert buf == second[:6]
        buf += second[6:]
        assert [env.payload for env in take_frames(buf)] == [b"two"]
        assert buf == b""

    def test_oversized_prefix_fails_before_the_body(self):
        with pytest.raises(PayloadTooLarge):
            take_frames(bytearray(struct.pack(">I", MAX_BODY + 1)))

    def test_bad_body_is_malformed(self):
        with pytest.raises(MalformedMessage):
            take_frames(bytearray(struct.pack(">I", 3) + b"abc"))

    def test_stops_at_a_bad_frame_after_good_ones(self):
        # the good frame comes back and the bad one stays for the next call
        bad = struct.pack(">I", 3) + b"abc"
        buf = bytearray(encode_envelope(Envelope(2, 1, Phase.TRIAL_DIV, 0, b"good")) + bad)
        assert [env.payload for env in take_frames(buf)] == [b"good"]
        assert buf == bad
        with pytest.raises(MalformedMessage):
            take_frames(buf)

    def test_decodes_through_the_module_global(self, monkeypatch):
        # the layer trace counts frame decodes by patching this name
        seen = []

        def counting(body):
            seen.append(body)
            return decode(body)

        decode = streamnet.decode_envelope_body
        monkeypatch.setattr(streamnet, "decode_envelope_body", counting)
        frame = encode_envelope(Envelope(2, 1, Phase.TRIAL_DIV, 0, b"x"))
        assert len(take_frames(bytearray(frame * 3))) == 3
        assert len(seen) == 3


    def test_encodes_through_the_module_global(self, monkeypatch):
        # the layer trace counts frame encodes by patching this name; a
        # broadcast encodes its frame once for all of its peers
        seen = []

        def counting(env):
            seen.append(env)
            return encode(env)

        encode = streamnet.encode_envelope
        monkeypatch.setattr(streamnet, "encode_envelope", counting)
        endpoints = build_mesh([1, 2, 3, 4])
        try:
            endpoints[1].send(Envelope(1, 2, Phase.TRIAL_DIV, 0, b"one"))
            assert len(seen) == 1
            endpoints[1].broadcast(Envelope(1, BROADCAST, Phase.TRIAL_DIV, 1, b"all"))
            assert len(seen) == 2
            assert endpoints[2].receive(Phase.TRIAL_DIV, from_=1, round_=0).payload == b"one"
            for pid in (2, 3, 4):
                env = endpoints[pid].receive(Phase.TRIAL_DIV, from_=1, round_=1)
                assert env.payload == b"all"
        finally:
            close_all(endpoints)


# raw bytes one party writes on its link to party 1, each of which must
# take that link (and no other) down
GARBAGE = {
    "oversized": struct.pack(">I", MAX_BODY + 1),
    "undecodable": struct.pack(">I", 13) + bytes([99]) + bytes(12),
    "half_then_close": encode_envelope(Envelope(2, 1, Phase.TRIAL_DIV, 0, b"cut"))[:9],
}


class TestLiveLinks:
    @pytest.mark.parametrize("kind", sorted(GARBAGE))
    def test_garbage_takes_down_only_its_link(self, kind):
        endpoints = build_mesh([1, 2, 3])
        try:
            endpoints[2]._write(1, GARBAGE[kind])
            if kind == "half_then_close":
                endpoints[2].close()
            with pytest.raises(ChannelClosed, match="no open link to 2"):
                endpoints[1].receive(Phase.TRIAL_DIV, from_=2)
            for round_ in range(3):
                endpoints[3].send(Envelope(3, 1, Phase.TRIAL_DIV, round_, b"still up"))
                env = endpoints[1].receive(Phase.TRIAL_DIV, from_=3, round_=round_)
                assert env.payload == b"still up"
        finally:
            close_all(endpoints)

    def test_frames_before_a_bad_frame_are_delivered(self):
        # one write carries a valid frame and then a 3-byte body: the valid
        # frame is queued before the link goes down
        endpoints = build_mesh([1, 2])
        try:
            good = encode_envelope(Envelope(2, 1, Phase.TRIAL_DIV, 0, b"before"))
            endpoints[2]._write(1, good + struct.pack(">I", 3) + b"abc")
            env = endpoints[1].receive(Phase.TRIAL_DIV, from_=2, round_=0)
            assert env.payload == b"before"
            with pytest.raises(ChannelClosed, match="no open link to 2"):
                endpoints[1].receive(Phase.TRIAL_DIV, from_=2)
        finally:
            close_all(endpoints)

    def test_crossed_large_writes_do_not_deadlock(self):
        # each side writes far more than a socket buffer holds before it
        # reads anything; a write must keep reading to let the other finish
        endpoints = build_mesh([1, 2])
        frames = 8
        received = {1: [], 2: []}

        def exchange(pid, peer):
            for round_ in range(frames):
                payload = bytes([round_]) * MAX_PAYLOAD
                endpoints[pid].send(Envelope(pid, peer, Phase.DIST_MUL, round_, payload))
            for round_ in range(frames):
                env = endpoints[pid].receive(Phase.DIST_MUL, from_=peer, round_=round_)
                received[pid].append(env.payload == bytes([round_]) * MAX_PAYLOAD)

        threads = [
            threading.Thread(target=exchange, args=(pid, 3 - pid), daemon=True)
            for pid in (1, 2)
        ]
        deadline = time.monotonic() + 30
        for t in threads:
            t.start()
        for t in threads:
            t.join(max(deadline - time.monotonic(), 0))
        # close() waits for a thread stuck in a write, so leave them open then
        assert not any(t.is_alive() for t in threads)
        close_all(endpoints)
        assert received == {1: [True] * frames, 2: [True] * frames}

    def test_close_from_another_thread_releases_everything(self):
        # shaped like the benchmark: the mediator serves on its own thread
        # and the main thread closes every endpoint once the parties are done
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        threads_before, fds_before = threading.active_count(), open_fds()
        endpoints = build_mesh([1, 2, MEDIATOR])
        # streamnet starts no thread: the one new thread is the watchdog
        assert threading.active_count() == threads_before + 1
        endpoints[1].send(Envelope(1, 2, Phase.TRIAL_DIV, 0, b"never read"))
        mediator = threading.Thread(target=run_mediator, args=(endpoints[MEDIATOR],))
        mediator.start()
        close_all(endpoints)
        mediator.join(2)
        assert not mediator.is_alive()
        assert threading.active_count() == threads_before
        assert open_fds() == fds_before


class TestFailedWrites:
    """A write to a peer whose link has ended raises ChannelClosed instead
    of waiting for buffer space that will never come."""

    @staticmethod
    def write_until_refused(endpoint, peer):
        """Send full frames to `peer`, far more than the socket buffers
        hold, on a side thread; return what the writes raised."""
        raised, payload = [], bytes(MAX_PAYLOAD)

        def writer():
            try:
                for round_ in range(64):
                    endpoint.send(Envelope(endpoint.party_id, peer, Phase.DIST_MUL, round_, payload))
            except ChannelClosed as exc:
                raised.append(str(exc))

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        thread.join(10)
        assert not thread.is_alive(), "the write hung"
        return raised

    def test_write_to_a_closed_peer(self):
        endpoints = build_mesh([1, 2])
        try:
            endpoints[2].close()
            [error] = self.write_until_refused(endpoints[1], 2)
            assert error.startswith("connection to 2 failed")
        finally:
            close_all(endpoints)

    def test_failed_write_leaves_the_other_links_up(self):
        # party 3's frame is delivered before party 2 goes away; party 1's
        # failed write to 2 must not cost it that frame or its link to 3
        endpoints = build_mesh([1, 2, 3])
        try:
            endpoints[3].send(Envelope(3, 1, Phase.TRIAL_DIV, 0, b"from 3"))
            endpoints[2].close()
            [error] = self.write_until_refused(endpoints[1], 2)
            assert error.startswith("connection to 2 failed")
            env = endpoints[1].receive(Phase.TRIAL_DIV, from_=3, round_=0)
            assert env.payload == b"from 3"
            endpoints[1].send(Envelope(1, 3, Phase.TRIAL_DIV, 1, b"to 3"))
            env = endpoints[3].receive(Phase.TRIAL_DIV, from_=1, round_=1)
            assert env.payload == b"to 3"
        finally:
            close_all(endpoints)

    @pytest.mark.parametrize("seen_before_the_write", [True, False])
    def test_write_on_a_link_that_went_down(self, seen_before_the_write):
        # party 2 stays open but never reads, and its garbage takes the
        # link down: before the write, or while the write waits for room
        endpoints = build_mesh([1, 2])
        try:
            endpoints[2]._write(1, GARBAGE["undecodable"])
            if seen_before_the_write:
                with pytest.raises(ChannelClosed, match="no open link to 2"):
                    endpoints[1].receive(Phase.TRIAL_DIV, from_=2)
            assert self.write_until_refused(endpoints[1], 2) == ["party 1: link to 2 is down"]
        finally:
            close_all(endpoints)

    def test_close_wakes_a_write_waiting_for_room(self):
        # party 2 never reads, so party 1's writes fill the socket buffers
        # and the writer waits for room until the main thread closes it;
        # the send that was waiting must not complete after the close
        endpoints = build_mesh([1, 2])
        sent, raised, payload = [], [], bytes(MAX_PAYLOAD)

        def writer():
            try:
                for round_ in range(1024):
                    endpoints[1].send(Envelope(1, 2, Phase.DIST_MUL, round_, payload))
                    sent.append(round_)
            except ChannelClosed as exc:
                raised.append(str(exc))

        thread = threading.Thread(target=writer, daemon=True)
        try:
            thread.start()
            time.sleep(0.3)
            assert thread.is_alive(), "the writes never waited for room"
            sent_before_close = len(sent)
            endpoints[1].close()
            thread.join(2)
            assert not thread.is_alive(), "close did not wake the write"
            assert raised == ["endpoint closed"]
            assert len(sent) == sent_before_close
        finally:
            close_all(endpoints)


class TestBackendEquivalence:
    def run_over_sockets(self, cfg):
        ids = list(range(1, cfg.parties + 1)) + [MEDIATOR]
        endpoints = build_mesh(ids)
        outcomes = {}
        errors = []

        def runner(pid):
            try:
                if pid == MEDIATOR:
                    run_mediator(endpoints[pid])
                else:
                    outcomes[pid] = run_party(
                        cfg, pid, endpoints[pid], party_rng(cfg.seed, pid)
                    )
            except ChannelClosed:
                pass
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
                close_all(endpoints)

        threads = [
            threading.Thread(target=runner, args=(pid,), daemon=True) for pid in ids
        ]
        for t in threads:
            t.start()
        for t, pid in zip(threads, ids):
            if pid != MEDIATOR:
                t.join(120)
        close_all(endpoints)
        threads[-1].join(10)
        assert not errors, errors
        return outcomes

    def test_same_run_on_both_backends(self):
        cfg = ProtocolConfig(
            parties=2, bits=16, trial_bound=50, filter_rounds=5, seed=b"\x01"
        )
        memory = run_in_memory(cfg)
        socket_outcomes = self.run_over_sockets(cfg)
        assert {o.modulus for o in socket_outcomes.values()} == {memory.modulus}
        assert {o.attempts for o in socket_outcomes.values()} == {memory.attempts}
        socket_records = [
            record
            for pid in sorted(socket_outcomes)
            for record in socket_outcomes[pid].per_phase_metrics
        ]
        assert records_to_jsonl(socket_records) == records_to_jsonl(memory.records)

    def assert_backends_agree(self, parties):
        cfg = ProtocolConfig(
            parties=parties, bits=16, trial_bound=30, filter_rounds=3, seed=b"\x09"
        )
        memory = run_in_memory(cfg)
        socket_outcomes = self.run_over_sockets(cfg)
        assert {o.modulus for o in socket_outcomes.values()} == {memory.modulus}
        socket_records = [
            record
            for pid in sorted(socket_outcomes)
            for record in socket_outcomes[pid].per_phase_metrics
        ]
        assert records_to_jsonl(socket_records) == records_to_jsonl(memory.records)

    def test_four_party_equivalence(self):
        self.assert_backends_agree(4)

    def test_eight_party_equivalence(self):
        self.assert_backends_agree(8)

    def test_sixteen_party_equivalence(self):
        self.assert_backends_agree(16)


class TestCrashedParty:
    def test_a_crashed_party_ends_every_participant(self, monkeypatch):
        # party 4 closes its endpoint and raises before its first LOAD;
        # the mediator's CHOOSEs that wait on party 4 can never be
        # answered, so its any-sender receive must fail once party 4's
        # link is down, and then the parties' reads of their RESULTs fail
        compute_modulus = protocol.compute_modulus

        def crashing(config, shares, ot, endpoint, *, rng):
            if endpoint.party_id == 4:
                endpoint.close()
                raise RuntimeError("party 4 crashed")
            return compute_modulus(config, shares, ot, endpoint, rng=rng)

        monkeypatch.setattr(protocol, "compute_modulus", crashing)
        cfg = ProtocolConfig(parties=4, bits=16, trial_bound=3, filter_rounds=3, seed=b"\x09")
        ids = [1, 2, 3, 4, MEDIATOR]
        endpoints = build_mesh(ids)
        raised = {}

        def runner(pid):
            try:
                if pid == MEDIATOR:
                    run_mediator(endpoints[pid])
                else:
                    run_party(cfg, pid, endpoints[pid], party_rng(cfg.seed, pid))
            except Exception as exc:  # noqa: BLE001
                raised[pid] = exc
            finally:
                if pid == MEDIATOR:
                    endpoints[pid].close()

        threads = [threading.Thread(target=runner, args=(pid,), daemon=True) for pid in ids]
        deadline = time.monotonic() + 10
        for t in threads:
            t.start()
        for t in threads:
            t.join(max(deadline - time.monotonic(), 0))
        alive = [pid for t, pid in zip(threads, ids) if t.is_alive()]
        close_all(endpoints)
        for t in threads:
            t.join(10)
        assert not alive, f"still waiting after 10 s: {alive}"
        assert isinstance(raised.pop(4), RuntimeError)
        assert set(raised) == {1, 2, 3}, raised
        assert all(isinstance(exc, ChannelClosed) for exc in raised.values()), raised
