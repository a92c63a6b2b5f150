"""TCP byte-stream transport speaking the shared wire format.

Each participant (the n parties and the OT mediator) listens on its own
address and keeps one connection per peer: a participant dials every
peer with a smaller id and accepts from every larger one, announcing its
id in a 2-byte hello.  Each link is bound to its hello id: a frame on it
must come from that peer and be addressed to this endpoint or broadcast,
or it is malformed.  Sends and receives go through the same
outgoing-envelope checks and selective-receive function as the in-memory
backend, so the two backends are drop-in replacements for each other.
Unlike the in-memory scheduler, participants here run truly concurrently.

The module starts no thread.  One thread owns an endpoint and reads its
links itself, and every wait is the same one: a poll of one
`select.poll` object over every link (POSIX only), then a read of each
readable link into its byte buffer, decoding each complete frame into
the inbox.  A receive waits until a matching frame is in.  A write is
one `send` of the whole frame when the socket takes it; otherwise it
waits with that socket also polled for room, then sends the rest.  So
writes never block on a full socket buffer without reading, and two
endpoints that write large frames to each other cannot deadlock.  Only
`close()` may be called from another thread; it wakes a blocked receive
or write, which then raises ChannelClosed.  The mesh is fixed once set
up, so the ascending peer list is built as each link attaches.

A link that ends, or that carries a bad frame, goes down alone, and a
write that fails raises ChannelClosed for that peer only.  Frames a peer
delivered before it closed its end stay receivable, because parties
finish at different times; frames buffered with a bad one are dropped
with its link.
"""

import select
import socket
import struct
import threading
import time
from collections import deque
from collections.abc import Generator

from .errors import (
    AddressError,
    ChannelClosed,
    MalformedMessage,
    ParameterError,
    PayloadTooLarge,
    ReceiveTimeout,
    TransportError,
)
from .metrics import PhaseMetrics
from .transport import check_outgoing, take_match
from .wire import (
    BROADCAST,
    MAX_BODY,
    MEDIATOR,
    Envelope,
    Phase,
    decode_envelope_body,
    encode_envelope,
)

_LENGTH = struct.Struct(">I")
_POLLIN, _POLLOUT = select.POLLIN, select.POLLOUT
# below glibc's mmap threshold, so each read's buffer comes from the heap
_READ_SIZE = 1 << 16


def _read_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def take_frames(buf: bytearray) -> list[Envelope]:
    """Remove every complete frame from the front of a link buffer and
    return its envelopes in order; a partial frame stays in `buf`.

    Decoding stops at the first frame that fails: the frames before it
    are returned and it stays at the front of `buf`, so that the next
    call raises for it.  That is PayloadTooLarge on a length prefix above
    MAX_BODY, as soon as the prefix is in, and MalformedMessage on a body
    that does not decode.
    """
    envelopes = []
    offset = 0
    try:
        while len(buf) - offset >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(buf, offset)
            if length > MAX_BODY:
                raise PayloadTooLarge(f"incoming frame of {length} bytes")
            end = offset + _LENGTH.size + length
            if end > len(buf):
                break
            envelopes.append(decode_envelope_body(bytes(buf[offset + _LENGTH.size : end])))
            offset = end
    except TransportError:
        if not envelopes:
            raise
    finally:
        del buf[:offset]
    return envelopes


class StreamEndpoint:
    """One participant's socket-mesh handle; same surface as the
    in-memory endpoint."""

    def __init__(self, party_id: int, metrics: PhaseMetrics | None = None):
        self.party_id = party_id
        self.metrics = metrics if metrics is not None else PhaseMetrics()
        self._conns: dict[int, socket.socket] = {}
        self._buffers: dict[int, bytearray] = {}
        self._inbox: deque[Envelope] = deque()
        self._closed = False
        self._down: set[int] = set()
        # held by the owning thread while it touches the links, so that a
        # close() from another thread releases them only once it let go
        self._io = threading.Lock()
        self._peers: tuple[int, ...] = ()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)
        self._poll = select.poll()
        self._poll.register(self._wake_r, _POLLIN)
        # the peer each polled fd belongs to; None for the wake pair
        self._fd_peer: dict[int, int | None] = {self._wake_r.fileno(): None}

    @property
    def peers(self) -> list[int]:
        """The other parties' ids in ascending order, without the mediator."""
        return list(self._peers)

    def _attach(self, peer: int, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        self._conns[peer] = sock
        self._buffers[peer] = bytearray()
        self._poll.register(sock, _POLLIN)
        self._fd_peer[sock.fileno()] = peer
        self._peers = tuple(sorted(pid for pid in self._conns if pid != MEDIATOR))

    def _drop(self, peer: int) -> None:
        """Stop reading a link that ended or broke; its socket stays
        open until close()."""
        self._down.add(peer)
        self._poll.unregister(self._conns[peer])
        self._buffers[peer].clear()

    def _read(self, peer: int) -> None:
        try:
            chunk = self._conns[peer].recv(_READ_SIZE)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""  # a reset ends the link like an orderly close
        if not chunk:
            self._drop(peer)
            return
        buf = self._buffers[peer]
        buf += chunk
        try:
            envelopes = take_frames(buf)
            while envelopes:
                for env in envelopes:
                    if env.sender != peer or env.to not in (self.party_id, BROADCAST):
                        raise MalformedMessage(f"frame {env.sender}->{env.to} on link {peer}")
                    self._inbox.append(env)
                # a bad frame that stopped the call is still in buf, and
                # the next call raises for it
                envelopes = buf and take_frames(buf)
        except TransportError:
            self._drop(peer)

    def _pump(self, timeout: float | None) -> None:
        """Wait up to `timeout` for any polled event, then read every
        readable link; an error or hang-up reads as readable, so the read
        meets it.  A socket that only became writable is not read."""
        # poll takes milliseconds and rounds a fraction of one up
        for fd, events in self._poll.poll(None if timeout is None else timeout * 1e3):
            peer = self._fd_peer[fd]
            # None is the wake pair: the caller sees self._closed
            if peer is not None and events & ~_POLLOUT:
                self._read(peer)

    def _write(self, peer: int, frame: bytes) -> None:
        with self._io:
            if self._closed:
                raise ChannelClosed("endpoint closed")
            if peer not in self._conns:
                raise AddressError(f"unknown destination: {peer}")
            sock = self._conns[peer]
            try:
                while True:
                    try:
                        sent = sock.send(frame)
                    except BlockingIOError:
                        self._wait_writable(peer, sock)
                        continue
                    if sent == len(frame):
                        return
                    frame = memoryview(frame)[sent:]
            except OSError as exc:
                raise ChannelClosed(f"connection to {peer} failed: {exc}") from exc

    def _wait_writable(self, peer: int, sock: socket.socket) -> None:
        """Make one wait in `_pump` with `peer`'s socket also polled for
        room, reading every link, so a peer that is itself blocked writing
        to us can finish; `_write` then retries its send.  Raises
        ChannelClosed instead once the endpoint is closed or the link to
        `peer` is down, before the wait or during it."""
        if peer not in self._down:
            self._poll.modify(sock, _POLLIN | _POLLOUT)
            self._pump(None)
        if self._closed:
            raise ChannelClosed("endpoint closed")
        if peer in self._down:
            raise ChannelClosed(f"party {self.party_id}: link to {peer} is down")
        self._poll.modify(sock, _POLLIN)

    def send(self, env: Envelope) -> None:
        check_outgoing(self.party_id, env, broadcast=False)
        self._write(env.to, encode_envelope(env))
        self.metrics.tick_message(self.party_id, env.phase)

    def broadcast(self, env: Envelope) -> None:
        check_outgoing(self.party_id, env, broadcast=True)
        frame = encode_envelope(env)
        for peer in self._peers:
            self._write(peer, frame)
        self.metrics.tick_broadcast(self.party_id, env.phase)

    def receive(
        self,
        phase: Phase,
        from_: int | None = None,
        round_: int | None = None,
        timeout: float | None = None,
    ) -> Envelope:
        """Block until an envelope of `phase` (optionally from `from_`)
        is available; other messages stay queued.

        Raises AddressError at once for a `from_` with no link.  Raises
        ChannelClosed once this endpoint is closed, or once nothing
        matching is queued and the awaited sender's link is down (every
        link, when any sender will do).  Raises ReceiveTimeout once
        `timeout` has passed and a last read of the links, without
        waiting, brought nothing matching.
        """
        if from_ is not None and from_ not in self._conns:
            raise AddressError(f"unknown sender: {from_}")
        deadline = None if timeout is None else time.monotonic() + timeout
        remaining = None
        expired = False
        with self._io:
            while True:
                if self._closed:
                    raise ChannelClosed("endpoint closed")
                env = take_match(
                    self._inbox, self.metrics, self.party_id, phase, from_, round_
                )
                if env is not None:
                    return env
                if from_ in self._down or (
                    from_ is None and self._down.issuperset(self._conns)
                ):
                    raise ChannelClosed(
                        f"party {self.party_id}: no open link to "
                        f"{'any peer' if from_ is None else from_}"
                    )
                if expired:
                    raise ReceiveTimeout(
                        f"party {self.party_id} timed out waiting for {phase.name}"
                    )
                if deadline is not None:
                    # past the deadline, read what the links hold once more
                    remaining = max(0.0, deadline - time.monotonic())
                    expired = remaining == 0.0
                self._pump(remaining)

    def run(self, steps: Generator):
        """Run steps to their end with a blocking receive for each
        (phase, from_, round_) they yield; returns their value."""
        try:
            request = next(steps)
            while True:
                request = steps.send(self.receive(*request))
        except StopIteration as stop:
            return stop.value

    def close(self) -> None:
        """Close every link.  Safe from any thread: a receive or write
        blocked in the owning thread wakes and raises ChannelClosed, and
        the sockets are released once it has let go of them."""
        if not self._closed:
            self._closed = True
            try:
                self._wake_w.send(b"\0")
            except OSError:
                pass  # a byte is already waiting, or close() already ran
        with self._io:
            if self._wake_w.fileno() < 0:
                return
            self._wake_r.close()
            self._wake_w.close()
            for sock in self._conns.values():
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                sock.close()


def open_mesh(
    party_id: int,
    addresses: dict[int, tuple[str, int]],
    *,
    metrics: PhaseMetrics | None = None,
    listener: socket.socket | None = None,
    connect_timeout: float = 30.0,
) -> StreamEndpoint:
    """Join the full mesh as `party_id`; blocks until every link is up.

    `addresses` maps participant id (parties plus MEDIATOR) to
    (host, port).  A pre-bound `listener` may be passed when the caller
    picked an ephemeral port; it is consumed (closed once setup ends).
    Dials retry, and accepted links must say hello, within
    `connect_timeout`, so participants may start in any order.
    """
    if party_id not in addresses:
        raise ParameterError(f"party {party_id} missing from the address map")
    endpoint = StreamEndpoint(party_id, metrics)
    lower = [pid for pid in addresses if pid < party_id]
    higher = [pid for pid in addresses if pid > party_id]

    own_listener = listener
    if own_listener is None and higher:
        family = socket.AF_INET6 if ":" in addresses[party_id][0] else socket.AF_INET
        own_listener = socket.create_server(
            addresses[party_id], family=family, backlog=len(addresses)
        )
    try:
        deadline = time.monotonic() + connect_timeout
        for peer in sorted(lower):
            while True:
                try:
                    sock = socket.create_connection(addresses[peer], timeout=5.0)
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise ChannelClosed(
                            f"could not reach {peer} at {addresses[peer]}"
                        ) from None
                    time.sleep(0.05)
            sock.sendall(struct.pack(">H", party_id))
            endpoint._attach(peer, sock)
        for _ in higher:
            own_listener.settimeout(max(deadline - time.monotonic(), 0.1))
            sock, _ = own_listener.accept()
            sock.settimeout(max(deadline - time.monotonic(), 0.1))
            try:
                (peer,) = struct.unpack(">H", _read_exact(sock, 2))
            except OSError:
                sock.close()
                raise ChannelClosed("a dialer sent no hello before the deadline") from None
            if peer not in higher or peer in endpoint._conns:
                sock.close()
                raise AddressError(f"unexpected hello from participant {peer}")
            endpoint._attach(peer, sock)
    except Exception:
        endpoint.close()
        if own_listener is not None:
            own_listener.close()
        raise
    if own_listener is not None:
        own_listener.close()
    return endpoint
