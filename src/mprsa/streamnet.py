"""TCP byte-stream transport speaking the shared wire format.

Each participant (the n parties and the OT mediator) listens on its own
address and keeps one connection per peer: a participant dials every
peer with a smaller id and accepts from every larger one, announcing its
id in a 2-byte hello.  Reader threads decode frames into one inbox per
endpoint.  Each link is bound to its hello id: a frame on it must come
from that peer and be addressed to this endpoint or broadcast, or it is
malformed.  Sends and receives go through the same outgoing-envelope
checks and selective-receive function as the in-memory backend, so the
two backends are drop-in replacements for each other.  Unlike the
in-memory scheduler, participants here run truly concurrently.

A peer that closes its end takes down only its own link: frames it
delivered before leaving stay receivable, because parties finish at
different times.
"""

import socket
import struct
import threading
import time
from collections import deque

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


def _read_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


class StreamEndpoint:
    """One participant's socket-mesh handle; same surface as the
    in-memory endpoint."""

    def __init__(self, party_id: int, metrics: PhaseMetrics | None = None):
        self.party_id = party_id
        self.metrics = metrics if metrics is not None else PhaseMetrics()
        self._conns: dict[int, socket.socket] = {}
        self._send_locks: dict[int, threading.Lock] = {}
        self._inbox: deque[Envelope] = deque()
        self._cv = threading.Condition()
        self._closed = False
        self._down: set[int] = set()
        self._readers: list[threading.Thread] = []

    @property
    def peers(self) -> list[int]:
        return sorted(pid for pid in self._conns if pid != MEDIATOR)

    def _attach(self, peer: int, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._conns[peer] = sock
        self._send_locks[peer] = threading.Lock()

    def _start_readers(self) -> None:
        for peer, sock in self._conns.items():
            thread = threading.Thread(
                target=self._read_loop,
                args=(peer, sock),
                name=f"reader-{self.party_id}-{peer}",
                daemon=True,
            )
            thread.start()
            self._readers.append(thread)

    def _read_loop(self, peer: int, sock: socket.socket) -> None:
        try:
            while True:
                (length,) = struct.unpack(">I", _read_exact(sock, 4))
                if length > MAX_BODY:
                    raise PayloadTooLarge(f"incoming frame of {length} bytes")
                env = decode_envelope_body(_read_exact(sock, length))
                if env.sender != peer or env.to not in (self.party_id, BROADCAST):
                    raise MalformedMessage(f"frame {env.sender}->{env.to} on link {peer}")
                with self._cv:
                    self._inbox.append(env)
                    self._cv.notify_all()
        except (OSError, TransportError):
            with self._cv:
                self._down.add(peer)
                self._cv.notify_all()

    def _write(self, peer: int, frame: bytes) -> None:
        if peer not in self._conns:
            raise AddressError(f"unknown destination: {peer}")
        try:
            with self._send_locks[peer]:
                self._conns[peer].sendall(frame)
        except OSError as exc:
            self.close()
            raise ChannelClosed(f"connection to {peer} failed: {exc}") from exc

    def send(self, env: Envelope) -> None:
        check_outgoing(self.party_id, env, broadcast=False)
        if self._closed:
            raise ChannelClosed("endpoint closed")
        self._write(env.to, encode_envelope(env))
        self.metrics.tick_message(self.party_id, env.phase)

    def broadcast(self, env: Envelope) -> None:
        check_outgoing(self.party_id, env, broadcast=True)
        if self._closed:
            raise ChannelClosed("endpoint closed")
        frame = encode_envelope(env)
        for peer in self.peers:
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

        Raises ChannelClosed once this endpoint is closed, or once nothing
        matching is queued and the awaited sender's link is down (every
        link, when any sender will do).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
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
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ReceiveTimeout(
                            f"party {self.party_id} timed out waiting for {phase.name}"
                        )
                    self._cv.wait(remaining)
                else:
                    self._cv.wait()

    def close(self) -> None:
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()
        for sock in self._conns.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


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
    Dials retry until `connect_timeout` so participants may start in any
    order.
    """
    if party_id not in addresses:
        raise ParameterError(f"party {party_id} missing from the address map")
    endpoint = StreamEndpoint(party_id, metrics)
    lower = [pid for pid in addresses if pid < party_id]
    higher = [pid for pid in addresses if pid > party_id]

    own_listener = listener
    if own_listener is None and higher:
        own_listener = socket.create_server(
            addresses[party_id], backlog=len(addresses)
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
            (peer,) = struct.unpack(">H", _read_exact(sock, 2))
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
    endpoint._start_readers()
    return endpoint
