"""Outside-in layer trace: wraps the public function at each layer
boundary by patching module and class attributes, for the traced run only.

Each span records its name, start and end (perf_counter), parent, thread
and party, plus thread_time at entry and exit.  Spans are kept in memory,
one column buffer per thread so no lock is taken on the hot path, and are
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover; children always run on the parent's
thread, nested inside it.
"""

import functools
import gzip
import statistics
import threading
import time
from array import array
from contextlib import contextmanager

from mprsa import biprime, distmul, ot, protocol, shares, streamnet, trialdiv
from mprsa.metrics import PhaseMetrics
from mprsa.streamnet import StreamEndpoint
from mprsa.transport import InMemoryEndpoint
from mprsa.wire import MEDIATOR


def _payload_bytes(args):
    return len(args[1].payload)


def _bit_width(args):
    return args[3]


def _frame_bytes(args):
    return len(args[0]) + 4  # body plus the length prefix


# (owner, attribute, span name, size of the work handed to the call)
PATCH_POINTS = (
    (protocol, "run_party", "protocol.run_party", None),
    (protocol, "run_mediator", "ot.run_mediator", None),
    (ot, "run_mediator", "ot.run_mediator", None),
    (protocol, "generate_shares", "shares.generate_shares", None),
    (protocol, "tree_divisibility_test", "trialdiv.tree_divisibility_test", None),
    (trialdiv, "reduction_schedule", "trialdiv.reduction_schedule", None),
    (trialdiv, "hash_to_range", "hashing.hash_to_range", None),
    (biprime, "hash_to_range", "hashing.hash_to_range", None),
    (shares, "hash_to_range", "hashing.hash_to_range", None),
    (distmul, "distr_product", "distmul.distr_product", _bit_width),
    (biprime, "distr_product", "distmul.distr_product", _bit_width),
    (distmul, "ot_init", "ot.ot_init", None),
    (distmul, "ot_send", "ot.ot_send", None),
    (distmul, "ot_choose", "ot.ot_choose", None),
    (biprime, "filter_round", "biprime.filter_round", None),
    (biprime, "filter_contribution", "biprime.filter_contribution", None),
    (protocol, "gcd_test", "biprime.gcd_test", None),
    (InMemoryEndpoint, "send", "transport.send", _payload_bytes),
    (InMemoryEndpoint, "broadcast", "transport.send", _payload_bytes),
    (InMemoryEndpoint, "receive", "transport.receive", None),
    (StreamEndpoint, "send", "streamnet.send", _payload_bytes),
    (StreamEndpoint, "broadcast", "streamnet.send", _payload_bytes),
    (StreamEndpoint, "receive", "streamnet.receive", None),
    (streamnet, "encode_envelope", "wire.encode_envelope", None),
    (streamnet, "decode_envelope_body", "wire.decode_envelope_body", _frame_bytes),
    (PhaseMetrics, "tick_message", "metrics.tick", None),
    (PhaseMetrics, "tick_broadcast", "metrics.tick", None),
    (PhaseMetrics, "tick_ot_init", "metrics.tick", None),
)


_NO_SPANS = dict(count=0, total_s=0.0, self_s=0.0, cpu_s=0.0, size=0)


class _ThreadSpans:
    """Column buffers for the spans of one thread."""

    def __init__(self, thread_name: str):
        self.thread = thread_name
        self.stack: list[int] = []
        self.name = array("H")
        self.parent = array("l")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self.cpu_start = array("d")
        self.cpu_end = array("d")


def party_of(thread_name: str) -> str:
    """Party a thread works for: party-3 and reader-3-1 belong to party 3."""
    head, _, rest = thread_name.partition("-")
    if head == "ot" or rest.split("-")[0] == str(MEDIATOR):
        return "mediator"
    if head in ("party", "reader"):
        return rest.split("-")[0]
    return "harness"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._threads: list[_ThreadSpans] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans(threading.current_thread().name)
            with self._lock:
                self._threads.append(spans)
        return spans

    def wrap(self, name: str, fn, size=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        spans_of = self._spans
        perf, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = spans_of()
            row = len(s.name)
            s.name.append(name_id)
            s.parent.append(s.stack[-1] if s.stack else -1)
            s.size.append(size(args) if size else 0)
            s.end.append(0.0)
            s.cpu_end.append(0.0)
            s.cpu_start.append(cpu())
            s.start.append(perf())
            s.stack.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                s.end[row] = perf()
                s.cpu_end[row] = cpu()
                s.stack.pop()

        return traced

    @contextmanager
    def patched(self):
        """Install a span wrapper at every patch point; restore on exit."""
        saved = []
        try:
            for owner, attr, name, size in PATCH_POINTS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, size))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _self_times(self, s: _ThreadSpans) -> list[float]:
        own = [e - b for b, e in zip(s.start, s.end)]
        for row, parent in enumerate(s.parent):
            if parent >= 0:
                own[parent] -= s.end[row] - s.start[row]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self seconds, thread CPU
        seconds and the summed work size."""
        out = {name: dict(_NO_SPANS) for name in self.names}
        for s in self._threads:
            for row, self_s in enumerate(self._self_times(s)):
                agg = out[self.names[s.name[row]]]
                agg["count"] += 1
                agg["total_s"] += s.end[row] - s.start[row]
                agg["self_s"] += self_s
                agg["cpu_s"] += s.cpu_end[row] - s.cpu_start[row]
                agg["size"] += s.size[row]
        return out

    def write(self, path) -> int:
        """Write every span as one CSV row (gzip); returns the span count."""
        rows = 0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("id,parent,name,thread,party,start,end,self,"
                     "cpu_start,cpu_end,size\n")
            for s in self._threads:
                party = party_of(s.thread)
                base = rows
                for row, self_s in enumerate(self._self_times(s)):
                    parent = s.parent[row]
                    fh.write(
                        f"{base + row},{base + parent if parent >= 0 else -1},"
                        f"{self.names[s.name[row]]},{s.thread},{party},"
                        f"{s.start[row]:.7f},{s.end[row]:.7f},{self_s:.7f},"
                        f"{s.cpu_start[row]:.7f},{s.cpu_end[row]:.7f},{s.size[row]}\n"
                    )
                rows += len(s.name)
        return rows


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(summary, keygens, wall_untraced: float, wall_traced: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) of one traced pass.

    Counts are summed over every participant.  CPU shares divide thread
    CPU by keygen wall time, which the process pinned to one CPU bounds;
    wall shares divide a layer's span time by the time parties spent in
    run_party.
    """

    def get(name):
        return summary.get(name, _NO_SPANS)

    def mean(name, scale):
        agg = get(name)
        return _share(agg["total_s"], agg["count"]) * scale

    party_wall = get("protocol.run_party")["total_s"]
    records = [r for k in keygens for r in k.records if r.party == 1]
    attempts = len(records)
    multiplied = sum(r.context.ran_multiplication for r in records)
    gcd_run = sum(r.context.ran_gcd for r in records)
    succeeded = sum(r.context.success for r in records)
    test, product = get("trialdiv.tree_divisibility_test"), get("distmul.distr_product")
    mediator = get("ot.run_mediator")
    transport_rx, stream_rx = get("transport.receive"), get("streamnet.receive")
    ticks = get("metrics.tick")
    mesh_open = [k.mesh_open_s for k in keygens if k.mesh_open_s]
    return {
        "protocol.attempts": (attempts, "count"),
        "protocol.trialdiv_pass_share": (_share(multiplied, attempts), "share"),
        "protocol.filter_pass_share": (_share(gcd_run, multiplied), "share"),
        "protocol.gcd_pass_share": (_share(succeeded, gcd_run), "share"),
        "trialdiv.tests": (test["count"], "count"),
        "trialdiv.test_us": (mean("trialdiv.tree_divisibility_test", 1e6), "us"),
        "trialdiv.schedule_us": (mean("trialdiv.reduction_schedule", 1e6), "us"),
        "trialdiv.self_s": (test["self_s"], "s"),
        "trialdiv.wall_share": (_share(test["total_s"], party_wall), "share"),
        "hashing.calls": (get("hashing.hash_to_range")["count"], "count"),
        "hashing.us": (mean("hashing.hash_to_range", 1e6), "us"),
        "distmul.products": (product["count"], "count"),
        "distmul.product_ms": (mean("distmul.distr_product", 1e3), "ms"),
        "distmul.bit_us": (_share(product["total_s"], product["size"]) * 1e6, "us"),
        "distmul.wall_share": (_share(product["total_s"], party_wall), "share"),
        "ot.sessions": (get("ot.ot_send")["count"], "count"),
        "ot.send_us": (mean("ot.ot_send", 1e6), "us"),
        "ot.choose_us": (mean("ot.ot_choose", 1e6), "us"),
        "ot.mediator_cpu_s": (mediator["cpu_s"], "s"),
        "ot.mediator_wait_share": (
            1.0 - _share(mediator["cpu_s"], mediator["total_s"]), "share"),
        "biprime.filter_rounds": (get("biprime.filter_round")["count"], "count"),
        "biprime.filter_round_us": (mean("biprime.filter_round", 1e6), "us"),
        "biprime.contribution_us": (mean("biprime.filter_contribution", 1e6), "us"),
        "biprime.gcd_tests": (get("biprime.gcd_test")["count"], "count"),
        "biprime.gcd_test_ms": (mean("biprime.gcd_test", 1e3), "ms"),
        "shares.generate_us": (mean("shares.generate_shares", 1e6), "us"),
        "transport.sends": (get("transport.send")["count"], "count"),
        "transport.receives": (transport_rx["count"], "count"),
        "transport.payload_bytes": (get("transport.send")["size"], "bytes"),
        "transport.send_us": (mean("transport.send", 1e6), "us"),
        "transport.receive_cpu_us": (
            _share(transport_rx["cpu_s"], transport_rx["count"]) * 1e6, "us"),
        "transport.receive_cpu_share": (
            _share(transport_rx["cpu_s"], wall_traced), "share"),
        "streamnet.mesh_open_ms": (
            statistics.median(mesh_open) * 1e3 if mesh_open else 0.0, "ms"),
        "streamnet.sends": (get("streamnet.send")["count"], "count"),
        "streamnet.frame_bytes": (get("wire.decode_envelope_body")["size"], "bytes"),
        "streamnet.send_us": (mean("streamnet.send", 1e6), "us"),
        "streamnet.receive_cpu_us": (
            _share(stream_rx["cpu_s"], stream_rx["count"]) * 1e6, "us"),
        "streamnet.receive_cpu_share": (_share(stream_rx["cpu_s"], wall_traced), "share"),
        "wire.encodes": (get("wire.encode_envelope")["count"], "count"),
        "wire.encode_us": (mean("wire.encode_envelope", 1e6), "us"),
        "wire.decodes": (get("wire.decode_envelope_body")["count"], "count"),
        "wire.decode_us": (mean("wire.decode_envelope_body", 1e6), "us"),
        "metrics.ticks": (ticks["count"], "count"),
        "metrics.tick_us": (mean("metrics.tick", 1e6), "us"),
        "metrics.cpu_share": (_share(ticks["cpu_s"], wall_traced), "share"),
        "trace.overhead_share": (
            _share(wall_traced - wall_untraced, wall_untraced), "share"),
    }
