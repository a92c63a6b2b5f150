"""Operator entry point.

In-memory mode (default) runs all parties plus the OT mediator inside
one process and draws every party's secrets from the seed, so a run is
reproducible and the seed is its trust root.  Socket mode runs exactly
one participant per invocation: give every invocation the same ordered
peer list (mediator address first, then parties 1..n) and a distinct
--party-id, where id 0 is the mediator.  A socket party draws its
secrets from random.SystemRandom, so there the seed fixes only public
choices (pairings, leaders) and every run gives a fresh N.

Exit codes: 0 success, 1 transport/runtime failure, 2 iteration cap
exceeded, 64 bad usage.
"""

import argparse
import os
import random
import sys
import time

from .errors import GaveUp, ParameterError, ProtocolError, TransportError
from .metrics import PhaseMetrics, expected_counts, records_to_jsonl, summary_table
from .ot import run_mediator
from .protocol import ITERATION_CAP, run_in_memory, run_party
from .shares import ProtocolConfig
from .streamnet import open_mesh
from .transport import MAX_MEMORY_PARTIES
from .wire import MEDIATOR

SEED_ENV_VAR = "MPRSA_SEED"
DEFAULT_SEED_HEX = "00000000"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_GAVE_UP = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mprsa",
        description="Generate an RSA modulus whose factorization stays "
        "additively shared among the participants.",
    )
    parser.add_argument("--parties", type=int, default=4,
                        help="number of parties, a power of two (default 4)")
    parser.add_argument("--bits", type=int, default=32,
                        help="bit length of each candidate share (default 32)")
    parser.add_argument("--trial-bound", type=int, default=541,
                        help="trial-divide by every odd prime below this (default 541)")
    parser.add_argument("--filter-rounds", type=int, default=40,
                        help="filtering biprimality repetitions (default 40)")
    parser.add_argument("--seed", default=None,
                        help=f"shared seed as hex (default ${SEED_ENV_VAR} or "
                        f"{DEFAULT_SEED_HEX}); in memory it also seeds the "
                        "secrets, as the trust root; socket parties use the OS")
    parser.add_argument("--transport", choices=("memory", "socket"), default="memory")
    parser.add_argument("--party-id", type=int, default=None,
                        help="socket mode: which participant this process is "
                        "(0 = OT mediator)")
    parser.add_argument("--peers", default=None,
                        help="socket mode: comma-separated host:port list, "
                        "mediator first then parties 1..n")
    parser.add_argument("--verify", action="store_true",
                        help="reconstruct p and q afterwards and check them "
                        "(in-memory only; breaks secrecy, for testing)")
    parser.add_argument("--metrics-out", default=None,
                        help="write per-attempt counter records as JSON lines")
    parser.add_argument("--max-attempts", type=int, default=ITERATION_CAP,
                        help="candidate iteration cap (default 10^6)")
    parser.add_argument("--quiet-metrics", action="store_true",
                        help="suppress the summary table on stdout")
    return parser


def _parse_seed(options) -> bytes:
    raw = options.seed
    if raw is None:
        raw = os.environ.get(SEED_ENV_VAR, DEFAULT_SEED_HEX)
    try:
        seed = bytes.fromhex(raw)
    except ValueError:
        raise _UsageError(f"seed must be a hex string, got {raw!r}") from None
    if not seed:
        raise _UsageError("seed must not be empty")
    return seed


def _parse_peers(options) -> dict[int, tuple[str, int]]:
    entries = [item.strip() for item in options.peers.split(",") if item.strip()]
    if len(entries) != options.parties + 1:
        raise _UsageError(
            f"--peers needs {options.parties + 1} entries "
            f"(mediator + {options.parties} parties), got {len(entries)}"
        )
    addresses = {}
    for slot, entry in enumerate(entries):
        host, sep, port = entry.rpartition(":")
        if host.startswith("[") and host.endswith("]"):
            host = host[1:-1]  # a bracketed IPv6 address
        if not sep or not host:
            raise _UsageError(f"peer entry {entry!r} is not host:port")
        try:
            port_num = int(port)
        except ValueError:
            raise _UsageError(f"peer entry {entry!r} has a non-numeric port") from None
        if not 0 <= port_num <= 0xFFFF:
            raise _UsageError(f"peer entry {entry!r} has a port outside 0-65535")
        addresses[MEDIATOR if slot == 0 else slot] = (host, port_num)
    return addresses


def _report(options, modulus, attempts, verified, records) -> None:
    """Print the outcome, write --metrics-out and print the summary table;
    `verified` is None when no verification ran."""
    print(f"N={modulus}")
    print(f"N_hex={modulus:#x}")
    print(f"attempts={attempts}")
    if verified is not None:
        if verified:
            print("VERIFIED p prime, q prime, p*q = N")
        else:
            print("VERIFICATION FAILED: reconstructed factors do not check out")
    if options.metrics_out:
        with open(options.metrics_out, "w", encoding="ascii") as fh:
            fh.write(records_to_jsonl(records))
    if not options.quiet_metrics:
        print(summary_table(records))


def _run_memory(options, config) -> int:
    started = time.perf_counter()
    result = run_in_memory(
        config,
        verify=options.verify,
        max_attempts=options.max_attempts,
    )
    elapsed = time.perf_counter() - started
    _report(options, result.modulus, result.attempts, result.verified, result.records)
    if not options.quiet_metrics:
        print("expected per party for one completed attempt:")
        for row in expected_counts(config):
            print(f"  {row.phase:<14} {row.metric:<32} {row.formula:<18} = {row.value}")
    print(f"elapsed={elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK


def _run_socket(options, config, addresses) -> int:
    wire_id = options.party_id or MEDIATOR
    endpoint = open_mesh(wire_id, addresses, metrics=PhaseMetrics())
    try:
        if wire_id == MEDIATOR:
            run_mediator(endpoint)
            return EXIT_OK
        outcome = run_party(
            config,
            wire_id,
            endpoint,
            random.SystemRandom(),
            max_attempts=options.max_attempts,
        )
        _report(options, outcome.modulus, outcome.attempts, None, outcome.per_phase_metrics)
        print(f"elapsed={outcome.elapsed:.2f}s", file=sys.stderr)
        return EXIT_OK
    finally:
        endpoint.close()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        options = parser.parse_args(argv)
        seed = _parse_seed(options)
        if options.transport == "socket":
            if options.party_id is None or options.peers is None:
                raise _UsageError("socket mode needs --party-id and --peers")
            if options.verify:
                raise _UsageError("--verify needs every share in one process; "
                                  "use the in-memory transport")
        try:
            config = ProtocolConfig(
                parties=options.parties,
                bits=options.bits,
                trial_bound=options.trial_bound,
                filter_rounds=options.filter_rounds,
                seed=seed,
            )
        except ParameterError as exc:
            raise _UsageError(str(exc)) from None
        if options.transport == "memory" and config.parties > MAX_MEMORY_PARTIES:
            raise _UsageError(f"the in-memory transport runs at most "
                              f"{MAX_MEMORY_PARTIES} parties; use sockets")
        if options.max_attempts < 1:
            raise _UsageError("--max-attempts must be >= 1")
        if options.transport == "socket":
            if not 0 <= options.party_id <= config.parties:
                raise _UsageError(f"--party-id must be 0 (mediator) or 1..{config.parties}")
            addresses = _parse_peers(options)
    except _UsageError as exc:
        print(f"mprsa: error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return EXIT_USAGE

    try:
        if options.transport == "socket":
            return _run_socket(options, config, addresses)
        return _run_memory(options, config)
    except GaveUp as exc:
        print(f"mprsa: gave up: {exc}", file=sys.stderr)
        return EXIT_GAVE_UP
    except (TransportError, ProtocolError, OSError, TimeoutError) as exc:
        print(f"mprsa: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
