import argparse
import json
import os
import random
import socket
import subprocess
import sys

import pytest

import mprsa
from mprsa import GaveUp, cli
from mprsa.cli import EXIT_GAVE_UP, EXIT_OK, EXIT_USAGE, main
from mprsa.wire import MEDIATOR

FAST = ["--bits", "16", "--trial-bound", "50", "--filter-rounds", "5"]


class TestUsageErrors:
    def test_parties_not_power_of_two(self, capsys):
        assert main(["--parties", "3"]) == EXIT_USAGE
        assert "power of two" in capsys.readouterr().err

    def test_too_many_parties_for_memory_prints_the_usage_line(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_in_memory", None)  # never reached
        assert main(["--parties", "256"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "at most 128 parties" in err and "usage: mprsa" in err

    def test_bad_seed(self, capsys):
        assert main(["--seed", "zz"]) == EXIT_USAGE

    def test_socket_needs_party_and_peers(self, capsys):
        assert main(["--transport", "socket"]) == EXIT_USAGE

    def test_verify_rejected_on_socket(self, capsys):
        argv = ["--transport", "socket", "--party-id", "1",
                "--peers", "a:1,b:2,c:3", "--verify"]
        assert main(argv) == EXIT_USAGE

    def test_bits_too_small(self, capsys):
        assert main(["--bits", "4"]) == EXIT_USAGE

    def test_port_out_of_range(self, capsys):
        argv = ["--parties", "2", "--transport", "socket", "--party-id", "1",
                "--peers", "127.0.0.1:70000,127.0.0.1:1,127.0.0.1:2"]
        assert main(argv) == EXIT_USAGE
        assert "65535" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "peers, party_id",
        [("127.0.0.1:1,127.0.0.1:2", "1"), ("127.0.0.1:1,127.0.0.1:2,127.0.0.1:3", "3")],
        ids=["too_few_peers", "party_id_out_of_range"],
    )
    def test_bad_socket_address_prints_the_usage_line(self, capsys, peers, party_id):
        argv = ["--parties", "2", "--transport", "socket", "--party-id", party_id,
                "--peers", peers]
        assert main(argv) == EXIT_USAGE
        assert "usage: mprsa" in capsys.readouterr().err


def test_peer_entries_parse_as_host_and_port():
    # a bracketed IPv6 host loses its brackets; an unbracketed one splits
    # at its last colon
    options = argparse.Namespace(parties=2, peers="[::1]:5000,host:5001,::1:5002")
    assert cli._parse_peers(options) == {
        MEDIATOR: ("::1", 5000),
        1: ("host", 5001),
        2: ("::1", 5002),
    }


class TestMemoryMode:
    def test_verified_run(self, capsys):
        argv = ["--parties", "2", *FAST, "--seed", "01", "--verify"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        n_lines = [line for line in out.splitlines() if line.startswith("N=")]
        assert len(n_lines) == 1
        assert "N_hex=0x" in out
        assert "VERIFIED p prime, q prime, p*q = N" in out

    def test_deterministic_stdout_byte_identical(self, capsys):
        argv = ["--parties", "2", *FAST, "--seed", "02"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second

    def test_metrics_file_written_and_stable(self, tmp_path, capsys):
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        base = ["--parties", "2", *FAST, "--seed", "03"]
        assert main([*base, "--metrics-out", str(out_a)]) == EXIT_OK
        assert main([*base, "--metrics-out", str(out_b)]) == EXIT_OK
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        rows = [json.loads(line) for line in out_a.read_text().splitlines()]
        assert rows, "metrics file is empty"
        assert set(rows[0]) == {
            "attempt", "party", "phase", "messages", "broadcasts", "ot_inits"
        }

    def test_gave_up_exit_code(self, capsys):
        argv = ["--parties", "2", *FAST, "--seed", "0000", "--max-attempts", "1"]
        assert main(argv) == EXIT_GAVE_UP


def run_socket_cli(parties, extra):
    """Run the mediator and every party as separate CLI processes on
    loopback; returns [(returncode, stdout, stderr)], mediator first."""
    probes = []
    for _ in range(parties + 1):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        probes.append(probe)
    peers = ",".join(f"127.0.0.1:{probe.getsockname()[1]}" for probe in probes)
    for probe in probes:
        probe.close()
    base = [
        sys.executable, "-m", "mprsa", "--parties", str(parties), *extra,
        "--transport", "socket", "--peers", peers, "--quiet-metrics",
    ]
    # the CLI processes import the mprsa this process imported, whether
    # it came from PYTHONPATH or from pytest's `pythonpath` setting
    src = os.path.dirname(os.path.dirname(mprsa.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen(
            [*base, "--party-id", str(pid)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        for pid in range(parties + 1)
    ]
    outs = [proc.communicate(timeout=120) for proc in procs]
    return [(proc.returncode, out, err) for proc, (out, err) in zip(procs, outs)]


def printed_moduli(runs):
    return {
        line
        for _code, out, _err in runs[1:]
        for line in out.splitlines()
        if line.startswith("N=")
    }


class TestSocketMode:
    def test_end_to_end_subprocesses(self, tmp_path):
        runs = run_socket_cli(2, [*FAST, "--seed", "01"])
        assert [code for code, _out, _err in runs] == [EXIT_OK] * 3, runs
        assert len(printed_moduli(runs)) == 1  # both parties printed the same modulus
        assert not runs[0][1]  # the mediator prints nothing

    def test_four_parties_finish_cleanly_every_time(self):
        # parties finish at different times; one that leaves early must not
        # take frames it already delivered away from slower peers
        for _ in range(5):
            runs = run_socket_cli(4, ["--bits", "32", "--seed", "01"])
            assert [code for code, _out, _err in runs] == [EXIT_OK] * 5, runs
            assert len(printed_moduli(runs)) == 1

    def test_eight_parties_finish_cleanly_every_time(self):
        # 9 processes on one mesh, at the smallest --bits the CLI accepts
        for _ in range(3):
            runs = run_socket_cli(8, ["--bits", "8", "--seed", "01"])
            assert [code for code, _out, _err in runs] == [EXIT_OK] * 9, runs
            lines = [
                [line for line in out.splitlines() if line.startswith("N=")]
                for _code, out, _err in runs[1:]
            ]
            assert len(lines[0]) == 1 and lines == [lines[0]] * 8

    def test_party_draws_its_secrets_from_the_os(self, monkeypatch):
        rngs = []

        class Endpoint:
            def close(self):
                pass

        def run_party(config, party, endpoint, rng, **kwargs):
            rngs.append(rng)
            raise GaveUp("stopped once the rng is seen")

        monkeypatch.setattr(cli, "open_mesh", lambda *args, **kwargs: Endpoint())
        monkeypatch.setattr(cli, "run_party", run_party)
        argv = ["--parties", "2", "--transport", "socket", "--party-id", "1",
                "--peers", "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3"]
        assert main(argv) == EXIT_GAVE_UP
        assert len(rngs) == 1 and isinstance(rngs[0], random.SystemRandom)

    def test_same_seed_gives_a_fresh_modulus(self):
        # the seed fixes only public choices; the parties' secrets differ
        # from run to run, while the parties of one run agree
        moduli = []
        for _ in range(2):
            runs = run_socket_cli(2, ["--bits", "32", "--seed", "01"])
            assert [code for code, _out, _err in runs] == [EXIT_OK] * 3, runs
            (modulus,) = printed_moduli(runs)
            moduli.append(modulus)
        assert moduli[0] != moduli[1]
