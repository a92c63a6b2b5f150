"""Tests of the benchmark's own harness, on tiny configs.

    python3 -m pytest bench/tests
"""

import dataclasses
import json
import threading
from pathlib import Path

import pytest

import harness
import workloads
from gate import is_prime
from mprsa import protocol
from workloads import Workload

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

TINY = Workload("tiny", 2, 16, 17, "memory", 3, 2, "fast in-memory keygens")
TINY_SOCKET = Workload("tiny-socket", 2, 16, 17, "socket", 2, 1, "fast socket keygens")
TINY_MULTIPLY = Workload("tiny-multiply", 2, 16, 3, "memory", 2, 2, "no sieving primes")


@pytest.fixture(autouse=True)
def few_filter_rounds(monkeypatch):
    monkeypatch.setattr(workloads, "FILTER_ROUNDS", 4)


def untraced(workload, reference=None, seconds=0.3):
    client, metrics, extra = harness.measure(workload, 7, seconds, reference, [(0.04, 0.02)], 0.02)
    return harness.result_line(client, metrics, extra), client


def traced(workload, reference=None):
    client, metrics, extra = harness.traced(workload, 7, reference, write_spans=False)
    return harness.result_line(client, metrics, extra)


def emitted(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [TINY, TINY_SOCKET])
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    result, _ = untraced(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert emitted(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [TINY, TINY_SOCKET, TINY_MULTIPLY])
def test_every_per_layer_metric_is_emitted_with_its_unit(workload):
    result = traced(workload)
    assert result["correct"], result
    assert emitted(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_layer_split_of_each_backend():
    memory, sock, multiply = traced(TINY), traced(TINY_SOCKET), traced(TINY_MULTIPLY)
    value = lambda result, name: result["metrics"][name]["value"]  # noqa: E731
    for name in ("streamnet.sends", "wire.encodes", "wire.decodes"):
        assert value(memory, name) == 0 and value(sock, name) > 0
    for name in ("transport.sends", "transport.receives"):
        assert value(sock, name) == 0 and value(memory, name) > 0
    assert value(multiply, "trialdiv.tests") == 0 < value(memory, "trialdiv.tests")


def test_count_metrics_repeat_exactly():
    first, second = traced(TINY), traced(TINY)
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")}
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_every_keygen_runs_and_weighs_once_whatever_the_seed():
    assert sorted(TINY.order(7)) == sorted(TINY.order(8)) == list(range(TINY.keygens))
    assert len({tuple(TINY.order(seed)) for seed in range(10)}) > 1
    result, client = untraced(TINY, seconds=0.0)
    assert sorted(k.index for k in client.keygens) == list(range(TINY.keygens))
    result, client = untraced(TINY, seconds=1.0)
    walls = {}
    for k in client.keygens:
        walls.setdefault(k.index, []).append(k.wall_s)
    assert len(client.keygens) > TINY.keygens == len(walls)
    mean_wall = sum(sum(w) / len(w) for w in walls.values()) / len(walls)
    assert client.notes["unscaled"]["keygen_s"] == pytest.approx(mean_wall)
    assert result["metrics"]["keygen_s"]["value"] > 0


def test_tampered_reference_is_a_failed_keygen():
    _, client = untraced(TINY, seconds=0.0)
    reference = [[k.moduli[1], k.attempts] for k in sorted(client.keygens, key=lambda k: k.index)]
    clean, _ = untraced(TINY, reference, seconds=0.0)
    assert clean["correct"] and clean["failed"] == 0
    reference[0] = [reference[0][0] + 2, reference[0][1]]
    tampered, client = untraced(TINY, reference, seconds=0.0)
    assert not tampered["correct"] and tampered["failed"] == 1
    assert client.failures == [(0, ["reference"])]
    short, client = untraced(TINY, reference[1:], seconds=0.0)
    assert not short["correct"] and short["failed"] == TINY.keygens
    assert traced(TINY, reference)["metrics"]["failed_share"]["value"] > 0


def test_thread_left_running_fails_the_run():
    release = threading.Event()
    stray = threading.Thread(target=release.wait, args=(10.0,), name="stray")
    stray.start()
    try:
        result, _ = untraced(TINY, seconds=0.0)
    finally:
        release.set()
        stray.join()
    assert not result["correct"] and result["attempted"] == 0 == result["failed"]


@pytest.mark.parametrize("workload", [TINY, TINY_SOCKET])
def test_forced_exception_is_a_failed_keygen(workload, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("forced")

    monkeypatch.setattr(protocol, "compute_modulus", broken)
    result, client = untraced(workload)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert all("forced" in checks[0] for _, checks in client.failures)
    assert threading.active_count() == 1


def test_deadline_is_a_failed_keygen(monkeypatch):
    release = threading.Event()

    def stuck(*args, **kwargs):
        release.wait(3.0)
        raise RuntimeError("released")

    monkeypatch.setattr(workloads, "KEYGEN_DEADLINE_S", 0.5)
    monkeypatch.setattr(protocol, "gcd_test", stuck)
    try:
        result, client = untraced(dataclasses.replace(TINY, keygens=1), seconds=0.1)
    finally:
        release.set()
    assert not result["correct"] and result["failed"] == 1
    assert client.failures == [(0, ["deadline"])]


def test_miller_rabin():
    small = [n for n in range(2, 2000) if all(n % d for d in range(2, int(n**0.5) + 1))]
    assert [n for n in range(2000) if is_prime(n)] == small
    assert is_prime((1 << 89) - 1) and not is_prime((1 << 67) - 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
