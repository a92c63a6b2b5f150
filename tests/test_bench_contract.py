"""The names the benchmark in `bench/` reaches into must keep existing.

The benchmark's harness tests are not part of this suite, so a refactor
that drops a patched name would otherwise go unnoticed until the
benchmark runs.
"""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

import pytest

from mprsa import ProtocolConfig, primes_below, protocol, run_in_memory, streamnet, trialdiv
from conftest import run_on_fresh_network

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("bench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner():
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _name, _size in load_layertrace().PATCH_POINTS
        if attr not in vars(owner)
    ]
    assert not missing


def test_traced_sizes_read_the_arguments_they_expect():
    # the trace sizes a span from positional arguments: distr_product's bit
    # width and the envelope handed to an endpoint's send or broadcast
    tracer = load_layertrace().Tracer()
    with tracer.patched():
        run_in_memory(ProtocolConfig(parties=2, bits=16, seed=b"\x01"))
    summary = tracer.summary()
    assert summary["transport.send"]["size"] > 0
    assert summary["distmul.distr_product"]["size"] > 0


def test_every_tick_goes_through_the_traced_methods():
    # the trace's metrics.* readings count PhaseMetrics.tick_* calls, and
    # every send or broadcast ticks its sender once through one of them
    tracer = load_layertrace().Tracer()
    with tracer.patched():
        run_in_memory(ProtocolConfig(parties=2, bits=16, seed=b"\x01"))
    summary = tracer.summary()
    assert summary["metrics.tick"]["count"] >= summary["transport.send"]["count"] > 0


@pytest.mark.parametrize("trial_bound", [541, 3])
def test_traced_memory_run_reads_the_layers_the_benchmark_splits_on(trial_bound):
    # bench/harness.split_failures marks a traced in-memory run incorrect
    # without blocking receives, or, when B > 3, without tree tests; the
    # socket layer must read nothing
    tracer = load_layertrace().Tracer()
    config = ProtocolConfig(parties=2, bits=16, trial_bound=trial_bound, seed=b"\x01")
    with tracer.patched():
        run_in_memory(config)
    summary = tracer.summary()
    assert summary["transport.receive"]["count"] > 0
    assert (summary["trialdiv.tree_divisibility_test"]["count"] > 0) == (trial_bound > 3)
    assert summary["streamnet.send"]["count"] == 0


def test_protocol_keeps_the_monkeypatched_stages():
    # the harness tests replace these module globals to force failures
    assert callable(vars(protocol)["compute_modulus"])
    assert callable(vars(protocol)["gcd_test"])


def test_tree_test_reaches_the_traced_schedule_and_hash(monkeypatch):
    # the trace's trialdiv.schedule_us and hashing.calls read these globals
    calls = {"reduction_schedule": 0, "hash_to_range": 0}

    def counted(name):
        original = getattr(trialdiv, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(trialdiv, name, wrapper)

    for name in calls:
        counted(name)
    trialdiv._run_schedules.cache_clear()  # a warm schedule would skip the hash
    config = ProtocolConfig(parties=4, bits=16, seed=bytes.fromhex("01"))
    results, _ = run_on_fresh_network(
        4,
        {
            party: lambda ep: trialdiv.tree_divisibility_test(config, 13, 1, ep)
            for party in range(1, 5)
        },
    )
    assert set(results.values()) == {True}
    assert calls["reduction_schedule"] > 0 and calls["hash_to_range"] > 0


def test_one_schedule_per_prime_tested(monkeypatch):
    # a party builds its tree role for every prime once, before its first
    # attempt, and reuses it in every later attempt; a run that succeeds
    # tests every prime, and the trace's trialdiv.schedule_us still sees
    # every schedule asked for.  The parties share each prime's schedule,
    # so fewer are built than asked for; two parties that miss the memo
    # at once may both build one.
    calls = []
    builds = []
    original = trialdiv.reduction_schedule
    original_build = trialdiv._build_schedule

    def counted(config, beta):
        calls.append(beta)
        return original(config, beta)

    def counted_build(config, beta):
        builds.append(beta)
        return original_build(config, beta)

    monkeypatch.setattr(trialdiv, "reduction_schedule", counted)
    monkeypatch.setattr(trialdiv, "_build_schedule", counted_build)
    trialdiv._run_schedules.cache_clear()
    config = ProtocolConfig(parties=4, bits=16, seed=bytes.fromhex("01"))
    result = run_in_memory(config)
    assert result.attempts > 1
    primes = primes_below(config.trial_bound)
    tested = primes[: max(record.context.trial_tests_p for record in result.records)]
    assert sorted(calls) == sorted(tested * config.parties)
    assert len(calls) < sum(record.context.trial_tests_p for record in result.records)
    assert set(builds) == set(tested)
    assert len(builds) < len(calls)


# every call bench/workloads.py makes into src/, in the shape it makes it
BENCH_CALLS = [
    (ProtocolConfig, (), dict(parties=4, bits=32, trial_bound=541, filter_rounds=40,
                              seed=b"\x01")),
    (run_in_memory, ("config",), dict(verify=True, timeout=60.0)),
    (streamnet.open_mesh, ("pid", "addresses"),
     dict(metrics="metrics", listener="listener", connect_timeout=30.0)),
    (protocol.run_party, ("config", 1, "endpoint", "rng"), dict(share_sink={})),
    (protocol.reconstruct_for_test, ("sets",), dict(test_mode=True)),
]


@pytest.mark.parametrize(
    "fn, args, kwargs", BENCH_CALLS, ids=[fn.__name__ for fn, _, _ in BENCH_CALLS]
)
def test_benchmark_calls_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


@pytest.mark.parametrize(
    "cls, names",
    [
        (protocol.MemoryRunResult, {"outcomes", "attempts", "records", "p", "q"}),
        (protocol.RunOutcome, {"modulus", "attempts", "per_phase_metrics"}),
    ],
)
def test_benchmark_reads_result_fields(cls, names):
    assert names <= {field.name for field in dataclasses.fields(cls)}
