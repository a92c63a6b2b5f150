"""Shared helpers: thread harness wrappers around the in-memory network,
and a check that no test leaves a thread running."""

import random
import threading
import time

import pytest

from mprsa import MEDIATOR, InMemoryNetwork, run_mediator, run_parties


def run_on_fresh_network(parties, fns, *, timeout=120.0, record_transcripts=False):
    """Spin up a network, run one callable per participant (the OT
    mediator defaults to run_mediator), return ({party: result}, network)."""
    network = InMemoryNetwork(parties, record_transcripts=record_transcripts)
    results = run_parties(network, {MEDIATOR: run_mediator, **fns}, timeout=timeout)
    return results, network


@pytest.fixture(autouse=True)
def no_stray_threads():
    """Fail a test that leaves a thread it started alive for 2 s after it
    returns: a run must end every participant, whatever its outcome."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 2.0
    started = [t for t in threading.enumerate() if t not in before]
    for thread in started:
        thread.join(max(deadline - time.monotonic(), 0.0))
    stray = [t.name for t in started if t.is_alive()]
    if stray:
        pytest.fail(f"threads still running after the test: {stray}")


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


class ScriptedRandom:
    """Returns scripted randrange values first, then falls back to a
    seeded stream; used to rig specific share draws."""

    def __init__(self, scripted, seed=0):
        self._scripted = list(scripted)
        self._fallback = random.Random(seed)

    def randrange(self, *args, **kwargs):
        if self._scripted:
            return self._scripted.pop(0)
        return self._fallback.randrange(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._fallback, name)
