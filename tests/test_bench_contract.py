"""The names the benchmark in `bench/` reaches into must keep existing.

The benchmark's harness tests are not part of this suite, so a refactor
that drops a patched name would otherwise go unnoticed until the
benchmark runs.
"""

import importlib.util
from pathlib import Path

from mprsa import protocol

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def load_patch_points():
    spec = importlib.util.spec_from_file_location("bench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCH_POINTS


def test_every_traced_name_is_defined_on_its_owner():
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _name, _size in load_patch_points()
        if attr not in vars(owner)
    ]
    assert not missing


def test_protocol_keeps_the_monkeypatched_stages():
    # the harness tests replace these module globals to force failures
    assert callable(vars(protocol)["compute_modulus"])
    assert callable(vars(protocol)["gcd_test"])
