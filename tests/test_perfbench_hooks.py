"""The benchmark tracer wraps functions by name and skips a name that no
longer exists, which would leave that layer's metrics at 0.  Every span it
declares must therefore resolve at one or more of its places."""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
STALE = set()


def _targets():
    # Executed from its source, so nothing is written next to it.
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module.TARGETS


TARGETS = _targets()


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


@pytest.mark.parametrize("span", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason="stale hook"))
    if name in STALE else name for name in sorted(TARGETS)])
def test_every_traced_span_resolves(span):
    places, _units = TARGETS[span]
    found = [p for p in places if callable(_resolve(*p))]
    assert found, f"{span}: none of {places} exists"
