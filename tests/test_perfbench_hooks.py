"""The benchmark tracer wraps functions by name and skips a name that no
longer exists, which would leave that layer's metrics at 0.  Every span it
declares must therefore resolve at one or more of its places, and a span's
work-unit function may read only arguments that the function at each of
those places takes: a renamed parameter would otherwise raise ``KeyError``
in traced runs alone."""

import importlib
import inspect
import types
from pathlib import Path
from unittest import mock

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# Spans whose every place is gone from spindyn; the tracer is to drop them.
STALE = {"coeffs.validate_assumptions"}


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


def _found(span):
    return [p for p in TARGETS[span][0] if callable(_resolve(*p))]


@pytest.mark.parametrize("span", sorted(set(TARGETS) - STALE))
def test_every_traced_span_resolves(span):
    assert _found(span), f"{span}: none of {TARGETS[span][0]} exists"


@pytest.mark.parametrize("span", sorted(STALE))
def test_stale_span_stays_unresolved(span):
    # Once the tracer drops the span, or a place resolves again, leave STALE.
    assert span in TARGETS and not _found(span)


@pytest.mark.parametrize("span", sorted(s for s, (_p, units) in TARGETS.items() if units))
def test_work_units_read_only_hooked_parameters(span):
    # The tracer hands the work-unit function the call's bound arguments;
    # here every parameter of the hooked function is bound to a stand-in.
    places, units = TARGETS[span]
    for place in places:
        fn = _resolve(*place)
        if not callable(fn):
            continue
        bound = types.SimpleNamespace(arguments={
            name: mock.MagicMock() for name in inspect.signature(fn).parameters})
        try:
            units(bound)
        except KeyError as e:
            pytest.fail(f"{span}: its work units read {e}, which {place} does not take")
