"""Every name that ``spindyn`` exports, and every public method and property
of an exported class, is used by the program itself.

A caller is a whole-word match in ``src/spindyn/`` (outside ``__init__.py``
and the name's own ``def``/``class`` line), in ``demos/`` or in
``perfbench/``; for a method or property, an attribute access ``.name``.
A name that only the tests use is a wrapper to delete.  Likewise every
exported error type but the base ``SpindynError`` is raised somewhere in
``src/spindyn/``, so that no exception type outlives its last raiser.  And
the program keeps one step rule and one replica driver: ``_step`` is used
only by ``integrate_ensemble``, and that only by ``integrate_replicas``.
"""

import ast
import inspect
import re
from pathlib import Path

import spindyn

ROOT = Path(__file__).resolve().parents[1]

NO_CALLER_YET = {
    # Kept for the converge subcommand, which is to report its verdict on
    # the simulated gaps; remove the entry once it does.
    "comparison_check",
    # That verdict: hypothesis and bound both hold.
    "ComparisonReport.passed",
    # The pair diffusion constant of SinglePotentialDrift's per-site
    # inequalities; converge's Gronwall constant reads a_bar alone so far.
    "CoefficientField.M",
}


def _program_lines():
    pkg = ROOT / "src" / "spindyn"
    files = [f for f in sorted(pkg.glob("*.py")) if f.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return [line for f in files for line in f.read_text().splitlines()]


def _public_members():
    """``Class.name`` of every public method and property that an exported
    class defines itself."""
    return [f"{cls}.{name}" for cls in spindyn.__all__
            if inspect.isclass(getattr(spindyn, cls))
            for name, value in vars(getattr(spindyn, cls)).items()
            if not name.startswith("_") and (inspect.isfunction(value) or isinstance(
                value, (property, staticmethod, classmethod)))]


def _has_caller(name, lines):
    if "." in name:
        use = re.compile(rf"\.{name.split('.')[1]}\b")
        return any(use.search(line) for line in lines)
    use = re.compile(rf"\b{name}\b")
    own = re.compile(rf"\s*(def|class)\s+{name}\b")
    return any(use.search(line) and not own.match(line) for line in lines)


def test_every_public_name_has_a_program_caller():
    lines = _program_lines()
    orphans = [n for n in spindyn.__all__ if n not in NO_CALLER_YET
               and not _has_caller(n, lines)]
    assert orphans == []


def test_every_public_member_has_a_program_caller():
    lines = _program_lines()
    members = _public_members()
    assert "RandomInit.draw" in members and "GeometricGraph.operator" in members
    orphans = [n for n in members if n not in NO_CALLER_YET and not _has_caller(n, lines)]
    assert orphans == []


def test_named_exceptions_still_have_no_caller():
    lines = _program_lines()
    assert NO_CALLER_YET <= set(spindyn.__all__) | set(_public_members())
    assert [n for n in sorted(NO_CALLER_YET) if _has_caller(n, lines)] == []


def test_every_exported_error_has_a_raiser():
    pkg = ROOT / "src" / "spindyn"
    lines = [line for f in sorted(pkg.glob("*.py")) for line in f.read_text().splitlines()]
    errors = [n for n in spindyn.__all__ if inspect.isclass(getattr(spindyn, n))
              and issubclass(getattr(spindyn, n), spindyn.SpindynError)
              and n != "SpindynError"]
    assert {"ParameterError", "NumericError", "NonFiniteState"} <= set(errors)
    unraised = [n for n in errors
                if not any(re.search(rf"\braise\s+{n}\b", line) for line in lines)]
    assert unraised == []


def _users(name):
    """``module.owner`` for every reference to ``name`` in ``src/spindyn/``,
    as a bare name or an attribute, owner the top-level function or class
    around it."""
    users = []
    for path in sorted((ROOT / "src" / "spindyn").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "<module>")
            users += [f"{path.stem}.{owner}" for node in ast.walk(top)
                      if isinstance(node, ast.Name) and node.id == name
                      or isinstance(node, ast.Attribute) and node.attr == name]
    return users


def test_one_step_rule_and_one_replica_driver():
    assert _users("_step") == ["engine.integrate_ensemble"]
    assert _users("integrate_ensemble") == ["engine.integrate_replicas"]


def test_initial_data_drawn_in_one_place():
    # A run's initial states are one (replicas, sites) array, built by the
    # CLI; the engine takes that array and draws none of its own.
    assert _users("draw") == ["cli._build_init"]
