"""The benchmark's tracer wraps functions by name: they must all exist.

bench/tracing.py is read, not changed.  Every TARGETS entry must resolve
in the package, and every argument a derived-metric hook reads must be a
parameter of the function it wraps, so that a traced run (--trace 1)
cannot break when a function is renamed or deleted.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def resolve(mod, qual):
    obj = importlib.import_module(f"icisres.{mod}")
    for part in qual.split("."):
        obj = getattr(obj, part)
    return obj


def hook_arguments():
    """(target, argument names its hook reads), as the tracer pairs them:
    the hook _after_<name> serves every target whose last part is name."""
    out = []
    for mod, qual in tracing.TARGETS:
        hook = getattr(tracing.Tracer, "_after_" + qual.split(".")[-1], None)
        if hook is not None:
            names = re.findall(r'args\["(\w+)"\]', inspect.getsource(hook))
            out.append(((mod, qual), tuple(dict.fromkeys(names))))
    return out


@pytest.mark.parametrize("mod, qual", tracing.TARGETS,
                         ids=[f"{m}.{q}" for m, q in tracing.TARGETS])
def test_every_target_resolves(mod, qual):
    assert callable(resolve(mod, qual))


@pytest.mark.parametrize("target, names", hook_arguments(),
                         ids=[f"{m}.{q}" for (m, q), _ in hook_arguments()])
def test_hook_arguments_are_parameters(target, names):
    params = inspect.signature(resolve(*target)).parameters
    for name in names:
        assert name in params, f"{name} is not a parameter of {target}"


def test_hooks_read_the_expected_arguments():
    read = dict(hook_arguments())
    assert set(read[("localalg", "standard_basis")]) == {"gens", "cap"}
    assert set(read[("localalg", "standard_basis_at")]) == {"track"}
    assert set(read[("residues", "lift_rows")]) == {"cap"}
    assert set(read[("residues", "residue_via_lift")]) == {
        "numerator", "powers", "det_cap"}
