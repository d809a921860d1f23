"""The benchmark's tracer wraps program functions by name
(``perfbench/tracer.py::BOUNDARIES``); a name the program drops reads as
an absent boundary there, not as an error.  This check resolves every
listed target without installing the tracer, so a deletion that drops a
hooked name fails here instead."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Listed by the benchmark although the program deleted them before this
# check existed (ROADMAP item 1 drops them from the list).
STALE = {
    "orthofit.ortho:OrthoBuilder.lap_column_sum",
    "orthofit.ddarith:dd_matvec",
    "orthofit.ddarith:dd_matvec_t",
    "orthofit.ddarith:comp_sum",
}


def _boundaries():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def _resolves(target):
    modname, _, path = target.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return False
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_benchmark_boundary_names_a_program_function():
    targets = [b.target for b in _boundaries()]
    assert "orthofit.ortho:OrthoBuilder.column_dot" in targets
    unresolved = {t for t in targets if not _resolves(t)}
    assert unresolved <= STALE, sorted(unresolved - STALE)
