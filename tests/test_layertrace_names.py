"""perfbench's layer tracer wraps popalloc functions by name, so renaming or
deleting one breaks every traced benchmark run. These checks catch that here."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from popalloc import SimState

LAYERTRACE_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def load_layertrace():
    """perfbench/layertrace.py, imported read-only by path."""
    spec = importlib.util.spec_from_file_location("popalloc_bench_layertrace", LAYERTRACE_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    layertrace = load_layertrace()
    for module_name, names in layertrace.LAYERS.items():
        owner_module = importlib.import_module(f"popalloc.{module_name}")
        for name in names:
            owner = owner_module
            for part in name.split("."):
                assert hasattr(owner, part), f"popalloc.{module_name}.{name} is gone"
                owner = getattr(owner, part)
            assert callable(owner), f"popalloc.{module_name}.{name} is not callable"
    # The tracer builds (but does not install) its wrappers the way a traced
    # run does.
    assert layertrace.LayerTracer()._patches


def test_simstate_from_census_is_a_classmethod():
    assert isinstance(inspect.getattr_static(SimState, "from_census"), classmethod)
    assert "from_census" in vars(SimState)
