"""The benchmark traces relcomp functions by name; every name it lists
must still be a function of the module it names."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_reported_span_names_a_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"relcomp.{module}.{name}"
               for module, names in tracing.REPORTED.items() for name in names
               if not callable(getattr(importlib.import_module(f"relcomp.{module}"),
                                       name, None))]
    assert tracing.REPORTED and not missing, missing
