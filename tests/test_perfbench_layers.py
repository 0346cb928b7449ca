"""The benchmark's tracer wraps glcoeff functions by name; every traced
name must still exist, or the traced benchmark run breaks."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for name, module, attr in tracer.LAYERS:
        target = importlib.import_module(f"glcoeff.{module}")
        for part in attr.split("."):
            assert hasattr(target, part), f"{name}: glcoeff.{module}.{attr}"
            target = getattr(target, part)
        assert callable(target), name
