"""Every layer the benchmark's tracer wraps exists in ``src/quadder``.

``bench/tracing.py`` reports a layer it cannot resolve as absent, and its
per-layer metrics drop out of the benchmark's result.  A rename or a
deletion of a traced function therefore fails here first.  The tracer is
loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("layer, module, path", [entry[:3] for entry in tracing.LAYERS],
                         ids=[f"{entry[1]}.{entry[2]}" for entry in tracing.LAYERS])
def test_every_traced_layer_resolves(layer, module, path):
    owner, attr = tracing._resolve(module, path)
    assert callable(getattr(owner, attr)), layer
    assert Path(importlib.import_module(module).__file__).parent == ROOT / "src" / "quadder"


def test_the_counted_builder_methods_exist():
    builder, _ = tracing._resolve("quadder.netlist", "NetlistBuilder.add")
    assert all(callable(getattr(builder, name)) for name in tracing.BUILDER_ADDS)
