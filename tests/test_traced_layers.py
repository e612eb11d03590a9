"""Every layer the benchmark's tracer wraps exists in ``src/quadder``.

``bench/tracing.py`` reports a layer it cannot resolve as absent, and its
per-layer metrics drop out of the benchmark's result.  A rename or a
deletion of a traced function therefore fails here first, and so does a
set-up probe that stops reaching the layer a traced run divides by.  The
tracer and the workloads are loaded from their files and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from quadder import netlist

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
WORKLOADS = ROOT / "bench" / "workloads.py"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module   # dataclasses look their module up while it loads
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


tracing = _load("bench_tracing", TRACING)


@pytest.mark.parametrize("layer, module, path", [entry[:3] for entry in tracing.LAYERS],
                         ids=[f"{entry[1]}.{entry[2]}" for entry in tracing.LAYERS])
def test_every_traced_layer_resolves(layer, module, path):
    owner, attr = tracing._resolve(module, path)
    assert callable(getattr(owner, attr)), layer
    assert Path(importlib.import_module(module).__file__).parent == ROOT / "src" / "quadder"


def test_the_counted_builder_methods_exist():
    builder, _ = tracing._resolve("quadder.netlist", "NetlistBuilder.add")
    assert all(callable(getattr(builder, name)) for name in tracing.BUILDER_ADDS)


def test_the_probe_reaches_add_batch(monkeypatch, tmp_path):
    """A traced run reports ``netlist.gate_evals_per_s`` as the gates counted
    in ``netlist.add_batch`` over its traced time, and in the sweep and
    document workloads the set-up probe's exhaustive check is its only
    call: a probe that stopped reaching it would make that a division by
    zero."""
    calls, inner = [], netlist.add_batch
    monkeypatch.setattr(netlist, "add_batch", lambda *args: calls.append(args) or inner(*args))
    _load("bench_workloads", WORKLOADS).probe(tmp_path)
    assert calls
