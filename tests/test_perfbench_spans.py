"""The benchmark's span tracer still finds the code it times.

``perfbench/spans.py`` skips a ``LAYERS`` target that no longer exists, so
a renamed function would silently empty its layer.  These tests read the
tracer and the result-line metric names as they are, without editing
them: every layer whose self time is in the result line must resolve at
least one target, unless ``DELETED`` names it with the reason, and the
factorization must still go through the ``spla.splu`` call the tracer
proxies.
"""

import importlib.util
import os

import numpy as np
import pytest
import scipy.sparse as sp

from shapegrad import fem_core as fem

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
run = _load("run")

# layers timed through LAYERS targets whose self time is a result-line
# metric; the factorization and triangular solves are traced at ``splu``
RESULT_LAYERS = sorted(
    {name[:-len("_s")] for name in run.PER_LAYER
     if name.endswith("_s") and not name.startswith("trace.")}
    - {spans.FACTOR, spans.TRISOLVE})

#: layer -> why none of its targets exists: the code it timed was deleted,
#: so the layer reads 0 until the benchmark's next change drops it
DELETED = {"flow.advect": "advect_batch was folded into transport_mesh, "
                          "which the flow.transport layer times"}


def _found(layer):
    return [t for t in spans.LAYERS[layer] if spans._resolve(t) is not None]


def test_result_layers_are_listed():
    assert {"flow.transport", "fem_core.space", "fem_core.assemble"} <= set(RESULT_LAYERS)
    assert set(RESULT_LAYERS) <= set(spans.LAYERS)


@pytest.mark.parametrize("layer", [name for name in RESULT_LAYERS if name not in DELETED])
def test_result_layer_resolves_a_target(layer):
    assert _found(layer), f"{layer}: none of {spans.LAYERS[layer]} exists"


@pytest.mark.parametrize("layer", sorted(DELETED))
def test_deleted_layer_is_current(layer):
    """Each listed layer is still in the result line and still resolves
    nothing, so the list hides no layer that times live code."""
    assert layer in RESULT_LAYERS
    assert _found(layer) == []


def test_factorization_is_traced_at_splu():
    A = sp.csc_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]))
    tracer = spans.Tracer()
    tracer.install()
    try:
        fem.Factorized(A).solve(np.ones(3))
    finally:
        tracer.uninstall()
    _, calls = tracer.layer_summary()
    assert calls[spans.FACTOR] == 1
    assert calls[spans.TRISOLVE] == 1
    assert tracer.counts["fem_core.factor.fill"] > 0
