"""The benchmark's span tracer still finds the code it times.

``perfbench/spans.py`` skips a ``LAYERS`` target that no longer exists, so
a renamed function would silently empty its layer.  These tests read the
tracer and the result-line metric names as they are, without editing
them: every layer whose self time is in the result line must resolve at
least one target, and the factorization must still go through the
``spla.splu`` call the tracer proxies.
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


def test_result_layers_are_listed():
    assert {"flow.advect", "fem_core.space", "fem_core.assemble"} <= set(RESULT_LAYERS)
    assert set(RESULT_LAYERS) <= set(spans.LAYERS)


@pytest.mark.parametrize("layer", RESULT_LAYERS)
def test_result_layer_resolves_a_target(layer):
    found = [t for t in spans.LAYERS[layer] if spans._resolve(t) is not None]
    assert found, f"{layer}: none of {spans.LAYERS[layer]} exists"


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
