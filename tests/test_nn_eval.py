"""Eval-mode forwards: no retained activations, cached spectral weights."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import build_mlp
from repro.nn import (
    GELU,
    BatchNorm2d,
    Conv2d,
    Flatten,
    LeakyReLU,
    Linear,
    MaxPool2d,
    MSELoss,
    ReLU,
    SGD,
    Sequential,
    Sigmoid,
    SpectralConv2d,
    SpectralLinear,
    TransformerBlock,
)
from repro.nn.spectral import spectral_norm
from repro.quant import STANDARD_FORMATS, quantize_model


def _h2(activation):
    def build(rng):
        model = build_mlp(9, [50, 50], 9, activation=activation, rng=rng)
        return model, rng.uniform(-1, 1, (4096, 9)).astype(np.float32)

    build.__name__ = f"h2_{activation}"
    return build


def _dense(rng):
    return Sequential(
        SpectralLinear(9, 64, rng=rng), LeakyReLU(), Linear(64, 64, rng=rng),
        Sigmoid(), Linear(64, 8, rng=rng), GELU(),
    ), rng.standard_normal((1024, 9)).astype(np.float32)


def _conv(rng):
    return Sequential(
        Conv2d(2, 4, 3, padding=1, rng=rng), BatchNorm2d(4), ReLU(), MaxPool2d(2),
        SpectralConv2d(4, 4, 3, padding=1, rng=rng), Flatten(), Linear(256, 3, rng=rng),
    ), rng.standard_normal((16, 2, 16, 16)).astype(np.float32)


def _attention(rng):
    return Sequential(TransformerBlock(8, 2, mlp_ratio=2, rng=rng)), (
        rng.standard_normal((32, 32, 8)).astype(np.float32)
    )


FACTORIES = [_h2("tanh"), _h2("prelu"), _dense, _conv, _attention]


@pytest.mark.parametrize("build", FACTORIES, ids=lambda b: b.__name__.strip("_"))
def test_eval_forward_keeps_no_reference_to_input(build, rng):
    model, x = build(rng)
    model.eval()
    out = model(x)
    ref = weakref.ref(x)
    del x
    gc.collect()
    assert ref() is None  # while the output is still alive
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("build", FACTORIES, ids=lambda b: b.__name__.strip("_"))
def test_eval_forward_memory_returns_to_baseline(build, rng):
    """Once the output is dropped, no activation of the batch stays
    alive; the 16 KB allowance covers interpreter bookkeeping only."""
    model, x = build(rng)
    model.eval()
    model(x)  # materialize the eval weights outside the measurement
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        out = model(x)
        assert tracemalloc.get_traced_memory()[0] - baseline >= out.nbytes
        del out
        retained = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert retained < 16 * 1024


def _expected(layer, x):
    sigma = max(spectral_norm(layer.raw_weight.data), 1e-12)
    normalized = layer.raw_weight.data / sigma
    return x @ (normalized.T * layer.alpha.data[0]) + layer.bias.data


def test_spectral_eval_weight_computed_once(rng):
    layer = SpectralLinear(12, 7, rng=rng)
    layer.eval()
    weights = set()
    for batch in (1, 5, 64):
        x = rng.standard_normal((batch, 12)).astype(np.float32)
        assert np.array_equal(layer(x), _expected(layer, x))
        weights.add(id(layer._eval_matrix()))
    assert len(weights) == 1


def test_spectral_eval_weight_recomputed_after_optimizer_step(rng):
    layer = SpectralLinear(12, 7, rng=rng)
    x = rng.standard_normal((16, 12)).astype(np.float32)
    layer.eval()
    before = layer._eval_matrix()
    layer.train()
    loss = MSELoss()
    loss(layer(x), np.zeros((16, 7), dtype=np.float32))
    layer.backward(loss.backward())
    SGD(layer.parameters(), lr=0.1).step()
    layer.eval()
    out = layer(x)
    assert layer._eval_matrix() is not before
    assert np.array_equal(out, _expected(layer, x))


def test_spectral_eval_weight_recomputed_after_alpha_assignment(rng):
    layer = SpectralLinear(12, 7, rng=rng)
    layer.eval()
    x = rng.standard_normal((4, 12)).astype(np.float32)
    before = layer(x) - layer.bias.data
    layer.alpha.data = layer.alpha.data * 2.0
    after = layer(x)
    assert np.array_equal(after, _expected(layer, x))
    assert np.allclose(after - layer.bias.data, 2.0 * before, rtol=1e-5)


def _spectral_layer(kind, rng):
    """A spectral layer, the parameter its sigma is taken over, and an input."""
    if kind == "linear":
        layer = SpectralLinear(6, 5, rng=rng)
        return layer, layer.raw_weight, rng.standard_normal((4, 6)).astype(np.float32)
    layer = SpectralConv2d(2, 3, 3, padding=1, rng=rng)
    return layer, layer.weight, rng.standard_normal((2, 2, 5, 5)).astype(np.float32)


@pytest.mark.parametrize("kind", ["linear", "conv"])
def test_spectral_eval_cache_follows_bump_version(rng, kind):
    """The documented in-place write + ``bump_version()`` must refresh the
    converged sigma: the eval forward and ``effective_weight()`` equal a
    fresh layer's with the same state."""
    layer, param, x = _spectral_layer(kind, rng)
    layer.eval()
    layer(x)  # fills the eval cache
    param.data[0] *= 3.0  # in place: the setter does not see it
    param.bump_version()
    fresh, __, __ = _spectral_layer(kind, np.random.default_rng(0))
    fresh.load_state_dict(layer.state_dict())
    fresh.eval()
    assert np.array_equal(layer(x), fresh(x))
    assert np.array_equal(layer.effective_weight(), fresh.effective_weight())


@pytest.mark.parametrize("kind", ["linear", "conv"])
def test_effective_weight_shares_the_eval_sigma(rng, kind, monkeypatch):
    """One power iteration per weight version serves the eval forward and
    every ``effective_weight()`` call."""
    from repro.nn import spectral

    layer, param, x = _spectral_layer(kind, rng)
    layer.eval()
    calls = []
    real = spectral.spectral_norm
    monkeypatch.setattr(
        spectral, "spectral_norm", lambda m, **kw: calls.append(1) or real(m, **kw)
    )
    first = layer(x)
    assert np.array_equal(layer(x), first)
    layer.effective_weight()
    layer.effective_weight()
    assert len(calls) == 1
    param.data = param.data * 2.0
    layer.effective_weight()
    layer(x)
    assert len(calls) == 2


ACTIVATION_NAMES = ["relu", "leaky_relu", "prelu", "tanh", "sigmoid", "gelu"]


@given(
    widths=st.lists(st.integers(1, 9), min_size=0, max_size=3),
    activation=st.sampled_from(ACTIVATION_NAMES),
    spectral=st.booleans(),
    fmt=st.sampled_from(sorted(STANDARD_FORMATS)),
    batch=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_eval_forward_bit_exact_random_chain(widths, activation, spectral, fmt, batch, seed):
    """Random chain models x Table-I formats: the cached eval forward equals
    the uncached training-mode forward, bitwise, on every call."""
    rng = np.random.default_rng(seed)
    model = build_mlp(4, widths, 3, activation=activation, spectral=spectral, rng=rng)
    quantized = quantize_model(model, STANDARD_FORMATS[fmt]).model
    x = rng.standard_normal((batch, 4)).astype(np.float32)

    quantized.train()
    expected = quantized(x)
    quantized.eval()
    for _ in range(2):  # first call fills the eval-weight cache, second reads it
        actual = quantized(x)
        assert actual.dtype == expected.dtype
        assert np.array_equal(actual, expected)
