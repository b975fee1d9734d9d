"""Property tests for the paper's central claim: bounds cover achieved error.

These are the library's most important tests: for random and trained
networks, under every quantization format and input-perturbation level,
the predicted Eq. (3) bound must sit above the measured QoI error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ErrorFlowAnalyzer
from repro.nn import Identity, Linear, ReLU, Sequential, Tanh
from repro.quant import BF16, FP16, INT8, TF32, materialize, quantize_model

_FORMATS = (TF32, FP16, BF16, INT8)


def _random_mlp(rng, n_layers, width):
    dims = [int(rng.integers(3, width))] + [int(rng.integers(3, width)) for __ in range(n_layers)]
    layers = []
    for i in range(n_layers):
        layers.append(Linear(dims[i], dims[i + 1], rng=rng))
        layers.append(Tanh() if i % 2 == 0 else ReLU())
    layers[-1] = Identity()
    model = Sequential(*layers)
    model.eval()
    return model, dims[0]


@given(
    seed=st.integers(0, 2**31 - 1),
    n_layers=st.integers(1, 4),
    fmt_index=st.integers(0, 3),
    log_noise=st.integers(-6, -2),
)
@settings(max_examples=50, deadline=None)
def test_combined_bound_covers_achieved_error(seed, n_layers, fmt_index, log_noise):
    """Eq. (3) with a safety margin covers arbitrary random networks.

    The paper's quantization term is a CLT concentration estimate; for
    the narrow random layers generated here (a few tens of neurons) the
    fluctuation around the mean can exceed the paper-exact value, so this
    adversarial property test uses the library's ``quant_safety`` margin.
    The paper-exact default is validated on the trained workloads below
    and in the figure benchmarks.
    """
    rng = np.random.default_rng(seed)
    model, n_in = _random_mlp(rng, n_layers, width=24)
    fmt = _FORMATS[fmt_index]
    analyzer = ErrorFlowAnalyzer(model, quant_safety=2.0)
    quantized = quantize_model(model, fmt)

    x = rng.uniform(-1, 1, (32, n_in)).astype(np.float32)
    noise_amplitude = 10.0**log_noise
    noise = rng.uniform(-noise_amplitude, noise_amplitude, x.shape).astype(np.float32)

    reference = materialize(model)(x)
    perturbed = quantized(x + noise)
    achieved = np.linalg.norm(perturbed - reference, axis=1).max()
    input_l2 = np.linalg.norm(noise, axis=1).max()
    bound = analyzer.combined_bound(input_l2, fmt)
    assert achieved <= bound * (1 + 1e-6)


def test_quant_safety_scales_quantization_term(trained_spectral_mlp):
    paper_exact = ErrorFlowAnalyzer(trained_spectral_mlp)
    conservative = ErrorFlowAnalyzer(trained_spectral_mlp, quant_safety=2.0)
    assert conservative.quantization_bound(FP16) > paper_exact.quantization_bound(FP16)
    # the compression term is deterministic and unaffected
    assert conservative.compression_bound(1e-3) == paper_exact.compression_bound(1e-3)


def test_quant_safety_validation(trained_spectral_mlp):
    from repro.exceptions import ToleranceError

    with pytest.raises(ToleranceError):
        ErrorFlowAnalyzer(trained_spectral_mlp, quant_safety=0.0)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_compression_only_bound_covers_achieved(seed):
    rng = np.random.default_rng(seed)
    model, n_in = _random_mlp(rng, 3, width=20)
    analyzer = ErrorFlowAnalyzer(model)
    x = rng.uniform(-1, 1, (16, n_in)).astype(np.float32)
    noise = rng.uniform(-1e-3, 1e-3, x.shape).astype(np.float32)
    achieved = np.linalg.norm(model(x + noise) - model(x), axis=1).max()
    bound = analyzer.compression_bound(np.linalg.norm(noise, axis=1).max())
    assert achieved <= bound * (1 + 1e-6)


@pytest.mark.parametrize("fmt", _FORMATS, ids=lambda f: f.name)
def test_quantization_bound_on_trained_model(trained_spectral_mlp, fmt, rng):
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    quantized = quantize_model(trained_spectral_mlp, fmt)
    x = rng.uniform(-1, 1, (128, 5)).astype(np.float32)
    reference = materialize(trained_spectral_mlp)(x)
    achieved = np.linalg.norm(quantized(x) - reference, axis=1).max()
    bound = analyzer.quantization_bound(fmt)
    assert achieved <= bound
    # the bound should be meaningful, not vacuous: within ~2 orders here
    assert bound < max(achieved, 1e-12) * 200


def test_linf_bound_covers_linf_error(trained_spectral_mlp, rng):
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    quantized = quantize_model(trained_spectral_mlp, FP16)
    x = rng.uniform(-1, 1, (64, 5)).astype(np.float32)
    eps = 1e-3
    noise = rng.uniform(-eps, eps, x.shape).astype(np.float32)
    reference = materialize(trained_spectral_mlp)(x)
    achieved = np.abs(quantized(x + noise) - reference).max()
    assert achieved <= analyzer.combined_bound_linf(eps, FP16)


def test_per_feature_bounds_cover_per_feature_error(trained_spectral_mlp, rng):
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    quantized = quantize_model(trained_spectral_mlp, FP16)
    x = rng.uniform(-1, 1, (64, 5)).astype(np.float32)
    eps = 1e-4
    noise = rng.uniform(-eps, eps, x.shape).astype(np.float32)
    reference = materialize(trained_spectral_mlp)(x)
    per_feature_achieved = np.abs(quantized(x + noise) - reference).max(axis=0)
    input_l2 = np.linalg.norm(noise, axis=1).max()
    per_feature_bounds = analyzer.per_feature_bounds(input_l2, FP16)
    assert np.all(per_feature_achieved <= per_feature_bounds)


def test_per_feature_bounds_below_global(trained_spectral_mlp):
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    global_bound = analyzer.combined_bound(1e-3, FP16)
    per_feature = analyzer.per_feature_bounds(1e-3, FP16)
    assert np.all(per_feature <= global_bound + 1e-12)


def test_inversion_is_exact(trained_spectral_mlp):
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    tolerance = 10.0 * analyzer.quantization_bound(FP16)
    allowed = analyzer.invert_compression_tolerance(tolerance, FP16)
    assert analyzer.combined_bound(allowed, FP16) == pytest.approx(tolerance, rel=1e-9)


def test_inversion_rejects_infeasible(trained_spectral_mlp):
    from repro.exceptions import ToleranceError

    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    quant_bound = analyzer.quantization_bound(INT8)
    with pytest.raises(ToleranceError):
        analyzer.invert_compression_tolerance(quant_bound * 0.5, INT8)


# -- per-layer envelope soundness (audit layer substrate) --------------------


@given(
    fmt_index=st.integers(0, 3),
    log_noise=st.integers(-6, -2),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_layer_envelope_covers_observed_layerwise_error(
    trained_spectral_mlp, fmt_index, log_noise, seed
):
    """Property: at every segment end, the observed activation error of
    the perturbed quantized path stays under the cumulative Inequality
    (3) envelope — the soundness claim the audit layer enforces at
    runtime, across all Table-I formats and perturbation magnitudes.
    """
    from repro.obs.audit import LayerwiseErrorRecorder, VERDICT_VIOLATION

    fmt = _FORMATS[fmt_index]
    quantized = quantize_model(trained_spectral_mlp, fmt)
    recorder = LayerwiseErrorRecorder(trained_spectral_mlp, quantized)

    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (32, 5)).astype(np.float32)
    amplitude = 10.0**log_noise
    noise = rng.uniform(-amplitude, amplitude, x.shape).astype(np.float32)

    with recorder.capture():
        trained_spectral_mlp(x)
        quantized(x + noise)
    record = recorder.audit(x, x + noise)
    assert record.layerwise and len(record.layers) == 3
    for layer in record.layers:
        assert layer.verdict != VERDICT_VIOLATION
        assert layer.observed_l2 <= layer.predicted_bound * (1 + 1e-6)


def test_layer_envelope_matches_direct_trajectory(trained_spectral_mlp):
    """The analyzer's per-layer bounds equal the raw recurrence
    trajectory from :func:`propagate_chain_trajectory`."""
    from repro.core.bounds import propagate_chain_trajectory, step_sizes_for

    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    via_analyzer = analyzer.layer_bounds(1e-3, FP16)
    trajectory = propagate_chain_trajectory(
        analyzer.spec,
        input_error_l2=1e-3,
        steps=step_sizes_for(analyzer.spec, FP16),
    )
    assert via_analyzer == pytest.approx([state.delta for state in trajectory])


def test_layer_bounds_reject_residual_graphs(rng):
    from repro.exceptions import ConfigurationError
    from repro.nn.residual import ResidualBlock

    model = Sequential(
        Linear(4, 4, rng=rng),
        ResidualBlock(Sequential(Linear(4, 4, rng=rng), Tanh())),
        Identity(),
    )
    model.eval()
    analyzer = ErrorFlowAnalyzer(model)
    with pytest.raises(ConfigurationError):
        analyzer.layer_bounds(1e-3, FP16)
