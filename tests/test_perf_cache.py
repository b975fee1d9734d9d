"""Tests for the content-keyed memoization layer (repro.perf.cache)."""

import numpy as np
import pytest

from repro import obs
from repro.core.errorflow import ErrorFlowAnalyzer
from repro.core.planner import TolerancePlanner
from repro.nn import SGD, Linear, Sequential, Tanh
from repro.nn.spectral import spectral_norm
from repro.perf.cache import (
    Memo,
    array_fingerprint,
    cached_average_step_size,
    cached_spectral_norm,
    clear_all_caches,
    get_memo,
    registered_memos,
)
from repro.quant.formats import STANDARD_FORMATS
from repro.quant.stepsize import average_step_size


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_all_caches()
    yield
    clear_all_caches()


# -- Memo -----------------------------------------------------------------------


def test_memo_hit_miss_counting():
    memo = Memo("t", maxsize=4)
    calls = []
    assert memo.get("a", lambda: calls.append(1) or 41) == 41
    assert memo.get("a", lambda: calls.append(1) or 42) == 41
    assert memo.hits == 1 and memo.misses == 1
    assert len(calls) == 1


def test_memo_lru_eviction():
    memo = Memo("t", maxsize=2)
    memo.get("a", lambda: 1)
    memo.get("b", lambda: 2)
    memo.get("a", lambda: -1)  # refresh a; b is now least-recent
    memo.get("c", lambda: 3)  # evicts b
    assert memo.get("a", lambda: -1) == 1
    assert memo.get("b", lambda: 20) == 20  # recomputed after eviction
    assert len(memo) == 2


def test_memo_clear_keeps_totals():
    memo = Memo("t")
    memo.get("a", lambda: 1)
    memo.get("a", lambda: 1)
    memo.clear()
    assert len(memo) == 0
    assert memo.stats()["hits"] == 1 and memo.stats()["misses"] == 1
    memo.get("a", lambda: 2)
    assert memo.misses == 2


def test_memo_rejects_bad_maxsize():
    with pytest.raises(ValueError):
        Memo("t", maxsize=0)


def test_memo_mirrors_metrics_counters():
    with obs.capture() as (_tracer, metrics):
        memo = Memo("mirror_test")
        memo.get("k", lambda: 1)
        memo.get("k", lambda: 1)
        memo.get("k", lambda: 1)
    assert metrics.value("cache_misses_total", cache="mirror_test") == 1
    assert metrics.value("cache_hits_total", cache="mirror_test") == 2


def test_get_memo_registry():
    memo = get_memo("registry_probe")
    assert get_memo("registry_probe") is memo
    assert registered_memos()["registry_probe"] is memo


# -- array fingerprint ----------------------------------------------------------


def test_fingerprint_stable_and_content_sensitive(rng):
    a = rng.standard_normal((8, 8))
    assert array_fingerprint(a) == array_fingerprint(a.copy())
    b = a.copy()
    b[3, 3] += 1e-12
    assert array_fingerprint(a) != array_fingerprint(b)


def test_fingerprint_distinguishes_shape_and_dtype(rng):
    a = rng.standard_normal(16)
    assert array_fingerprint(a) != array_fingerprint(a.reshape(4, 4))
    zeros64 = np.zeros(4, dtype=np.float64)
    zeros8 = np.zeros(32, dtype=np.uint8)  # identical bytes
    assert array_fingerprint(zeros64) != array_fingerprint(zeros8)


def test_fingerprint_handles_noncontiguous(rng):
    a = rng.standard_normal((8, 8))
    assert array_fingerprint(a[:, ::2]) == array_fingerprint(a[:, ::2].copy())


# -- cached kernels -------------------------------------------------------------


def test_cached_spectral_norm_matches_and_hits(rng):
    w = rng.standard_normal((12, 10))
    assert cached_spectral_norm(w) == pytest.approx(spectral_norm(w), rel=1e-12)
    before = get_memo("spectral_norm").hits
    cached_spectral_norm(w.copy())
    assert get_memo("spectral_norm").hits == before + 1


def test_cached_step_size_keyed_by_format(rng):
    w = rng.standard_normal((6, 6))
    fp16, bf16 = STANDARD_FORMATS["fp16"], STANDARD_FORMATS["bf16"]
    miss0 = get_memo("step_size").misses
    assert cached_average_step_size(w, fp16) == pytest.approx(
        average_step_size(w, fp16)
    )
    assert cached_average_step_size(w, bf16) == pytest.approx(
        average_step_size(w, bf16)
    )
    # distinct formats over the same weights are distinct entries
    assert get_memo("step_size").misses - miss0 == 2


# -- parameter versioning + analyzer invalidation -------------------------------


def _plain_mlp(rng):
    return Sequential(
        Linear(6, 16, rng=rng), Tanh(), Linear(16, 16, rng=rng), Tanh(),
        Linear(16, 3, rng=rng),
    )


def test_weight_version_counts_assignments(rng):
    model = _plain_mlp(rng)
    v0 = model.weight_version()
    params = list(model.parameters())
    params[0].data = params[0].data * 1.0
    assert model.weight_version() == v0 + 1
    params[1].bump_version()
    assert model.weight_version() == v0 + 2


def test_optimizer_step_bumps_versions(rng):
    model = _plain_mlp(rng)
    v0 = model.weight_version()
    x = rng.standard_normal((4, 6)).astype(np.float32)
    out = model(x)
    model.backward(np.ones_like(out))
    SGD(model.parameters(), lr=0.01).step()
    assert model.weight_version() > v0


def test_planner_sweep_one_power_iteration_per_layer_per_version(rng):
    """The ISSUE 4 acceptance check: a full format x fraction sweep runs
    exactly one power-iteration pass per layer per weight version."""
    model = _plain_mlp(rng)
    model.eval()
    n_layers = 3
    memo = get_memo("spectral_norm")
    miss0, hit0 = memo.misses, memo.hits  # totals persist across tests

    analyzer = ErrorFlowAnalyzer(model)
    planner = TolerancePlanner(analyzer)
    for fraction in (0.2, 0.4, 0.6, 0.8):
        planner.plan(1e-2, norm="linf", quant_fraction=fraction)
    for name in ("tf32", "fp16", "bf16", "int8"):
        analyzer.quantization_bound(STANDARD_FORMATS[name])
    # one pass per layer; everything downstream reuses it
    assert memo.misses - miss0 == n_layers
    assert memo.hits == hit0  # analyzer memoizes bounds; no re-extraction

    # A weight update starts a new version: exactly one more pass per layer.
    x = rng.standard_normal((8, 6)).astype(np.float32)
    model.train()  # eval forwards keep no state for backward
    out = model(x)
    model.backward(np.ones_like(out))
    SGD(list(model.parameters()), lr=0.05).step()
    model.eval()
    analyzer.quantization_bound(STANDARD_FORMATS["fp16"])
    assert memo.misses - miss0 == 2 * n_layers
    planner.plan(1e-2, norm="linf", quant_fraction=0.5)
    assert memo.misses - miss0 == 2 * n_layers


def test_analyzer_bounds_refresh_after_step(rng):
    model = _plain_mlp(rng)
    model.eval()
    analyzer = ErrorFlowAnalyzer(model)
    fmt = STANDARD_FORMATS["fp16"]
    before = analyzer.quantization_bound(fmt)
    gain_before = analyzer.gain()

    x = rng.standard_normal((8, 6)).astype(np.float32)
    model.train()  # eval forwards keep no state for backward
    out = model(x)
    model.backward(np.ones_like(out))
    SGD(model.parameters(), lr=0.5).step()  # large step: bounds must move
    model.eval()

    after = analyzer.quantization_bound(fmt)
    assert after != before
    assert analyzer.gain() != gain_before
    # And the refreshed values are what a fresh analyzer computes.
    fresh = ErrorFlowAnalyzer(model)
    assert after == pytest.approx(fresh.quantization_bound(fmt), rel=1e-12)


def test_analyzer_memo_hits_on_repeat_evaluation(rng):
    model = _plain_mlp(rng)
    analyzer = ErrorFlowAnalyzer(model)
    fmt = STANDARD_FORMATS["int8"]
    memo = get_memo("bound_eval")
    analyzer.quantization_bound(fmt)
    misses, hits = memo.misses, memo.hits
    for _ in range(5):
        analyzer.quantization_bound(fmt)
    assert memo.misses == misses
    assert memo.hits - hits == 5


def test_calibration_invalidates_bound_memo(rng):
    model = _plain_mlp(rng)
    model.eval()
    analyzer = ErrorFlowAnalyzer(model)
    fmt = STANDARD_FORMATS["fp16"]
    uncalibrated = analyzer.quantization_bound(fmt)
    analyzer.calibrate(rng.uniform(-1, 1, (64, 6)).astype(np.float32))
    calibrated = analyzer.quantization_bound(fmt)
    assert calibrated < uncalibrated  # tighter with measured signals
    analyzer.decalibrate()
    assert analyzer.quantization_bound(fmt) == pytest.approx(uncalibrated)
