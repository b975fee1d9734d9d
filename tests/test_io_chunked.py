"""Tests for chunked array storage and the reporting helpers."""

import numpy as np
import pytest

from repro.compress import ErrorBoundMode
from repro.exceptions import CompressionError
from repro.io import (
    ChunkedArrayReader,
    ChunkedArrayWriter,
    DatasetStore,
    read_chunked,
    write_chunked,
)


@pytest.fixture
def snapshots(rng):
    """A (12, 32, 32) stack of smooth time frames."""
    grid = np.linspace(0, 2 * np.pi, 32)
    frames = [
        np.sin(grid[None, :] + 0.2 * t) * np.cos(grid[:, None]) for t in range(12)
    ]
    return np.stack(frames).astype(np.float32)


def test_chunked_roundtrip(tmp_path, snapshots):
    store = DatasetStore(str(tmp_path))
    n_chunks = write_chunked(store, "series", snapshots, tolerance=1e-3, chunk_size=5)
    assert n_chunks == 3  # 5 + 5 + 2
    loaded = read_chunked(store, "series")
    assert loaded.shape == snapshots.shape
    assert np.abs(loaded - snapshots).max() <= 1e-3


def test_chunked_reader_metadata(tmp_path, snapshots):
    store = DatasetStore(str(tmp_path))
    write_chunked(store, "series", snapshots, tolerance=1e-2, chunk_size=4)
    reader = ChunkedArrayReader(store, "series")
    assert reader.n_chunks == 3
    assert reader.shape == snapshots.shape
    chunk = reader.read_chunk(1)
    assert chunk.shape == (4, 32, 32)
    assert np.abs(chunk - snapshots[4:8]).max() <= 1e-2


def test_chunked_partial_read_is_independent(tmp_path, snapshots):
    """Reading one chunk must not decompress the others."""
    store = DatasetStore(str(tmp_path))
    write_chunked(store, "series", snapshots, tolerance=1e-3, chunk_size=6)
    reader = ChunkedArrayReader(store, "series")
    store.delete("series.c0001")  # destroy the second chunk
    first = reader.read_chunk(0)  # still loads fine
    assert first.shape == (6, 32, 32)
    with pytest.raises(CompressionError):
        reader.read_chunk(1)


def test_chunked_rejects_l2_mode(tmp_path, snapshots):
    store = DatasetStore(str(tmp_path))
    with pytest.raises(CompressionError):
        ChunkedArrayWriter(store, "x", 1e-3, mode=ErrorBoundMode.L2_ABS)


def test_chunked_rejects_inconsistent_chunks(tmp_path, rng):
    store = DatasetStore(str(tmp_path))
    writer = ChunkedArrayWriter(store, "x", 1e-3)
    writer.append(rng.standard_normal((2, 8, 8)))
    with pytest.raises(CompressionError):
        writer.append(rng.standard_normal((2, 9, 9)))


def test_chunked_requires_data(tmp_path):
    store = DatasetStore(str(tmp_path))
    writer = ChunkedArrayWriter(store, "empty", 1e-3)
    with pytest.raises(CompressionError):
        writer.close()


def test_chunked_missing_manifest(tmp_path):
    store = DatasetStore(str(tmp_path))
    with pytest.raises(CompressionError):
        ChunkedArrayReader(store, "nothing")


def test_chunked_bad_chunk_size(tmp_path, snapshots):
    store = DatasetStore(str(tmp_path))
    with pytest.raises(CompressionError):
        write_chunked(store, "x", snapshots, tolerance=1e-3, chunk_size=0)


# -- reporting helpers -------------------------------------------------------------


def test_describe_model(trained_spectral_mlp):
    from repro.reporting import describe_model

    text = describe_model(trained_spectral_mlp)
    assert "SpectralLinear" in text
    assert "sigma" in text
    assert "q fp16" in text
    assert len(text.splitlines()) == 5  # header + 3 layers + totals


def test_describe_model_prints_the_analyzer_sigma(tiny_mlp):
    """The sigma column is the one the error-flow analyzer uses."""
    from repro.core import ErrorFlowAnalyzer
    from repro.reporting import describe_model

    rows = describe_model(tiny_mlp).splitlines()[1:-1]
    printed = [float(row.split()[-3]) for row in rows]
    expected = ErrorFlowAnalyzer(tiny_mlp).layer_sigmas()
    assert printed == [float(f"{sigma:.3f}") for sigma in expected]


def test_describe_analysis(trained_spectral_mlp):
    from repro.core import ErrorFlowAnalyzer
    from repro.reporting import describe_analysis

    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    text = describe_analysis(analyzer, reference_norm=2.0)
    assert "Eq.(5) gain" in text
    assert "int8" in text
    assert "relative" in text


def test_h2_temporal_snapshots_compress_better():
    """Temporal coherence is exploitable by the codecs."""
    from repro.compress import ErrorBoundMode, SZCompressor
    from repro.datasets import make_h2_combustion

    single = make_h2_combustion(grid=32, rng=np.random.default_rng(1))
    multi = make_h2_combustion(grid=32, rng=np.random.default_rng(1), n_snapshots=4)
    assert multi.fields.shape == (9, 4, 32, 32)
    codec = SZCompressor()
    ratio_multi = codec.compress(
        multi.fields, 1e-3, ErrorBoundMode.ABS
    ).compression_ratio
    ratio_single = codec.compress(
        single.fields, 1e-3, ErrorBoundMode.ABS
    ).compression_ratio
    assert ratio_multi > ratio_single * 0.95  # never meaningfully worse
