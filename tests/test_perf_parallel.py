"""Tests for the worker pool and the parallel chunked paths it powers."""

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.compress.sz import SZCompressor
from repro.core.errorflow import ErrorFlowAnalyzer
from repro.core.pipeline import InferencePipeline
from repro.core.planner import TolerancePlanner
from repro.exceptions import PlanningError
from repro.io import DatasetStore, read_chunked, write_chunked
from repro.perf.parallel import WorkerPool, parallel_map, resolve_workers


# -- resolve_workers ------------------------------------------------------------


def test_resolve_workers():
    assert resolve_workers(None) == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers(0) >= 1  # one per CPU
    assert resolve_workers(-1) >= 1


# -- parallel_map ---------------------------------------------------------------


def test_parallel_map_preserves_order():
    def slow_negate(x):
        time.sleep(0.01 * (5 - x % 5))  # later items finish first
        return -x

    items = list(range(20))
    assert parallel_map(slow_negate, items, workers=4) == [-x for x in items]


def test_parallel_map_matches_serial():
    items = list(range(50))
    serial = parallel_map(lambda x: x * x, items, workers=1)
    parallel = parallel_map(lambda x: x * x, items, workers=4)
    assert serial == parallel == [x * x for x in items]


def test_parallel_map_serial_path_runs_inline():
    thread_names = []
    parallel_map(lambda _: thread_names.append(threading.current_thread().name), [1, 2], workers=1)
    assert thread_names == [threading.current_thread().name] * 2


def test_parallel_map_fail_fast():
    def boom(x):
        if x == 3:
            raise ValueError("task 3 failed")
        return x

    with pytest.raises(ValueError, match="task 3 failed"):
        parallel_map(boom, range(6), workers=2)


def test_parallel_map_cancels_pending_on_failure():
    """Fail-fast: once a task fails, queued-but-unstarted tasks are
    cancelled instead of being run to completion."""
    executed = []
    timed_out = []
    gate = threading.Event()

    def task(x):
        if x == 1:
            raise ValueError("early failure")
        # every non-failing task blocks until cancellation has happened,
        # so the workers cannot race through the queue before the main
        # thread wakes to cancel it
        if not gate.wait(10.0):
            timed_out.append(x)
        executed.append(x)
        return x

    with obs.capture() as (_tracer, metrics):
        def release_once_cancelled():
            for _ in range(2000):
                if metrics.value("pool_tasks_cancelled_total", pool="probe") > 0:
                    break
                time.sleep(0.005)
            gate.set()

        watcher = threading.Thread(target=release_once_cancelled, daemon=True)
        watcher.start()
        with pytest.raises(ValueError, match="early failure"):
            try:
                parallel_map(task, range(40), workers=2, label="probe")
            finally:
                gate.set()
        watcher.join(5.0)
        cancelled = metrics.value("pool_tasks_cancelled_total", pool="probe")
    # both workers are parked on the gate after the failure, so at most
    # tasks 0 and 2 ever start — the rest of the queue must be cancelled
    assert cancelled >= 37
    assert len(executed) <= 2
    assert not timed_out  # the gate opened on the counter, not on timeout


def test_parallel_map_earliest_failure_wins():
    """When several tasks fail, the earliest-submitted failure is raised."""
    def boom(x):
        time.sleep(0.01 * (4 - x))  # later tasks fail *sooner*
        raise ValueError(f"task {x} failed")

    with pytest.raises(ValueError, match="task 0 failed"):
        parallel_map(boom, range(4), workers=4)


def test_parallel_map_records_pool_metrics():
    with obs.capture() as (_tracer, metrics):
        parallel_map(lambda x: x, range(8), workers=2, label="probe")
    assert metrics.value("pool_tasks_total", pool="probe") == 8
    assert metrics.value("pool_workers", pool="probe") == 2
    assert 0.0 < metrics.value("pool_utilization", pool="probe") <= 1.0


def test_parallel_map_traces_worker_spans():
    with obs.capture() as (tracer, _metrics):
        parallel_map(lambda x: x, range(4), workers=2, label="probe")
    spans = [s for s in tracer.finished if s.name == "pool.task"]
    assert len(spans) == 4
    assert sorted(s.attributes["index"] for s in spans) == [0, 1, 2, 3]
    assert all(s.attributes["pool"] == "probe" for s in spans)


# -- WorkerPool -----------------------------------------------------------------


def test_worker_pool_drain_propagates_failure():
    def boom(_):
        raise RuntimeError("chunk store failed")

    pool = WorkerPool(workers=2)
    pool.submit(boom, None)
    with pytest.raises(RuntimeError, match="chunk store failed"):
        pool.drain()
    pool.shutdown()


def test_worker_pool_drain_cancels_pending_on_failure():
    executed = []
    timed_out = []
    gate = threading.Event()

    def task(x):
        if x == 1:
            raise RuntimeError("first chunk failed")
        # park the workers until the backlog is cancelled
        if not gate.wait(10.0):
            timed_out.append(x)
        executed.append(x)

    with obs.capture() as (_tracer, metrics):
        pool = WorkerPool(workers=2, label="probe")
        for i in range(40):
            pool.submit(task, i)

        def release_once_cancelled():
            for _ in range(2000):
                if metrics.value("pool_tasks_cancelled_total", pool="probe") > 0:
                    break
                time.sleep(0.005)
            gate.set()

        watcher = threading.Thread(target=release_once_cancelled, daemon=True)
        watcher.start()
        with pytest.raises(RuntimeError, match="first chunk failed"):
            try:
                pool.drain()
            finally:
                gate.set()
        watcher.join(5.0)
    pool.shutdown()
    assert len(executed) <= 2  # the backlog was cancelled, not drained
    assert not timed_out  # the gate opened on the counter, not on timeout


def test_worker_pool_serial_runs_inline():
    seen = []
    pool = WorkerPool(workers=1)
    assert not pool.is_parallel
    pool.submit(seen.append, 7)
    assert seen == [7]  # ran at submit time, no drain needed
    pool.drain()
    pool.shutdown()


def test_worker_pool_context_manager_drains():
    done = []
    with WorkerPool(workers=2) as pool:
        for i in range(5):
            pool.submit(lambda x: (time.sleep(0.01), done.append(x)), i)
    assert sorted(done) == [0, 1, 2, 3, 4]


# -- chunked I/O with workers ---------------------------------------------------


@pytest.fixture
def snapshots(rng):
    grid = np.linspace(0, 2 * np.pi, 24)
    frames = [
        np.sin(grid[None, :] + 0.2 * t) * np.cos(grid[:, None]) for t in range(10)
    ]
    return np.stack(frames).astype(np.float32)


def test_chunked_io_parallel_serial_parity(tmp_path, snapshots):
    serial_store = DatasetStore(str(tmp_path / "serial"))
    parallel_store = DatasetStore(str(tmp_path / "parallel"))
    n_serial = write_chunked(serial_store, "a", snapshots, 1e-3, chunk_size=3)
    n_parallel = write_chunked(
        parallel_store, "a", snapshots, 1e-3, chunk_size=3, workers=4
    )
    assert n_serial == n_parallel
    serial = read_chunked(serial_store, "a")
    parallel = read_chunked(parallel_store, "a", workers=4)
    assert np.array_equal(serial, parallel)
    assert np.abs(parallel - snapshots).max() <= 1e-3


def test_chunked_writer_failure_leaves_no_manifest(tmp_path, snapshots):
    store = DatasetStore(str(tmp_path))
    from repro.io.chunked import ChunkedArrayWriter

    writer = ChunkedArrayWriter(store, "bad", tolerance=1e-3, workers=2)
    writer.append(snapshots[:3])
    writer._pool.submit(lambda _: 1 / 0, None)  # poison the queue
    with pytest.raises(ZeroDivisionError):
        writer.close()
    assert not (tmp_path / ("bad" + ".manifest.json")).exists()


# -- InferencePipeline.execute_chunked ------------------------------------------


@pytest.fixture
def pipeline_setup(trained_spectral_mlp):
    x = np.linspace(0, 2 * np.pi, 32)
    xx, yy = np.meshgrid(x, x)
    fields = np.stack(
        [np.sin((i + 1) * xx) * np.cos(yy) * 0.8 for i in range(5)]
    ).astype(np.float32)
    planner = TolerancePlanner(ErrorFlowAnalyzer(trained_spectral_mlp))
    return trained_spectral_mlp, fields, planner


def test_execute_chunked_parallel_matches_serial(pipeline_setup):
    model, fields, planner = pipeline_setup
    plan = planner.plan(1e-2, norm="linf", quant_fraction=0.5)
    pipeline = InferencePipeline(model, SZCompressor(), plan)
    serial = pipeline.execute_chunked(fields, chunk_size=8, chunk_axis=1, workers=1)
    parallel = pipeline.execute_chunked(fields, chunk_size=8, chunk_axis=1, workers=4)
    assert np.array_equal(serial.outputs, parallel.outputs)
    assert np.array_equal(serial.reference_outputs, parallel.reference_outputs)
    assert serial.extra["chunked"]["n_chunks"] == 4
    assert parallel.extra["chunked"]["workers"] == 4


def test_execute_chunked_honours_tolerance(pipeline_setup):
    model, fields, planner = pipeline_setup
    tolerance = 1e-2
    plan = planner.plan(tolerance, norm="linf", quant_fraction=0.5)
    pipeline = InferencePipeline(model, SZCompressor(), plan)
    result = pipeline.execute_chunked(fields, chunk_size=8, chunk_axis=1, workers=2)
    assert result.outputs.shape == (32 * 32, 3)
    assert result.qoi_error("linf", relative=False) <= tolerance
    assert result.input_error_linf <= plan.input_tolerance
    assert result.extra["chunked"]["compression_ratio"] > 1.0


def test_execute_chunked_output_shape_matches_unchunked(pipeline_setup):
    model, fields, planner = pipeline_setup
    plan = planner.plan(1e-2, norm="linf", quant_fraction=0.5)
    pipeline = InferencePipeline(model, SZCompressor(), plan)
    whole = pipeline.execute(fields)
    chunked = pipeline.execute_chunked(fields, chunk_size=8, chunk_axis=1)
    assert chunked.outputs.shape == whole.outputs.shape
    # References are computed on uncompressed data: identical either way.
    assert np.allclose(
        chunked.reference_outputs, whole.reference_outputs, atol=1e-6
    )


def test_execute_chunked_rejects_l2_plans(pipeline_setup):
    model, fields, planner = pipeline_setup
    plan = planner.plan(5e-2, norm="l2", quant_fraction=0.5)
    pipeline = InferencePipeline(model, SZCompressor(), plan)
    with pytest.raises(PlanningError):
        pipeline.execute_chunked(fields, chunk_size=8, chunk_axis=1)


def test_execute_chunked_rejects_bad_chunk_size(pipeline_setup):
    model, fields, planner = pipeline_setup
    plan = planner.plan(1e-2, norm="linf", quant_fraction=0.5)
    pipeline = InferencePipeline(model, SZCompressor(), plan)
    with pytest.raises(PlanningError):
        pipeline.execute_chunked(fields, chunk_size=0)
