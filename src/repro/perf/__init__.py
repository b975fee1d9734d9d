"""Performance layer: hardware models, caching and parallel execution.

* throughput models (:class:`IOModel`, :class:`ExecutionModel`) feed the
  planner's Fig. 10 trade-off;
* :mod:`~repro.perf.cache` memoizes the repeatedly evaluated analysis
  kernels (spectral norms, step sizes, Huffman decode tables);
* :mod:`~repro.perf.parallel` provides the order-preserving worker pool
  behind chunked I/O and ``InferencePipeline.execute_chunked``.
"""

from .cache import (
    Memo,
    array_fingerprint,
    cached_average_step_size,
    cached_spectral_norm,
    clear_all_caches,
    get_memo,
    registered_memos,
)
from .execmodel import ExecutionModel, StageBreakdown, measure_inference_seconds
from .hardware import GPU_PROFILES, MI250X, RTX3080TI, V100, GPUProfile, get_gpu
from .iomodel import DEFAULT_CODEC_SPEEDS, CodecSpeed, IOModel
from .parallel import WorkerPool, parallel_map, resolve_workers
from .timer import Stopwatch, Timer

__all__ = [
    "DEFAULT_CODEC_SPEEDS",
    "CodecSpeed",
    "ExecutionModel",
    "GPUProfile",
    "GPU_PROFILES",
    "IOModel",
    "MI250X",
    "Memo",
    "RTX3080TI",
    "StageBreakdown",
    "Stopwatch",
    "Timer",
    "V100",
    "WorkerPool",
    "array_fingerprint",
    "cached_average_step_size",
    "cached_spectral_norm",
    "clear_all_caches",
    "get_gpu",
    "get_memo",
    "measure_inference_seconds",
    "parallel_map",
    "registered_memos",
    "resolve_workers",
]
