#!/usr/bin/env python
"""Micro-benchmarks for the chunked-execution hot paths.

Four paths are timed and written in the unified ``benchutils`` row
shape (``{path, config, seconds, reps_s, throughput_mb_s}`` — record
with ``repro bench record`` to feed the regression history; see
docs/PERFORMANCE.md for how to read the output):

* ``huffman_decode``      — vectorized table-walk decoder vs the retained
  scalar ``_decode_reference`` on a peaked 1M-symbol stream;
* ``bound_eval``          — a planner-style format x fraction sweep with
  cold caches vs warm caches;
* ``pipeline_chunked``    — ``InferencePipeline.execute_chunked`` serial
  vs the supervised 4-worker process pool;
* ``pipeline_checkpoint`` — the same serial run with and without the
  durable checkpoint journal (journaling overhead).

Throughput numbers are hardware-dependent (the pool speedups in
particular require free cores — ``config.cpu_count`` records what was
available; on a 1-CPU host the process-pool row's ``overhead_vs_serial``
is the fault-free supervision+IPC cost instead of a speedup).  Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py [--quick] [--out BENCH_pr6.json]
"""

from __future__ import annotations

import argparse
import os
import tempfile

import numpy as np

from benchutils import best_of, finalize_rows, make_row, write_rows
from repro.compress.huffman import _decode_reference, huffman_decode, huffman_encode
from repro.compress.sz import SZCompressor
from repro.core.errorflow import ErrorFlowAnalyzer
from repro.core.pipeline import InferencePipeline
from repro.core.planner import TolerancePlanner
from repro.nn.activations import Tanh
from repro.nn.linear import Linear, SpectralLinear
from repro.nn.sequential import Sequential
from repro.perf.cache import clear_all_caches, get_memo
from repro.quant.formats import STANDARD_FORMATS


def bench_huffman(n_symbols: int, reps: int) -> list[dict]:
    rng = np.random.default_rng(0)
    # Peaked residual-like distribution: what the predictor stages emit.
    symbols = np.round(rng.normal(0.0, 0.7, size=n_symbols)).astype(np.int32)
    blob = huffman_encode(symbols)
    raw_mb = symbols.nbytes / 1e6

    assert np.array_equal(huffman_decode(blob), _decode_reference(blob))

    rows = []
    for impl, fn in (("scalar_reference", _decode_reference), ("vectorized", huffman_decode)):
        get_memo("huffman_tables").clear()
        seconds, reps_s = best_of(lambda fn=fn: fn(blob), reps)
        rows.append(
            make_row(
                "huffman_decode",
                {
                    "impl": impl,
                    "n_symbols": n_symbols,
                    "reps": reps,
                    "compressed_bytes": len(blob),
                },
                seconds,
                reps_s=reps_s,
                throughput_mb_s=raw_mb / seconds,
            )
        )
    speedup = rows[0]["seconds"] / rows[1]["seconds"]
    for row in rows:
        row["config"]["speedup_vs_scalar"] = speedup
    print(f"huffman_decode: scalar {rows[0]['seconds']*1e3:.1f} ms, "
          f"vectorized {rows[1]['seconds']*1e3:.1f} ms -> {speedup:.1f}x")
    return rows


def bench_bound_eval(reps: int) -> list[dict]:
    rng = np.random.default_rng(1)
    # Plain Linear layers: sigma comes from power iteration (the cached
    # kernel) rather than a SpectralLinear's exact alpha.
    model = Sequential(
        Linear(256, 1024, rng=rng), Tanh(),
        Linear(1024, 1024, rng=rng), Tanh(),
        Linear(1024, 8, rng=rng),
    )
    model.eval()
    formats = [STANDARD_FORMATS[name] for name in ("tf32", "fp16", "bf16", "int8")]
    fractions = [0.1 * k for k in range(1, 10)]

    def sweep() -> None:
        analyzer = ErrorFlowAnalyzer(model)
        planner = TolerancePlanner(analyzer)
        for fraction in fractions:
            planner.plan(1e-2, norm="linf", quant_fraction=fraction)
        for fmt in formats:
            analyzer.quantization_bound(fmt)
            analyzer.gain()

    def cold() -> None:
        clear_all_caches()
        sweep()

    def warm() -> None:
        sweep()

    n_evals = len(fractions) + 2 * len(formats)
    rows = []
    clear_all_caches()
    for state, fn in (("cold", cold), ("warm", warm)):
        seconds, reps_s = best_of(fn, reps)
        rows.append(
            make_row(
                "bound_eval",
                {"cache": state, "evaluations": n_evals, "reps": reps},
                seconds,
                reps_s=reps_s,
                throughput_mb_s=None,
            )
        )
    speedup = rows[0]["seconds"] / rows[1]["seconds"]
    for row in rows:
        row["config"]["speedup_vs_cold"] = speedup
    print(f"bound_eval: cold {rows[0]['seconds']*1e3:.1f} ms, "
          f"warm {rows[1]['seconds']*1e3:.1f} ms -> {speedup:.1f}x")
    return rows


def _chunked_pipeline_setup(side: int, workers: int):
    rng = np.random.default_rng(2)
    model = Sequential(
        SpectralLinear(5, 64, rng=rng), Tanh(), SpectralLinear(64, 1, rng=rng)
    )
    model.eval()
    x = np.linspace(0, 2 * np.pi, side)
    xx, yy = np.meshgrid(x, x)
    fields = np.stack(
        [np.sin((i + 1) * xx) * np.cos(yy) * 0.8 for i in range(5)]
    ).astype(np.float32)
    plan = TolerancePlanner(ErrorFlowAnalyzer(model)).plan(
        1e-2, norm="linf", quant_fraction=0.5
    )
    pipeline = InferencePipeline(model, SZCompressor(), plan)
    chunk_size = max(1, side // (2 * workers))
    return pipeline, fields, chunk_size


def bench_pipeline_chunked(side: int, workers: int, reps: int) -> list[dict]:
    pipeline, fields, chunk_size = _chunked_pipeline_setup(side, workers)
    mb = fields.nbytes / 1e6

    configs = [
        ("serial", dict(workers=1)),
        ("process", dict(workers=workers, executor="process")),
    ]
    rows = []
    for executor, kwargs in configs:
        seconds, reps_s = best_of(
            lambda kw=kwargs: pipeline.execute_chunked(
                fields, chunk_size=chunk_size, chunk_axis=1, **kw
            ),
            reps,
        )
        rows.append(
            make_row(
                "pipeline_chunked",
                {
                    "executor": executor,
                    "workers": kwargs.get("workers", 1),
                    "chunk_size": chunk_size,
                    "field_shape": list(fields.shape),
                    "reps": reps,
                },
                seconds,
                reps_s=reps_s,
                throughput_mb_s=mb / seconds,
            )
        )
    serial = rows[0]["seconds"]
    for row in rows:
        row["config"]["speedup_vs_serial"] = serial / row["seconds"]
        # > 0 means slower than serial: on a core-starved host this is
        # the pool's fault-free overhead (fork + IPC + supervision)
        row["config"]["overhead_vs_serial"] = row["seconds"] / serial - 1.0
    for row in rows:
        print(
            f"pipeline_chunked[{row['config']['executor']}]: "
            f"{row['seconds']*1e3:.1f} ms "
            f"({row['config']['speedup_vs_serial']:.2f}x vs serial)"
        )
    return rows


def bench_pipeline_checkpoint(side: int, workers: int, reps: int) -> list[dict]:
    pipeline, fields, chunk_size = _chunked_pipeline_setup(side, workers)
    mb = fields.nbytes / 1e6

    rows = []
    with tempfile.TemporaryDirectory() as scratch:
        configs = [
            ("off", dict()),
            # resume=False every rep: fresh journal, full write cost
            ("on", dict(checkpoint=os.path.join(scratch, "ck"))),
        ]
        for journal, kwargs in configs:
            seconds, reps_s = best_of(
                lambda kw=kwargs: pipeline.execute_chunked(
                    fields, chunk_size=chunk_size, chunk_axis=1, workers=1, **kw
                ),
                reps,
            )
            rows.append(
                make_row(
                    "pipeline_checkpoint",
                    {
                        "journal": journal,
                        "chunk_size": chunk_size,
                        "field_shape": list(fields.shape),
                        "reps": reps,
                    },
                    seconds,
                    reps_s=reps_s,
                    throughput_mb_s=mb / seconds,
                )
            )
    overhead = rows[1]["seconds"] / rows[0]["seconds"] - 1.0
    for row in rows:
        row["config"]["journal_overhead"] = overhead
    print(
        f"pipeline_checkpoint: off {rows[0]['seconds']*1e3:.1f} ms, "
        f"on {rows[1]['seconds']*1e3:.1f} ms -> {overhead*100:.1f}% overhead"
    )
    return rows


def bench_pipeline_distributed(side: int, reps: int) -> list[dict]:
    """Loopback coordinator + 2 in-thread worker agents vs serial.

    Measures the wire-protocol tax (framing, base64 artifacts, journal
    merge) with inline single-process pools on both workers, so the
    number is pure distribution overhead, not fork/IPC cost."""
    import threading

    from repro.distrib import DistribConfig, ShardWorker
    from repro.resilience import RetryPolicy

    pipeline, fields, chunk_size = _chunked_pipeline_setup(side, 2)
    mb = fields.nbytes / 1e6

    serial_seconds, serial_reps = best_of(
        lambda: pipeline.execute_chunked(
            fields, chunk_size=chunk_size, chunk_axis=1, workers=1
        ),
        reps,
    )

    def one_run():
        threads = []

        def launch(coordinator):
            host, port = coordinator.address

            def run_one(index):
                ShardWorker(
                    pipeline,
                    fields,
                    chunk_size,
                    chunk_axis=1,
                    name=f"bench-w{index}",
                    workers=1,
                    connect_retry=RetryPolicy(
                        max_retries=6, base_delay=0.02, max_delay=0.2, jitter=0.0
                    ),
                ).run(host, port)

            for index in range(2):
                thread = threading.Thread(
                    target=run_one, args=(index,), daemon=True
                )
                threads.append(thread)
                thread.start()

        pipeline.execute_chunked(
            fields,
            chunk_size=chunk_size,
            chunk_axis=1,
            executor="distributed",
            distrib=DistribConfig(
                port=0, lease_ttl=5.0, worker_wait=15.0,
                expect_workers=2, on_start=launch,
            ),
        )
        for thread in threads:
            thread.join(timeout=15.0)

    distributed_seconds, distributed_reps = best_of(one_run, reps)
    rows = [
        make_row(
            "pipeline_distributed",
            {
                "executor": executor,
                "workers": workers,
                "chunk_size": chunk_size,
                "field_shape": list(fields.shape),
                "reps": reps,
                "speedup_vs_serial": serial_seconds / seconds,
                "overhead_vs_serial": seconds / serial_seconds - 1.0,
            },
            seconds,
            reps_s=reps_s,
            throughput_mb_s=mb / seconds,
        )
        for executor, workers, seconds, reps_s in (
            ("serial", 1, serial_seconds, serial_reps),
            ("distributed", 2, distributed_seconds, distributed_reps),
        )
    ]
    overhead = distributed_seconds / serial_seconds - 1.0
    print(
        f"pipeline_distributed: serial {serial_seconds*1e3:.1f} ms, "
        f"loopback 2-worker {distributed_seconds*1e3:.1f} ms "
        f"-> {overhead*100:.1f}% overhead"
    )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller fields (CI smoke)")
    parser.add_argument("--out", default="BENCH_pr6.json")
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args(argv)

    # three reps even in quick mode: `repro bench diff` treats rows with
    # fewer (--min-reps) as sparse and doubles its threshold, which would
    # let the CI drift gate pass a 30% slowdown
    reps = 3
    n_symbols = 1_000_000
    side = 64 if args.quick else 128

    rows = []
    rows += bench_huffman(n_symbols, reps)
    rows += bench_bound_eval(reps)
    rows += bench_pipeline_chunked(side, args.workers, reps)
    rows += bench_pipeline_checkpoint(side, args.workers, reps)
    rows += bench_pipeline_distributed(side, reps)
    finalize_rows(rows, args.quick)
    write_rows(rows, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
