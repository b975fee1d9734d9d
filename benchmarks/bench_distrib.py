#!/usr/bin/env python
"""Loopback distributed-run benchmark: telemetry-plane overhead.

Times one coordinator + two in-process shard workers over loopback TCP
in three telemetry configurations and writes the unified ``benchutils``
row shape (``{path, config, seconds, throughput_mb_s}``):

* ``telemetry=off``       — tracing/metrics disabled, no endpoint;
* ``telemetry=on``        — tracing + metrics + worker METRICS pushes,
  no HTTP endpoint;
* ``telemetry=on_polled`` — everything on, ``/status`` + ``/metrics``
  polled over HTTP at 1 Hz for the whole run (still an order of magnitude
  hotter than a realistic 1-15 s scrape interval: every poll contends
  for the coordinator lock and the process's single GIL, so this is an
  upper bound on endpoint cost, not a typical one).

The headline number is ``endpoint_overhead_vs_on`` on the
``on_polled`` row: what serving + polling the HTTP endpoint adds on
top of a telemetry-enabled run — the two variants differ *only* in the
endpoint.  ``overhead_vs_off`` rows additionally price the whole ops
plane (tracing, span shipping, counter-delta pushes) against a dark
run.  Usage::

    PYTHONPATH=src python benchmarks/bench_distrib.py [--quick] [--out BENCH_pr8.json]
"""

from __future__ import annotations

import argparse
import threading
import time
import urllib.request

import numpy as np

from benchutils import finalize_rows, make_row, write_rows
from repro import obs
from repro.compress.sz import SZCompressor
from repro.core.errorflow import ErrorFlowAnalyzer
from repro.core.pipeline import InferencePipeline
from repro.core.planner import TolerancePlanner
from repro.distrib import DistribConfig, ShardWorker
from repro.nn.activations import Tanh
from repro.nn.linear import SpectralLinear
from repro.nn.sequential import Sequential
from repro.resilience import RetryPolicy, fork_available

FAST_CONNECT = RetryPolicy(max_retries=6, base_delay=0.02, max_delay=0.2, jitter=0.0)


def _setup(side: int):
    rng = np.random.default_rng(3)
    # Heavy enough that chunk compute, not pool/connect startup,
    # dominates the wall — overhead percentages are meaningless when
    # the baseline is mostly fixed cost.
    model = Sequential(
        SpectralLinear(5, 256, rng=rng), Tanh(),
        SpectralLinear(256, 256, rng=rng), Tanh(),
        SpectralLinear(256, 1, rng=rng),
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
    chunk_size = max(1, side // 16)
    return pipeline, fields, chunk_size


def _run_loopback(pipeline, fields, chunk_size, *, metrics_port, poll_hz):
    """One distributed run; returns wall seconds of execute_chunked."""
    threads = []
    stop = threading.Event()

    def launch(coordinator):
        host, port = coordinator.address
        if poll_hz and coordinator.metrics_address:
            mhost, mport = coordinator.metrics_address
            base = f"http://{mhost}:{mport}"

            def poll():
                while not stop.is_set():
                    try:
                        urllib.request.urlopen(f"{base}/status", timeout=2.0).read()
                        urllib.request.urlopen(f"{base}/metrics", timeout=2.0).read()
                    except OSError:
                        pass
                    time.sleep(1.0 / poll_hz)

            poller = threading.Thread(target=poll, daemon=True)
            threads.append(poller)
            poller.start()

        def run_one(index):
            ShardWorker(
                pipeline,
                fields,
                chunk_size,
                chunk_axis=1,
                name=f"w{index}",
                workers=2,
                connect_retry=FAST_CONNECT,
            ).run(host, port)

        for index in range(2):
            thread = threading.Thread(target=run_one, args=(index,), daemon=True)
            threads.append(thread)
            thread.start()

    config = DistribConfig(
        port=0,
        expect_workers=2,
        worker_wait=30.0,
        on_start=launch,
        metrics_port=metrics_port,
    )
    start = time.perf_counter()
    pipeline.execute_chunked(
        fields, chunk_size=chunk_size, chunk_axis=1,
        executor="distributed", distrib=config,
    )
    seconds = time.perf_counter() - start
    stop.set()
    for thread in threads:
        thread.join(timeout=10.0)
    return seconds


def bench_distrib(side: int, reps: int) -> list[dict]:
    pipeline, fields, chunk_size = _setup(side)
    mb = fields.nbytes / 1e6

    variants = [
        ("off", dict(telemetry=False, metrics_port=None, poll_hz=0)),
        ("on", dict(telemetry=True, metrics_port=None, poll_hz=0)),
        ("on_polled", dict(telemetry=True, metrics_port=0, poll_hz=1)),
    ]
    def timed(variant) -> float:
        if variant["telemetry"]:
            with obs.capture():
                return _run_loopback(
                    pipeline, fields, chunk_size,
                    metrics_port=variant["metrics_port"],
                    poll_hz=variant["poll_hz"],
                )
        return _run_loopback(
            pipeline, fields, chunk_size, metrics_port=None, poll_hz=0,
        )

    # Interleave variants within each rep (A B C, A B C, ...) so host
    # load drift lands on all three equally; best-of-reps then compares
    # like with like.  A sequential-block schedule on a busy 1-CPU host
    # reads drift as variant overhead.
    timed(variants[0][1])  # warmup: fork-pool + import costs
    times = {name: [] for name, _ in variants}
    for _ in range(reps):
        for name, variant in variants:
            times[name].append(timed(variant))

    rows = []
    for name, variant in variants:
        best = min(times[name])
        rows.append(
            make_row(
                "distrib_loopback",
                {
                    "telemetry": name,
                    "workers": 2,
                    "chunk_size": chunk_size,
                    "field_shape": list(fields.shape),
                    "poll_hz": variant["poll_hz"],
                    "reps": reps,
                },
                best,
                throughput_mb_s=mb / best,
            )
        )
    baseline = rows[0]["seconds"]
    telemetry_on = rows[1]["seconds"]
    for row in rows:
        row["config"]["overhead_vs_off"] = row["seconds"] / baseline - 1.0
        print(
            f"distrib_loopback[{row['config']['telemetry']}]: "
            f"{row['seconds']*1e3:.1f} ms "
            f"(overhead {row['config']['overhead_vs_off']*100:+.1f}%)"
        )
    endpoint = rows[2]["seconds"] / telemetry_on - 1.0
    rows[2]["config"]["endpoint_overhead_vs_on"] = endpoint
    print(f"endpoint overhead (on_polled vs on): {endpoint*100:+.1f}%")
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small field, 1 rep (CI smoke)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write JSON rows to FILE")
    args = parser.parse_args()
    if not fork_available():
        print("fork unavailable: shard workers need the supervised pool")
        return 1

    side = 32 if args.quick else 128
    reps = 1 if args.quick else 12
    rows = finalize_rows(bench_distrib(side, reps), args.quick)
    if args.out:
        write_rows(rows, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
