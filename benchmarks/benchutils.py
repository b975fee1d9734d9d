"""Shared row schema and timing helpers for the ``bench_*.py`` scripts.

Every benchmark in this directory emits the same JSON row shape::

    {"path": ..., "config": {...}, "seconds": best, "throughput_*": ...}

``seconds`` is the best-of-reps wall time (robust to scheduler noise,
what the CI speedup gates assert).  ``config`` holds the identity of
what was measured plus derived outcomes (speedups, overheads).
"""

from __future__ import annotations

import json
import os
import time


def best_of(fn, reps: int) -> float:
    """Best wall time over ``reps`` calls (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def make_row(
    path: str,
    config: dict,
    seconds: float,
    **throughputs,
) -> dict:
    """One unified bench row; throughput fields pass through by name
    (``throughput_mb_s=...``, ``throughput_samples_s=...``)."""
    row = {"path": path, "config": dict(config), "seconds": float(seconds)}
    for field, value in throughputs.items():
        if not field.startswith("throughput"):
            raise ValueError(f"throughput field must start with 'throughput', got {field!r}")
        row[field] = value
    return row


def finalize_rows(rows: "list[dict]", quick: bool) -> "list[dict]":
    """Stamp host shape + quick mode onto every row's config (in place)."""
    for row in rows:
        row["config"]["cpu_count"] = os.cpu_count()
        row["config"]["quick"] = bool(quick)
    return rows


def write_rows(rows: "list[dict]", out: str) -> None:
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=2)
        handle.write("\n")
    print(f"wrote {len(rows)} rows to {out}")
