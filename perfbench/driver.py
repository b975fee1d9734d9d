"""End-to-end benchmark of one error-bounded inference run.

The unit of work is the paper's Fig. 1 run on a field of realistic size:
plan -> compress -> decompress -> quantized inference -> guard (and, on
one workload, audit).  Every op goes through the public API
(``load_workload``, ``TolerancePlanner``, ``InferencePipeline.execute`` /
``execute_chunked``) with the default backend; tracing, metrics, the
profiler and chaos injection stay off.  Usage::

    python3 perfbench/run.py --workload h2-codec-sweep --seed 1 --seconds 25 --trace 0

Workloads (a closed loop of one caller; each op gets a fresh seeded
snapshot and no snapshot repeats within a run, so in-situ data never hits
a warm ``huffman_tables`` entry by accident):

``h2-codec-sweep``
    h2combustion PSN model (9-50-50-9) on fresh 9x128x128 float32
    snapshots (590 KB, 16384 samples).  Op ``i`` calls ``execute`` with
    cell ``i mod 10`` of SZ/MGARD x linf/l2 x {1e-2, 1e-3} plus ZFP x linf
    x {1e-2, 1e-3}.  The codecs are almost the whole op and the forward a
    few percent, so this workload shows codec changes and is the
    no-change check for nn and planner changes.
``borghesi-plan-audit``
    borghesi PSN model (13 -> 8x64 -> 3) on fresh 13x64x64 snapshots.  Op
    ``i`` plans cell ``i mod 4`` of {1e-1, 3e-2} x quant fraction
    {0.5, 0.9} (the planner picks fp16 or fp32), builds a new SZ
    ``InferencePipeline`` and runs ``execute`` under ``audit_capture`` --
    the ``repro audit record`` path.  Audit, quantize and forward
    outweigh the codec here, so it shows interpreter, backend,
    quantizer, planner and audit changes.
``h2-chunked-journal``
    The h2 model and snapshot size with an SZ linf 1e-2 plan.  Op calls
    ``execute_chunked(chunk_size=16, chunk_axis=1, workers=2,
    executor="auto")`` (8 chunks) with a fresh checkpoint directory.  On
    two or more cores ``auto`` picks the supervised fork pool, so this is
    the only workload that runs the pool and the durable journal; it
    shows executor and journal changes.

``repro.distrib`` has no workload: scale-out is parked, and a loopback
run on two cores would measure the scheduler, not the system.

End-to-end metrics (``--trace 0``):

* ``setup_s`` -- load the models from the benchmark's weight cache, build
  the plans and pipelines (quantize included) and run one warm-up op,
  which compiles the forward kernels into an empty compile cache.
  Measured in fresh processes (``SETUP_PROBES`` of them, median), so
  in-process memos and the compile cache start cold every time.
  Training and snapshot generation are outside the timer.
* ``throughput_mb_s`` -- float32 source-field MB (1e6 bytes) over the
  summed op wall time.
* ``op_ms_p50`` / ``op_ms_p90`` -- per-op wall time; the sample count and
  the number of samples beyond p90 are printed on stderr.
* ``compression_ratio`` -- source bytes over blob payload bytes, taken over
  the first ``Workload.ratio_ops`` ops so it is a function of the seed
  alone.
* ``peak_rss_mb`` -- max RSS of this process and of its reaped children
  (setup probes, pool workers).

The measured loop runs whole rounds of the cell cycle until the op time
reaches ``--seconds``, so every cell is equally represented in each
percentile.  Each op counts as failed (never retried) when its outputs
are non-finite, its absolute QoI error in the plan norm exceeds the
requested tolerance against an FP32 reference the benchmark computes
itself outside the timer, it raises ``ContractViolation``, or (plan-audit)
its audit record is missing or says ``VIOLATION``.  At setup the chunked
workload's pool outputs must equal a serial ``execute_chunked`` bit for
bit.  Any failure prints ``"correct": false`` and exits 1.

Per-layer metrics (``--trace 1``) come from a separate run that wraps
each layer's public callables from :mod:`ledger`; rounds alternate
untraced and traced, and ``trace.overhead`` compares their medians.
Busy time is the per-op mean of a layer's spans; self time subtracts
child spans.  Which e2e metric each layer should move, and where:

==========================  ====================================  ============================
layer metric                moves                                 on workload
==========================  ====================================  ============================
compress.* (encode/decode,  op_ms_p50, op_ms_p90,                 codec sweep, chunked journal
huffman, pack_codes)        throughput_mb_s                       (little on plan-audit)
compress.symbols, bytes     compression_ratio (only if bytes      all
                            change)
nn.forward_ms, quant.*      op_ms_p50                             plan-audit; setup_s elsewhere
core.plan_ms, bound_eval    op_ms_p50                             plan-audit; setup_s elsewhere
core.tightness_p50          compression_ratio                     plan-audit
audit.audit_ms              op_ms_p50                             plan-audit
resilience.pool_ms          op_ms_p50, op_ms_p90                  chunked journal
resilience.guard_ms         (small everywhere)                    all
io.journal_ms               op_ms_p50                             chunked journal
pipeline.ctor_ms            op_ms_p50; setup_s                    plan-audit; others
==========================  ====================================  ============================

A faster layer saves at most its share of the op.  Traced shares on a
2-core x86 VM (numpy 2.4, OpenBLAS, no numba), 25 s runs:

* codec sweep (~380 ms/op): compress 96% (encode 65%, decode 31%),
  ``huffman_encode`` 56% (``pack_codes`` 35%), ``huffman_decode`` 30%,
  forward 3%, coverage 99%;
* plan-audit (~220 ms/op): audit 38%, forward 16%, quantize 15%
  (inside the 15% pipeline constructor), compress 30% with
  ``huffman_encode`` 15%, coverage 99%;
* chunked journal (~490 ms/op): parent-side pool run 98%, journal
  writes 12% inside it, coverage 99%.

So a 5x Huffman encoder cuts a codec-sweep op by at most ~45% and a
plan-audit op by at most ~12%, and a free forward pass could move the
codec sweep by no more than ~3%.

Time budget: the contract runs 4 + 22 x 3 runs in under an hour, which
caps ``--seconds`` near 25.  A codec-sweep op is ~0.4 s and a chunked op
~0.45 s, so those runs hold ~55-70 ops and their p90 rests on 5-7
samples beyond it instead of 10; plan-audit holds ~110 ops (11 beyond).

Bounds (``BENCHMARK.json``) are 0.25 on every time: over ten seeds the
VM's runs spread 5-20% (quartile distance over median), and a fixed
numpy loop alone drifts ~10% between runs there, so tighter bounds would
flag the host.  Ratio and RSS repeat within 2%.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from ledger import SpanLedger, busy_seconds, layer_patches, self_seconds
from repro import InferencePipeline, TolerancePlanner, load_workload
from repro.compress import MGARDCompressor, SZCompressor, ZFPCompressor
from repro.datasets import make_borghesi_flame, make_h2_combustion
from repro.exceptions import ContractViolation
from repro.obs import audit_capture
from repro.obs.audit import VERDICT_LOOSE, VERDICT_VIOLATION
from repro.perf.cache import registered_memos
from repro.perf.iomodel import DEFAULT_CODEC_SPEEDS

ROOT = Path(__file__).resolve().parent.parent
#: everything a run writes: weight cache, compile caches, run records
WORK = ROOT / ".perfbench"
MB = 1e6
SETUP_PROBES = 3
#: a user's value would change the backend or inject faults
_CLEARED_ENV = ("REPRO_BACKEND", "REPRO_INSTRUMENT_OPS", "REPRO_CHAOS")
CODECS = {"sz": SZCompressor, "zfp": ZFPCompressor, "mgard": MGARDCompressor}


def samples_of(fields: np.ndarray) -> np.ndarray:
    """The pipeline's default field -> sample mapping (variables on axis 0)."""
    return fields.reshape(fields.shape[0], -1).T.astype(np.float32)


def qoi_error(reference: np.ndarray, outputs: np.ndarray, norm: str) -> float:
    """Worst per-sample absolute QoI error in ``norm``."""
    delta = (np.asarray(outputs, np.float64) - reference).reshape(len(outputs), -1)
    if norm == "linf":
        per_sample = np.abs(delta).max(axis=1)
    else:
        per_sample = np.linalg.norm(delta, axis=1)
    return float(per_sample.max())


def output_failures(model, fields, outputs, norm: str, tolerance: float) -> list[str]:
    """Failed output checks of one op against an FP32 reference."""
    if not np.all(np.isfinite(outputs)):
        return ["non-finite outputs"]
    model.eval()
    reference = np.asarray(model(samples_of(fields)), np.float64)
    error = qoi_error(reference, outputs, norm)
    if not error <= tolerance:
        return [f"{norm} QoI error {error:.3e} exceeds tolerance {tolerance:.3e}"]
    return []


class Workload:
    """One benchmark workload: its models, snapshots, op and checks."""

    name = ""
    models: tuple[str, ...] = ()
    #: ops per round of the cell cycle
    cycle = 1
    #: ops the compression ratio is taken over
    ratio_ops = 40

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch

    def snapshot(self, seed: int, index: int) -> np.ndarray:
        raise NotImplementedError

    def setup(self, trained: dict) -> None:
        raise NotImplementedError

    def run_op(self, index: int, fields: np.ndarray):
        raise NotImplementedError

    def check(self, index: int, fields: np.ndarray, result) -> tuple[list[str], int]:
        """``(failures, blob payload bytes)`` of one completed op."""
        raise NotImplementedError

    def after_op(self, index: int) -> None:
        """Untimed cleanup after an op."""

    def verify_setup(self, fields: np.ndarray, warmup) -> list[str]:
        """Untimed checks on the warm-up op (main process only)."""
        return []


def _h2_snapshot(seed: int, index: int) -> np.ndarray:
    rng = np.random.default_rng([seed, index])
    return make_h2_combustion(grid=128, rng=rng).fields


class CodecSweep(Workload):
    name = "h2-codec-sweep"
    models = ("h2combustion",)
    CELLS = tuple(
        (codec, norm, tol)
        for codec in ("sz", "mgard")
        for norm in ("linf", "l2")
        for tol in (1e-2, 1e-3)
    ) + (("zfp", "linf", 1e-2), ("zfp", "linf", 1e-3))
    cycle = len(CELLS)

    def snapshot(self, seed, index):
        return _h2_snapshot(seed, index)

    def setup(self, trained):
        workload = trained["h2combustion"]
        self.model = workload.model
        planner = TolerancePlanner(workload.analyzer)
        self.pipelines = [
            InferencePipeline(workload.model, CODECS[codec](), planner.plan(tol, norm=norm))
            for codec, norm, tol in self.CELLS
        ]

    def run_op(self, index, fields):
        return self.pipelines[index % self.cycle].execute(fields)

    def check(self, index, fields, result):
        __, norm, tol = self.CELLS[index % self.cycle]
        failures = output_failures(self.model, fields, result.outputs, norm, tol)
        return failures, result.blob.nbytes


class PlanAudit(Workload):
    name = "borghesi-plan-audit"
    models = ("borghesi",)
    CELLS = ((1e-1, 0.5), (1e-1, 0.9), (3e-2, 0.5), (3e-2, 0.9))
    cycle = len(CELLS)

    def snapshot(self, seed, index):
        rng = np.random.default_rng([seed, index])
        return make_borghesi_flame(grid=64, rng=rng).fields

    def setup(self, trained):
        workload = trained["borghesi"]
        self.model = workload.model
        self.planner = TolerancePlanner(workload.analyzer)

    def run_op(self, index, fields):
        tol, fraction = self.CELLS[index % self.cycle]
        plan = self.planner.plan(tol, quant_fraction=fraction)
        pipeline = InferencePipeline(self.model, SZCompressor(), plan)
        with audit_capture():
            return pipeline.execute(fields)

    def check(self, index, fields, result):
        tol, __ = self.CELLS[index % self.cycle]
        failures = output_failures(self.model, fields, result.outputs, "linf", tol)
        record = result.extra.get("audit")
        if record is None:
            failures.append("audit record missing")
        elif record["verdict"] == VERDICT_VIOLATION:
            failures.append("audit verdict VIOLATION")
        return failures, result.blob.nbytes


class ChunkedJournal(Workload):
    name = "h2-chunked-journal"
    models = ("h2combustion",)
    TOLERANCE = 1e-2
    ratio_ops = 20

    def snapshot(self, seed, index):
        return _h2_snapshot(seed, index)

    def setup(self, trained):
        workload = trained["h2combustion"]
        self.model = workload.model
        plan = TolerancePlanner(workload.analyzer).plan(self.TOLERANCE)
        self.pipeline = InferencePipeline(workload.model, SZCompressor(), plan)

    def _checkpoint(self, index: int) -> Path:
        return self.scratch / f"checkpoint-{index:05d}"

    def run_op(self, index, fields, executor="auto"):
        return self.pipeline.execute_chunked(
            fields,
            chunk_size=16,
            workers=2,
            chunk_axis=1,
            executor=executor,
            checkpoint=str(self._checkpoint(index)),
        )

    def check(self, index, fields, result):
        failures = output_failures(
            self.model, fields, result.outputs, "linf", self.TOLERANCE
        )
        if result.extra["checkpoint"]["computed_chunks"] != 8:
            failures.append("journal did not record all 8 chunks")
        source = fields.nbytes
        return failures, round(source / result.extra["chunked"]["compression_ratio"])

    def after_op(self, index):
        shutil.rmtree(self._checkpoint(index), ignore_errors=True)

    def verify_setup(self, fields, warmup):
        serial = self.run_op(-1, fields, executor="serial")
        self.after_op(-1)
        if not np.array_equal(serial.outputs, warmup.outputs):
            return ["process-pool outputs differ from a serial execute_chunked"]
        return []


WORKLOADS = {cls.name: cls for cls in (CodecSweep, PlanAudit, ChunkedJournal)}


# -- statistics -----------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def reportable_tail(values, min_beyond: int = 10):
    """Highest of p99/p95/p90/p75/p50 with ``min_beyond`` samples above it.

    Returns ``(q, value)``, or ``None`` when even the median lacks that
    many samples beyond it.
    """
    n = len(values)
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= min_beyond:
            return q, percentile(values, q)
    return None


def samples_beyond(values, q: float) -> int:
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


# -- set-up ---------------------------------------------------------------
def start(workload: Workload, trained: dict, fields: np.ndarray):
    """Build the workload's plans and pipelines and run the warm-up op."""
    workload.setup(trained)
    warmup = workload.run_op(0, fields)
    workload.after_op(0)
    return warmup


def timed_setup(workload: Workload, seed: int) -> float:
    """Seconds from model load to the end of the warm-up op."""
    fields = workload.snapshot(seed, 0)
    begin = time.perf_counter()
    start(workload, {name: load_workload(name) for name in workload.models}, fields)
    return time.perf_counter() - begin


def probe_setup(workload_name: str, seed: int) -> float:
    """``timed_setup`` in a fresh interpreter with an empty compile cache."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--probe-setup",
         "--workload", workload_name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{completed.stderr[-2000:]}")
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) * 1024 / MB


def environment() -> dict:
    """Host facts recorded with every run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    rev = "unknown"
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        if completed.returncode == 0:
            rev = completed.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_rev": rev,
    }


# -- the measured loop ----------------------------------------------------
class Measurement:
    def __init__(self) -> None:
        self.op_seconds: list[float] = []
        self.traced: list[bool] = []
        self.source_bytes: list[int] = []
        self.blob_bytes: list[int] = []
        #: the few fields of each result the layer metrics read; whole
        #: results are not kept, they would inflate peak RSS
        self.extras: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []


def measure(workload: Workload, seed: int, seconds: float, ledger: "SpanLedger | None"):
    """Run whole rounds of ops until their summed time reaches ``seconds``.

    With a ledger, odd rounds are traced and even rounds are not, so the
    two medians come from the same cells under the same conditions.
    """
    out = Measurement()
    index = 1
    rounds = 0
    while True:
        traced = ledger is not None and rounds % 2 == 1
        for __ in range(workload.cycle):
            fields = workload.snapshot(seed, index)
            if traced:
                ledger.op = index
                ledger.install()
                op_span = ledger.open("op")
            start = time.perf_counter()
            try:
                result = workload.run_op(index, fields)
                error = None
            except ContractViolation as exc:
                result, error = None, f"ContractViolation: {exc}"
            elapsed = time.perf_counter() - start
            if traced:
                ledger.close(op_span)
                ledger.uninstall()
            out.attempted += 1
            out.op_seconds.append(elapsed)
            out.traced.append(traced)
            if result is None:
                failures = [error]
            else:
                failures, blob_bytes = workload.check(index, fields, result)
                out.source_bytes.append(fields.nbytes)
                out.blob_bytes.append(blob_bytes)
                out.extras.append({
                    "audit": result.extra.get("audit"),
                    "supervision": result.extra.get("supervision", {}),
                    "recoveries": result.extra["integrity"]["recoveries"],
                    "executor": result.extra.get("chunked", {}).get("executor"),
                })
            out.failed += bool(failures)
            out.failures.extend(f"op {index}: {f}" for f in failures)
            workload.after_op(index)
            index += 1
        rounds += 1
        done = sum(out.op_seconds) >= seconds
        if done and (ledger is None or rounds >= 2):
            return out


def e2e_metrics(out: Measurement, setup_samples: list[float], workload: Workload) -> dict:
    times = out.op_seconds
    ratio_src = sum(out.source_bytes[: workload.ratio_ops])
    ratio_blob = sum(out.blob_bytes[: workload.ratio_ops])
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "throughput_mb_s": (sum(out.source_bytes) / MB / sum(times), "MB/s"),
        "op_ms_p50": (percentile(times, 50) * 1e3, "ms"),
        "op_ms_p90": (percentile(times, 90) * 1e3, "ms"),
        "compression_ratio": (ratio_src / ratio_blob, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _memo_delta(name: str, before: dict) -> tuple[int, int]:
    memo = registered_memos().get(name)
    if memo is None:
        return 0, 0
    start = before.get(name, (0, 0))
    return memo.hits - start[0], memo.misses - start[1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(out: Measurement, ledger: SpanLedger, memos: dict) -> dict:
    """Per-layer metrics from the traced rounds' spans and counters."""
    spans = ledger.spans
    traced_ops = [s for t, s in zip(out.traced, out.op_seconds) if t]
    plain_ops = [s for t, s in zip(out.traced, out.op_seconds) if not t]
    n = max(len(traced_ops), 1)
    counts = ledger.counts

    def per_op_ms(name: str) -> float:
        return busy_seconds(spans, name) * 1e3 / n

    op_total = busy_seconds(spans, "op")
    op_self = self_seconds(spans, "op")
    huffman_s = busy_seconds(spans, "compress.huffman_encode")
    forward_s = busy_seconds(spans, "nn.forward")
    metrics = {
        "compress.encode_ms": (per_op_ms("compress.encode"), "ms"),
        "compress.decode_ms": (per_op_ms("compress.decode"), "ms"),
        "compress.huffman_encode_ms": (per_op_ms("compress.huffman_encode"), "ms"),
        "compress.huffman_encode_self_ms": (
            self_seconds(spans, "compress.huffman_encode") * 1e3 / n, "ms"),
        "compress.pack_codes_ms": (per_op_ms("compress.pack_codes"), "ms"),
        "compress.huffman_decode_ms": (per_op_ms("compress.huffman_decode"), "ms"),
        "compress.symbols": (counts.get("symbols", 0.0) / n, "count"),
        "compress.encode_msym_s": (
            _ratio(counts.get("symbols", 0.0) / 1e6, huffman_s), "Msym/s"),
        "compress.lossless_fraction": (
            _ratio(counts.get("lossless_blobs", 0.0), counts.get("blobs", 0.0)), "ratio"),
    }
    hits, misses = _memo_delta("huffman_tables", memos)
    metrics["compress.table_cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    for codec, speed in sorted(DEFAULT_CODEC_SPEEDS.items()):
        decoded = counts.get(f"decoded_bytes.{codec}", 0.0)
        measured = _ratio(decoded / MB, counts.get(f"decode_seconds.{codec}", 0.0))
        metrics[f"compress.codec_mb_s.{codec}"] = (measured, "MB/s")
        # the Fig. 7/8 model's decompression rate at the measured ratio
        payload = counts.get(f"decoded_payload_bytes.{codec}", 0.0)
        modelled = speed.rate(decoded / payload) * 1e3 if payload else 0.0
        metrics[f"compress.iomodel_gap.{codec}"] = (_ratio(modelled, measured), "ratio")
    calls = counts.get("forward_calls", 0.0)
    metrics.update({
        "nn.forward_ms": (per_op_ms("nn.forward"), "ms"),
        "nn.forward_calls": (calls / n, "count"),
        "nn.samples_per_s": (_ratio(counts.get("forward_samples", 0.0), forward_s), "1/s"),
        "nn.fallback_ratio": (_ratio(counts.get("forward_fallbacks", 0.0), calls), "ratio"),
        "quant.quantize_ms": (per_op_ms("quant.quantize"), "ms"),
        "core.plan_ms": (per_op_ms("core.plan"), "ms"),
        "core.bound_eval_ms": (per_op_ms("core.bound_eval"), "ms"),
    })
    hits, misses = _memo_delta("bound_eval", memos)
    metrics["core.bound_cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    audits = [e["audit"] for e in out.extras if e["audit"] is not None]
    tightness = [a["qoi_tightness"] for a in audits]
    metrics["core.tightness_p50"] = (
        statistics.median(tightness) if tightness else 0.0, "ratio")
    metrics["audit.audit_ms"] = (per_op_ms("audit.audit"), "ms")
    metrics["audit.loose_fraction"] = (
        _ratio(sum(a["verdict"] == VERDICT_LOOSE for a in audits), len(audits)), "ratio")
    supervision = [e["supervision"] for e in out.extras]
    metrics.update({
        "resilience.pool_ms": (per_op_ms("resilience.pool"), "ms"),
        "resilience.guard_ms": (per_op_ms("resilience.guard"), "ms"),
        "resilience.retries": (sum(s.get("retries", 0) for s in supervision), "count"),
        "resilience.respawns": (sum(s.get("respawns", 0) for s in supervision), "count"),
        "resilience.recoveries": (
            sum(e["recoveries"] for e in out.extras), "count"),
        "io.journal_ms": (per_op_ms("io.journal"), "ms"),
        "io.journal_bytes": (counts.get("journal_bytes", 0.0) / n, "bytes"),
        "pipeline.ctor_ms": (per_op_ms("pipeline.ctor"), "ms"),
        "pipeline.self_ms": (op_self * 1e3 / n, "ms"),
        "pipeline.coverage": (_ratio(op_total - op_self, op_total), "ratio"),
        "trace.overhead": (
            _ratio(percentile(traced_ops, 50), percentile(plain_ops, 50)) - 1.0
            if traced_ops and plain_ops else 0.0, "ratio"),
    })
    return metrics


# -- entry point ----------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for key in _CLEARED_ENV:
        os.environ.pop(key, None)
    WORK.mkdir(exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "weights")
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        os.environ["REPRO_COMPILE_CACHE_DIR"] = str(scratch / "kernels")
        workload = WORKLOADS[args.workload](scratch)
        if args.probe_setup:
            print(json.dumps({"setup_s": timed_setup(workload, args.seed)}))
            return 0
        return _run(args, workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, workload: Workload) -> int:
    env = environment()
    # Train any missing model before anything is timed; the probes then
    # load it from the cache like a user's second run would.
    trained = {name: load_workload(name) for name in workload.models}
    setup_samples = [probe_setup(workload.name, args.seed) for _ in range(SETUP_PROBES)]

    fields = workload.snapshot(args.seed, 0)
    setup_failures = workload.verify_setup(fields, start(workload, trained, fields))
    # Run every other cell once too, so each pipeline's lazy first-call
    # work (kernel lowering, memo fills) lands before the measured loop.
    for index in range(1, workload.cycle):
        workload.run_op(index, fields)
        workload.after_op(index)

    ledger = SpanLedger(layer_patches()) if args.trace else None
    memos = {name: (m.hits, m.misses) for name, m in registered_memos().items()}
    out = measure(workload, args.seed, args.seconds, ledger)
    failures = setup_failures + out.failures
    if ledger is None:
        metrics = e2e_metrics(out, setup_samples, workload)
    else:
        metrics = layer_metrics(out, ledger, memos)

    times = out.op_seconds
    executors = sorted({str(e["executor"]) for e in out.extras})
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"ops={len(times)} beyond_p90={samples_beyond(times, 90)} "
          f"tail={reportable_tail(times)} executors={executors} "
          f"env={json.dumps(env)}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}", file=sys.stderr)
    for failure in failures[:20]:
        print(f"  FAILED {failure}", file=sys.stderr)

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "env": env, "op_seconds": times, "setup_samples": setup_samples,
        "failures": failures, "metrics": {k: v for k, (v, __) in metrics.items()},
    }
    if ledger is not None:
        record["spans"] = ledger.to_dicts()
    runs = WORK / "runs"
    runs.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = runs / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record))

    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed + bool(setup_failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1
