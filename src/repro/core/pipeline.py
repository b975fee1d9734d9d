"""End-to-end error-bounded inference pipeline (paper Fig. 1).

``store -> (compressed blob) -> load -> decompress -> quantized model``

The pipeline wires a plan from :class:`~repro.core.planner.TolerancePlanner`
to a codec and a quantized model, measures wall-clock stage timings and
achieved errors, and verifies that the end-to-end QoI error stays inside
the user's tolerance — the paper's central claim.

Runtime guards make that claim *checked*, not assumed: decompressed
inputs and QoI outputs are screened for NaN/Inf, and the achieved input
error is compared against the planned tolerance, raising a structured
:class:`~repro.exceptions.ContractViolation` on breach.  A configurable
``on_corruption`` policy (``raise`` / ``recompress-from-source`` /
``fallback-lossless``) lets one corrupt decompression degrade a run
instead of killing it.
"""

from __future__ import annotations

import io
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..compress.base import CompressedBlob, Compressor, ErrorBoundMode
from ..exceptions import (
    CompressionError,
    ConfigurationError,
    IntegrityError,
    PlanningError,
    ReproError,
)
from ..io.checkpoint import CheckpointJournal, digest_array, digest_model
from ..io.serialization import blob_from_bytes, blob_to_bytes
from ..nn.backend import CompiledForward
from ..nn.module import Module
from ..obs import get_auditor, get_logger, get_metrics, get_profiler, get_tracer
from ..obs.audit import AuditRecord
from ..obs.prof import memory_snapshot, memory_top_diff
from ..perf.parallel import resolve_workers
from ..quant.quantizer import QuantizedModel, quantize_model
from ..resilience.guards import check_contract, screen_finite
from ..resilience.inject import ChaosInjector
from ..resilience.policy import (
    CorruptionPolicy,
    record_recovery,
    record_retry,
    resolve_policy,
)
from ..resilience.retry import RetryPolicy
from ..resilience.supervisor import SupervisedPool, fork_available
from .planner import InferencePlan

__all__ = ["PipelineResult", "InferencePipeline", "split_chunks"]


def split_chunks(
    fields: np.ndarray, chunk_size: int, chunk_axis: int = 0
) -> "list[np.ndarray]":
    """Split ``fields`` along ``chunk_axis`` into contiguous slabs.

    The one canonical chunking: ``execute_chunked`` and every
    distributed worker must produce identical slabs (and therefore
    identical per-chunk digests) or they are not running the same
    computation.
    """
    fields = np.asarray(fields)
    chunk_size = int(chunk_size)
    if chunk_size <= 0:
        raise PlanningError(f"chunk_size must be positive, got {chunk_size}")
    extent = fields.shape[chunk_axis]
    if extent == 0:
        raise PlanningError("cannot chunk an empty field array")
    return [
        np.ascontiguousarray(
            np.take(
                fields, np.arange(lo, min(lo + chunk_size, extent)), axis=chunk_axis
            )
        )
        for lo in range(0, extent, chunk_size)
    ]


@dataclass
class PipelineResult:
    """Everything measured in one pipeline execution."""

    outputs: np.ndarray
    reference_outputs: np.ndarray
    blob: CompressedBlob
    plan: InferencePlan
    compress_seconds: float
    decompress_seconds: float
    inference_seconds: float
    input_error_linf: float
    input_error_l2_max: float
    extra: dict = field(default_factory=dict)

    @property
    def compression_ratio(self) -> float:
        return self.blob.compression_ratio

    def qoi_error(self, norm: str = "linf", relative: bool = True) -> float:
        """Worst per-sample QoI error of this run."""
        delta = (self.outputs - self.reference_outputs).reshape(len(self.outputs), -1)
        reference = self.reference_outputs.reshape(len(self.reference_outputs), -1)
        if norm == "linf":
            errors = np.abs(delta).max(axis=1)
            scale = np.abs(reference).max()
        elif norm == "l2":
            errors = np.linalg.norm(delta, axis=1)
            scale = float(np.linalg.norm(reference, axis=1).max())
        else:
            raise ValueError(f"norm must be 'linf' or 'l2', got {norm!r}")
        worst = float(errors.max()) if errors.size else 0.0
        if relative:
            return worst / scale if scale > 0 else worst
        return worst


class InferencePipeline:
    """Error-bounded inference with lossy input reduction + weight quant.

    Parameters
    ----------
    model:
        Trained full-precision network.
    codec:
        Error-bounded compressor for the input data.
    plan:
        Allocation produced by the planner; fixes the weight format and
        the compressor tolerance.
    on_corruption:
        Reaction when a decompressed input fails integrity screening:
        ``"raise"`` (default) propagates the typed error;
        ``"recompress-from-source"`` re-compresses the source fields and
        retries (bounded by ``max_retries``); ``"fallback-lossless"``
        swaps in a lossless blob of the source fields.
    max_retries:
        Recompression attempts before falling through to a lossless blob
        (recompress policy) or the error (raise policy).
    screen:
        Disable to skip NaN/Inf screening and contract checking
        (measurement-only runs on data known to be dirty).
    """

    def __init__(
        self,
        model: Module,
        codec: Compressor,
        plan: InferencePlan,
        on_corruption: "CorruptionPolicy | str" = CorruptionPolicy.RAISE,
        max_retries: int = 1,
        screen: bool = True,
    ) -> None:
        self.model = model
        self.codec = codec
        self.plan = plan
        self.on_corruption = resolve_policy(on_corruption)
        self.max_retries = int(max_retries)
        self.screen = screen
        self.quantized: QuantizedModel = quantize_model(model, plan.fmt)
        self._forward_quant = CompiledForward(self.quantized.model)
        self._forward_ref = CompiledForward(self.model)
        self._mode = self._select_mode()
        self._audit_recorder = None
        self._audit_lock = threading.Lock()

    def _select_mode(self) -> ErrorBoundMode:
        if self.plan.norm == "linf":
            return ErrorBoundMode.ABS
        if ErrorBoundMode.L2_ABS in self.codec.supported_modes:
            return ErrorBoundMode.L2_ABS
        raise PlanningError(
            f"codec {self.codec.name!r} does not support an L2 tolerance "
            "(the paper notes the same restriction for ZFP)"
        )

    def store(self, fields: np.ndarray) -> CompressedBlob:
        """Compress normalized input fields under the planned tolerance."""
        return self.codec.compress(fields, self.plan.input_tolerance, self._mode)

    def load(self, blob: CompressedBlob) -> np.ndarray:
        """Decompress fields back into network-ready arrays (screened)."""
        return self.codec.safe_decompress(blob, screen=self.screen)

    def _lossless_blob(self, fields: np.ndarray) -> CompressedBlob:
        """Degraded-mode blob: source fields stored uncompressed."""
        fields = np.asarray(fields)
        return CompressedBlob(
            codec=self.codec.name,
            payload=np.ascontiguousarray(fields).tobytes(),
            shape=fields.shape,
            dtype=str(fields.dtype),
            mode=self._mode,
            tolerance=float(self.plan.input_tolerance),
            metadata={"lossless": True, "degraded": True},
        )

    def _store_and_load(
        self, fields: np.ndarray, force_lossless: bool = False
    ) -> tuple[CompressedBlob, np.ndarray, float, float, int, dict]:
        """Compress + decompress under the degradation policy.

        Returns ``(blob, reconstruction, compress_s, decompress_s,
        recoveries, spans)`` where ``recoveries`` counts policy
        activations and ``spans`` holds the compress/decompress trace
        spans for post-hoc attribute enrichment (observed errors are only
        measurable once the reconstruction is compared to the source).

        ``force_lossless`` skips the codec entirely and goes straight to
        the degraded lossless blob — the quarantine path for a chunk the
        supervised pool gave up on.
        """
        tracer = get_tracer()
        predicted = float(self.plan.input_tolerance)
        recoveries = 0
        failure: Exception | None = None
        spans: dict = {}
        for attempt in range(0 if force_lossless else self.max_retries + 1):
            if attempt:
                record_retry("pipeline")
            start = time.perf_counter()
            with tracer.span(
                "pipeline.compress",
                codec=self.codec.name,
                attempt=attempt,
                predicted_bound=predicted,
            ) as span:
                blob = self.store(fields)
                span.set(compression_ratio=blob.compression_ratio)
            spans["compress"] = span
            compress_seconds = time.perf_counter() - start
            start = time.perf_counter()
            span = tracer.span(
                "pipeline.decompress",
                codec=self.codec.name,
                attempt=attempt,
                predicted_bound=predicted,
            )
            try:
                with span:
                    reconstructed = self.load(blob)
                spans["decompress"] = span
                if recoveries:
                    record_recovery(self.on_corruption, "pipeline")
                return (
                    blob,
                    reconstructed,
                    compress_seconds,
                    time.perf_counter() - start,
                    recoveries,
                    spans,
                )
            except (IntegrityError, CompressionError) as exc:
                spans["decompress"] = span
                if self.on_corruption is CorruptionPolicy.RAISE:
                    raise
                failure = exc
                recoveries += 1
                if self.on_corruption is CorruptionPolicy.FALLBACK_LOSSLESS:
                    break
        # recompression kept failing (or the policy is lossless): degrade.
        if not force_lossless:
            record_retry("pipeline")
        blob = self._lossless_blob(fields)
        start = time.perf_counter()
        span = tracer.span(
            "pipeline.decompress",
            codec=self.codec.name,
            degraded=True,
            predicted_bound=predicted,
        )
        try:
            with span:
                reconstructed = self.load(blob)
        except (IntegrityError, CompressionError) as exc:
            raise IntegrityError(
                "pipeline could not recover a clean reconstruction even "
                f"losslessly (policy {self.on_corruption.value!r}): {exc}"
            ) from (failure or exc)
        spans["decompress"] = span
        record_recovery(
            CorruptionPolicy.FALLBACK_LOSSLESS if force_lossless else self.on_corruption,
            "pipeline",
        )
        return blob, reconstructed, 0.0, time.perf_counter() - start, recoveries, spans

    def execute(
        self,
        fields: np.ndarray,
        samples_from_fields=None,
        force_lossless: bool = False,
    ) -> PipelineResult:
        """Run the full pipeline on a normalized field array.

        Parameters
        ----------
        fields:
            Input data as stored (e.g. ``(V, H, W)`` variable planes or
            image batches).
        samples_from_fields:
            Callable reshaping fields into model-input samples; defaults
            to treating axis 0 as the variable axis of a field workload.
        force_lossless:
            Skip the lossy codec and store the fields losslessly — the
            degraded mode quarantined chunks fall back to.

        Returns
        -------
        PipelineResult
            Outputs, reference (uncompressed FP32) outputs, timings and
            achieved input errors.  ``extra["integrity"]`` records what
            the guards observed; ``extra["audit"]`` holds the layerwise
            predicted-vs-observed record when auditing is enabled.
        """
        if samples_from_fields is None:
            samples_from_fields = lambda f: f.reshape(f.shape[0], -1).T.astype(np.float32)  # noqa: E731

        tracer = get_tracer()
        metrics = get_metrics()
        profiler = get_profiler()
        prof_window = profiler.begin_window() if profiler.enabled else None
        memory_stages: "dict | None" = {} if profiler.enabled and profiler.memory else None
        with tracer.span(
            "pipeline.execute",
            codec=self.codec.name,
            norm=self.plan.norm,
            fmt=self.plan.fmt.name,
            policy=self.on_corruption.value,
        ) as root:
            if self.screen:
                screen_finite(fields, stage="source", name="fields")

            mem_before = memory_snapshot() if memory_stages is not None else None
            blob, reconstructed, compress_seconds, decompress_seconds, recoveries, spans = (
                self._store_and_load(fields, force_lossless=force_lossless)
            )
            if memory_stages is not None:
                mem_after = memory_snapshot()
                memory_stages["store_load"] = memory_top_diff(
                    mem_before, mem_after, top=profiler.memory_top
                )
                mem_before = mem_after

            samples = samples_from_fields(reconstructed)
            with tracer.span(
                "pipeline.inference",
                fmt=self.plan.fmt.name,
                samples=int(len(samples)),
                predicted_bound=float(self.plan.quant_bound),
            ) as inference_span:
                start = time.perf_counter()
                outputs = self._forward_quant(samples)
                inference_seconds = time.perf_counter() - start
            if memory_stages is not None:
                mem_after = memory_snapshot()
                memory_stages["inference"] = memory_top_diff(
                    mem_before, mem_after, top=profiler.memory_top
                )

            self.model.eval()
            reference_samples = samples_from_fields(fields)
            reference = self._forward_ref(reference_samples)
            delta = reference_samples - samples
            input_error_linf = float(np.abs(delta).max()) if delta.size else 0.0
            input_error_l2_max = (
                float(np.linalg.norm(delta, axis=1).max()) if delta.size else 0.0
            )

            integrity: dict = {
                "screened": self.screen,
                "policy": self.on_corruption.value,
                "recoveries": recoveries,
                "degraded": bool(blob.metadata.get("degraded", False)),
            }
            # The codec's contract is over the stored field array in its
            # native dtype — measure it there, not after the sample cast.
            if self.screen or tracer.enabled:
                field_delta = np.asarray(fields, dtype=np.float64) - np.asarray(
                    reconstructed, dtype=np.float64
                )
                if self._mode.is_pointwise:
                    achieved = float(np.abs(field_delta).max()) if field_delta.size else 0.0
                else:
                    achieved = float(np.linalg.norm(field_delta))
            else:
                achieved = float("nan")
            with tracer.span(
                "pipeline.guard",
                codec=self.codec.name,
                norm=self.plan.norm,
                predicted_bound=float(self.plan.input_tolerance),
                observed_error=achieved,
                contract_slack=float(self.plan.input_tolerance) - achieved,
                screened=self.screen,
            ) as guard_span:
                if self.screen:
                    screen_finite(outputs, stage="qoi", name="outputs")
                    integrity["input_contract"] = {
                        "norm": self.plan.norm,
                        "expected": float(self.plan.input_tolerance),
                        "achieved": achieved,
                    }
                    check_contract(
                        achieved,
                        self.plan.input_tolerance,
                        codec=self.codec.name,
                        stage="decompress",
                        norm=self.plan.norm,
                        slack=1e-9,
                    )

            result = PipelineResult(
                outputs=outputs,
                reference_outputs=reference,
                blob=blob,
                plan=self.plan,
                compress_seconds=compress_seconds,
                decompress_seconds=decompress_seconds,
                inference_seconds=inference_seconds,
                input_error_linf=input_error_linf,
                input_error_l2_max=input_error_l2_max,
                extra={"integrity": integrity},
            )
            if prof_window is not None:
                result.extra["profile"] = profiler.end_window(
                    prof_window, memory_stages
                )

            if tracer.enabled or metrics.enabled:
                self._record_telemetry(
                    tracer, metrics, result, spans, inference_span, guard_span, root,
                    observed_input_error=achieved,
                )
            auditor = get_auditor()
            if auditor.enabled:
                self._audit_execution(auditor, result, reference_samples, samples)
        return result

    def _audit_execution(
        self,
        auditor,
        result: PipelineResult,
        reference_samples: np.ndarray,
        samples: np.ndarray,
    ) -> None:
        """Layerwise predicted-vs-observed audit of one execution.

        Only reached when a live auditor is installed (the disabled cost
        is one attribute check in :meth:`execute`).  Runs both models
        again with capture hooks — roughly doubling inference cost for
        the audited run — and never kills the run it observes: audit
        failures degrade to a warning.
        """
        try:
            # One audit at a time: the recorder attaches capture hooks to
            # the shared model, so concurrent chunk workers would observe
            # each other's activations.
            with self._audit_lock:
                record = self._audit_recorder_for(reference_samples, auditor).audit(
                    reference_samples, samples, loose_below=auditor.loose_below
                )
            record.codec = self.codec.name
            record.fmt = self.plan.fmt.name
            record.norm = self.plan.norm
            record.qoi_tolerance = float(self.plan.qoi_tolerance)
            record.input_tolerance = float(self.plan.input_tolerance)
            integrity = result.extra.get("integrity", {})
            record.metadata = {
                "compression_ratio": float(result.compression_ratio),
                "degraded": bool(integrity.get("degraded", False)),
                "recoveries": int(integrity.get("recoveries", 0)),
                "samples": int(len(samples)),
            }
            auditor.record_run(record)
            result.extra["audit"] = record.to_dict()
        except ReproError as exc:
            get_logger("pipeline").warning(
                "audit skipped: could not evaluate the layerwise envelope",
                error=str(exc),
            )

    def _audit_recorder_for(self, reference_samples: np.ndarray, auditor):
        """Cached lockstep recorder (spec extraction pays once per
        pipeline).  Caller must hold ``_audit_lock``."""
        if self._audit_recorder is None:
            from ..obs.audit import LayerwiseErrorRecorder

            n_input = int(np.prod(np.asarray(reference_samples).shape[1:]))
            self._audit_recorder = LayerwiseErrorRecorder(
                self.model,
                self.quantized,
                n_input=n_input or None,
                quant_safety=auditor.quant_safety,
            )
        return self._audit_recorder

    def execute_chunked(
        self,
        fields: np.ndarray,
        chunk_size: int,
        workers: int | None = None,
        chunk_axis: int = 0,
        samples_from_fields=None,
        *,
        executor: str = "auto",
        checkpoint: "str | None" = None,
        resume: bool = False,
        task_timeout: "float | None" = None,
        max_task_retries: int = 2,
        chaos=None,
        distrib=None,
    ) -> PipelineResult:
        """Run the pipeline over chunks of ``fields``, optionally in parallel.

        ``fields`` is split along ``chunk_axis`` into slabs of
        ``chunk_size``; each slab runs the full compress → decompress →
        infer path independently.  Results come back in input order
        regardless of completion order, so the assembled outputs are
        deterministic.

        Only pointwise (L-infinity) tolerances compose per chunk — the
        max over slab-wise maxima equals the global maximum.  An L2
        budget does not split this way, so L2 plans are rejected.

        When error auditing is enabled (:func:`repro.obs.enable_audit`)
        every chunk is audited as its own run: one
        :class:`~repro.obs.audit.AuditRecord` per chunk.  Records
        produced inside pool workers (or replayed from a checkpoint) are
        adopted into the parent auditor, so the in-memory record list and
        the run registry always end up with one entry per chunk.

        Parameters
        ----------
        fields:
            Input data as stored (same contract as :meth:`execute`).
        chunk_size:
            Slab extent along ``chunk_axis``.
        workers:
            ``None``/1 = serial, ``0`` = one per CPU, else literal.
        chunk_axis:
            Axis to split.  Pick the axis whose slabs map to contiguous
            blocks of model samples under ``samples_from_fields`` (axis 1
            for the default ``(V, H, W)`` field mapping, axis 0 for
            batch-of-images workloads).
        samples_from_fields:
            Same reshaping callable as :meth:`execute`, applied per chunk.
        executor:
            ``"process"`` — supervised fork-based worker pool (heartbeats,
            deadlines, respawn, retry/backoff, quarantine, circuit
            breaker; see :class:`~repro.resilience.supervisor.SupervisedPool`);
            ``"serial"`` — in-process loop;
            ``"distributed"`` — serve the chunks as leases to remote
            workers via a :class:`~repro.distrib.coordinator.
            ShardCoordinator` (configured by ``distrib``), degrading to
            the local supervised pool if no worker joins; ``"auto"``
            (default) — process pool when ``workers > 1`` and fork is
            available, else serial.  (The GIL-bound thread pool was
            removed as an inference executor: BENCH_pr4 showed it yields
            no speedup.  :func:`repro.perf.parallel.parallel_map` remains
            for chunked I/O, where threads do overlap.)  The executor
            actually used and the one requested are both recorded in
            ``result.extra["chunked"]``.
        checkpoint:
            Directory for a durable
            :class:`~repro.io.checkpoint.CheckpointJournal`: every
            certified-complete chunk is persisted (atomic artifact +
            journal line) as it finishes.  ``None`` disables.
        resume:
            Resume from ``checkpoint``: verify the journal belongs to
            this exact computation (plan fingerprint + per-chunk input
            digests), replay completed chunks, recompute only the rest.
        task_timeout:
            Per-chunk deadline in seconds (process executor only);
            expiry kills the worker and retries the chunk.
        max_task_retries:
            Retry budget per chunk before quarantine (process executor);
            a quarantined chunk re-runs serially in the parent in
            degraded lossless mode instead of failing the run.
        chaos:
            Optional :class:`~repro.resilience.inject.ChaosInjector`
            applied inside workers (tests/CI); defaults to the
            ``REPRO_CHAOS`` environment spec when set.  Not accepted by
            the distributed executor — there, chaos belongs to the
            worker processes.
        distrib:
            Optional :class:`~repro.distrib.coordinator.DistribConfig`
            for the distributed executor (bind address, lease TTL,
            shard size, expected worker count, join timeout).

        Returns
        -------
        PipelineResult
            Concatenated outputs; stage timings are summed over chunks,
            input errors are slab-wise maxima (exact for pointwise
            norms), ``blob`` is the first chunk's blob, and ``extra``
            carries ``"chunked"`` (pool configuration + aggregate ratio),
            ``"supervision"`` (retries/respawns/quarantine, process
            executor only) and ``"checkpoint"`` (path + replay counts,
            when journaling).
        """
        if not self._mode.is_pointwise:
            raise PlanningError(
                "chunked execution requires a pointwise (linf) tolerance: "
                "an L2 error budget does not decompose across chunks"
            )
        fields = np.asarray(fields)
        chunk_size = int(chunk_size)
        if resume and checkpoint is None:
            raise ConfigurationError("resume=True requires a checkpoint directory")
        chunks = split_chunks(fields, chunk_size, chunk_axis)
        n_workers = resolve_workers(workers)
        requested_executor = executor
        executor = self._resolve_executor(executor, n_workers)
        if distrib is not None and executor != "distributed":
            raise ConfigurationError(
                "distrib configuration requires executor='distributed', "
                f"got {executor!r}"
            )
        if executor == "distributed":
            # chaos is worker-side in distributed mode: the coordinator
            # must not consume a REPRO_CHAOS spec meant for its workers
            if chaos is not None:
                raise ConfigurationError(
                    "chaos injection in distributed mode belongs to the "
                    "worker processes (set REPRO_CHAOS there)"
                )
        else:
            if chaos is None:
                chaos = ChaosInjector.from_env()
            if chaos is not None and executor != "process":
                raise ConfigurationError(
                    "chaos injection simulates worker faults and requires the "
                    f"process executor (resolved executor: {executor!r})"
                )
        # eval() once up front: workers must not mutate module state.
        self.model.eval()
        auditor = get_auditor()

        journal = None
        digests: "list[str] | None" = None
        manifest: "dict | None" = None
        completed_entries: dict = {}
        if checkpoint is not None or executor == "distributed":
            digests = [digest_array(chunk) for chunk in chunks]
            manifest = self._checkpoint_manifest(
                chunks, chunk_size, chunk_axis, digests
            )
        if checkpoint is not None:
            journal = CheckpointJournal(checkpoint)
            completed_entries = journal.begin(manifest, resume=resume)

        tracer = get_tracer()
        profiler = get_profiler()
        prof_window = profiler.begin_window() if profiler.enabled else None
        wall_start = time.perf_counter()
        with tracer.span(
            "pipeline.execute_chunked",
            codec=self.codec.name,
            chunks=len(chunks),
            chunk_size=chunk_size,
            workers=n_workers,
            executor=executor,
            resumed=len(completed_entries),
        ) as root:
            results: "dict[int, PipelineResult]" = {}
            for index in sorted(completed_entries):
                results[index] = self._replay_chunk(
                    journal, completed_entries[index], auditor
                )
            pending = [i for i in range(len(chunks)) if i not in results]

            supervision = None
            distrib_summary = None
            if pending and executor == "distributed":
                distrib_summary, pending = self._run_chunks_distributed(
                    chunks, pending, manifest, journal, auditor, results, distrib
                )
                if pending:
                    # degradation: no (surviving) workers — finish on the
                    # local supervised pool so the run still completes
                    supervision = self._run_chunks_supervised(
                        chunks,
                        pending,
                        samples_from_fields,
                        journal,
                        digests,
                        auditor,
                        results,
                        n_workers=n_workers,
                        task_timeout=task_timeout,
                        max_task_retries=max_task_retries,
                        chaos=None,
                    )
            elif pending and executor == "process":
                supervision = self._run_chunks_supervised(
                    chunks,
                    pending,
                    samples_from_fields,
                    journal,
                    digests,
                    auditor,
                    results,
                    n_workers=n_workers,
                    task_timeout=task_timeout,
                    max_task_retries=max_task_retries,
                    chaos=chaos,
                )
            elif pending:
                for index in pending:
                    chunk = chunks[index]
                    started = time.perf_counter()
                    with tracer.span(
                        "pipeline.chunk", rows=int(chunk.shape[chunk_axis])
                    ):
                        result = self.execute(
                            chunk, samples_from_fields=samples_from_fields
                        )
                    if journal is not None:
                        # journal as each chunk completes — a crash loses
                        # only in-flight work, never finished chunks
                        self._journal_chunk(
                            journal,
                            index,
                            result,
                            digests[index],
                            seconds=time.perf_counter() - started,
                        )
                    results[index] = result

            wall_seconds = time.perf_counter() - wall_start
            ordered = [results[index] for index in range(len(chunks))]

            raw_total = sum(
                int(np.prod(r.blob.shape)) * np.dtype(r.blob.dtype).itemsize
                for r in ordered
            )
            compressed_total = sum(len(r.blob.payload) for r in ordered)
            integrity = {
                "screened": self.screen,
                "policy": self.on_corruption.value,
                "recoveries": sum(
                    r.extra["integrity"].get("recoveries", 0) for r in ordered
                ),
                "degraded": any(
                    r.extra["integrity"].get("degraded", False) for r in ordered
                ),
            }
            aggregate_ratio = (
                raw_total / compressed_total if compressed_total else float("inf")
            )
            root.set(compression_ratio=aggregate_ratio, wall_seconds=wall_seconds)

        extra = {
            "integrity": integrity,
            "chunked": {
                "n_chunks": len(chunks),
                "chunk_size": chunk_size,
                "chunk_axis": chunk_axis,
                "workers": n_workers,
                "executor": executor,
                "requested_executor": requested_executor,
                "wall_seconds": wall_seconds,
                "compression_ratio": aggregate_ratio,
            },
        }
        if supervision is not None:
            extra["supervision"] = supervision
        if distrib_summary is not None:
            extra["distrib"] = distrib_summary
            if tracer.enabled:
                # the same per-chunk timeline `repro trace analyze` builds
                # from an exported trace, available without the export
                from ..obs.timeline import analyze_spans

                extra["timeline"] = analyze_spans(tracer.to_dicts())
        if journal is not None:
            extra["checkpoint"] = {
                "path": journal.path,
                "resumed": bool(resume),
                "replayed_chunks": len(completed_entries),
                "computed_chunks": len(chunks) - len(completed_entries),
            }
        if prof_window is not None:
            # whole-run window: per-chunk serial execute() calls attach
            # their own nested windows inside each chunk result
            extra["profile"] = profiler.end_window(prof_window)

        return PipelineResult(
            outputs=np.concatenate([r.outputs for r in ordered], axis=0),
            reference_outputs=np.concatenate(
                [r.reference_outputs for r in ordered], axis=0
            ),
            blob=ordered[0].blob,
            plan=self.plan,
            compress_seconds=sum(r.compress_seconds for r in ordered),
            decompress_seconds=sum(r.decompress_seconds for r in ordered),
            inference_seconds=sum(r.inference_seconds for r in ordered),
            input_error_linf=max(r.input_error_linf for r in ordered),
            input_error_l2_max=max(r.input_error_l2_max for r in ordered),
            extra=extra,
        )

    @staticmethod
    def _resolve_executor(executor: str, n_workers: int) -> str:
        if executor not in ("auto", "serial", "process", "distributed"):
            raise ConfigurationError(
                "executor must be auto|serial|process|distributed, "
                f"got {executor!r}"
            )
        if executor == "auto":
            if n_workers <= 1:
                return "serial"
            # BENCH_pr4 showed the GIL-bound thread pool yields no
            # inference speedup, so it is not an executor (it remains for
            # chunked I/O in repro.perf.parallel) — process if fork
            # exists, else serial.  "distributed" stays explicit.
            return "process" if fork_available() else "serial"
        return executor

    def _checkpoint_manifest(
        self, chunks, chunk_size: int, chunk_axis: int, digests: "list[str]"
    ) -> dict:
        """Run identity for the checkpoint journal: every decision that
        makes two runs 'the same computation' — plan, codec, chunking —
        plus per-chunk input digests."""
        return {
            "fingerprint": {
                "codec": self.codec.name,
                "fmt": self.plan.fmt.name,
                "norm": self.plan.norm,
                "qoi_tolerance": float(self.plan.qoi_tolerance),
                "input_tolerance": float(self.plan.input_tolerance),
                "quant_bound": float(self.plan.quant_bound),
                "policy": self.on_corruption.value,
                "screen": bool(self.screen),
                "chunk_size": int(chunk_size),
                "chunk_axis": int(chunk_axis),
                "n_chunks": len(chunks),
            },
            "chunk_digests": list(digests),
        }

    def _journal_chunk(
        self,
        journal: CheckpointJournal,
        index: int,
        result: PipelineResult,
        digest: str,
        attempts: int = 1,
        quarantined: bool = False,
        seconds: "float | None" = None,
    ) -> dict:
        """Persist one certified-complete chunk (artifact + journal line).

        Returns the journal entry as written — the distributed worker
        resends exactly this entry (plus the journaled artifact bytes)
        over the wire, so local and merged journals agree bit for bit.
        ``seconds`` is the chunk's end-to-end wall time as measured
        where it ran (it includes retries and injected slowness the
        per-stage timings exclude — the signal straggler detection
        needs).
        """
        entry = {
            "input_digest": digest,
            "attempts": int(attempts),
            "quarantined": bool(quarantined),
            "observed_qoi_error": float(
                result.qoi_error(self.plan.norm, relative=False)
            ),
            "input_error_linf": float(result.input_error_linf),
            "input_error_l2_max": float(result.input_error_l2_max),
            "timings": {
                "compress": result.compress_seconds,
                "decompress": result.decompress_seconds,
                "inference": result.inference_seconds,
            },
            "integrity": result.extra.get("integrity", {}),
            "audit": result.extra.get("audit"),
        }
        if seconds is not None:
            entry["task_seconds"] = float(seconds)
        return journal.record(
            index,
            outputs=result.outputs,
            reference_outputs=result.reference_outputs,
            blob_bytes=blob_to_bytes(result.blob),
            entry=entry,
        )

    def _replay_chunk(
        self, journal: CheckpointJournal, entry: dict, auditor
    ) -> PipelineResult:
        """Reconstruct a completed chunk's result from the journal.

        The stored audit record (the killed run's verdicts, not a fresh
        re-audit) is adopted into the parent auditor, so a resumed run's
        registry matches an uninterrupted one chunk-for-chunk.
        """
        return self._result_from_payload(journal.load(entry), entry, auditor)

    def _result_from_payload(
        self, payload: dict, entry: dict, auditor, origin: str = "replayed"
    ) -> PipelineResult:
        """A :class:`PipelineResult` from journaled/remote chunk data.

        ``payload`` carries the arrays (``outputs``, ``reference_outputs``,
        ``blob_bytes``); ``entry`` the journal metadata.  Audit records
        riding in the entry are adopted into the live auditor, exactly as
        for process-pool workers.
        """
        extra: dict = {
            "integrity": dict(entry.get("integrity", {})),
            origin: True,
        }
        audit_dict = entry.get("audit")
        if audit_dict:
            if auditor.enabled:
                record = auditor.adopt(AuditRecord.from_dict(audit_dict))
                audit_dict = record.to_dict()
            extra["audit"] = audit_dict
        timings = entry.get("timings", {})
        return PipelineResult(
            outputs=payload["outputs"],
            reference_outputs=payload["reference_outputs"],
            blob=blob_from_bytes(payload["blob_bytes"]),
            plan=self.plan,
            compress_seconds=float(timings.get("compress", 0.0)),
            decompress_seconds=float(timings.get("decompress", 0.0)),
            inference_seconds=float(timings.get("inference", 0.0)),
            input_error_linf=float(entry.get("input_error_linf", 0.0)),
            input_error_l2_max=float(entry.get("input_error_l2_max", 0.0)),
            extra=extra,
        )

    def _run_chunks_distributed(
        self,
        chunks,
        pending: "list[int]",
        manifest: dict,
        journal: "CheckpointJournal | None",
        auditor,
        results: "dict[int, PipelineResult]",
        config,
    ) -> "tuple[dict, list[int]]":
        """Serve pending chunks as leases to remote shard workers.

        Blocks until the coordinator run resolves, materializes every
        accepted remote result into ``results`` and returns the
        coordinator summary plus whatever chunks remain uncomputed (the
        caller degrades those to the local supervised pool).  A drain
        (SIGTERM) that leaves work unfinished raises
        :class:`~repro.distrib.coordinator.DrainedError` so the caller
        exits resumable instead of silently recomputing locally.
        """
        from ..distrib.coordinator import (
            DistribConfig,
            DrainedError,
            ShardCoordinator,
        )

        coordinator = ShardCoordinator(
            manifest,
            weights=digest_model(self.model),
            journal=journal,
            completed=set(results),
            config=config if config is not None else DistribConfig(),
        )
        summary = coordinator.run()

        for index in sorted(coordinator.accepted):
            entry = coordinator.accepted[index]
            if journal is not None:
                # the merged journal holds the worker's artifact bytes
                # verbatim; replaying through it re-verifies the digest
                results[index] = self._replay_chunk(journal, entry, auditor)
                results[index].extra["remote"] = True
                results[index].extra.pop("replayed", None)
            else:
                data = coordinator.payload(index)
                with np.load(io.BytesIO(data)) as archive:
                    payload = {
                        "outputs": archive["outputs"],
                        "reference_outputs": archive["reference_outputs"],
                        "blob_bytes": archive["blob"].tobytes(),
                    }
                results[index] = self._result_from_payload(
                    payload, entry, auditor, origin="remote"
                )

        remaining = [i for i in pending if i not in results]
        if remaining and summary.get("outcome") == "drained":
            raise DrainedError(
                f"coordinator drained with {len(remaining)} chunks "
                "unfinished; re-run with resume=True to continue from the "
                "checkpoint journal"
            )
        if remaining:
            get_logger("pipeline").warning(
                "distributed run left chunks unfinished; degrading to the "
                "local supervised pool",
                outcome=summary.get("outcome"),
                remaining=len(remaining),
            )
            get_metrics().counter("distrib_degraded_local_total").inc(
                len(remaining)
            )
        return summary, remaining

    def _run_chunks_supervised(
        self,
        chunks,
        pending: "list[int]",
        samples_from_fields,
        journal: "CheckpointJournal | None",
        digests: "list[str] | None",
        auditor,
        results: "dict[int, PipelineResult]",
        *,
        n_workers: int,
        task_timeout: "float | None",
        max_task_retries: int,
        chaos,
    ) -> dict:
        """Run pending chunks on the supervised process pool.

        Fills ``results`` in place and returns the supervision summary.
        Quarantined chunks are re-run serially in the parent in degraded
        lossless mode — the run completes with every chunk certified,
        some of them at compression ratio 1.
        """

        def task_fn(index: int) -> PipelineResult:
            return self.execute(chunks[index], samples_from_fields=samples_from_fields)

        def validate(task_id: int, result) -> None:
            # Workers screen internally, but a fault (or injected
            # corruption) between the worker's guard and the parent's
            # queue must not go unnoticed: re-screen on arrival.
            if self.screen:
                screen_finite(result.outputs, stage="chunk", name="outputs")

        def on_result(task_id: int, result, outcome) -> None:
            index = pending[task_id]
            if (
                not outcome.inline
                and auditor.enabled
                and "audit" in result.extra
            ):
                record = auditor.adopt(AuditRecord.from_dict(result.extra["audit"]))
                result.extra["audit"] = record.to_dict()
            results[index] = result
            if journal is not None:
                self._journal_chunk(
                    journal,
                    index,
                    result,
                    digests[index],
                    attempts=outcome.attempts,
                    seconds=outcome.seconds,
                )

        pool = SupervisedPool(
            task_fn,
            workers=n_workers,
            task_timeout=task_timeout,
            retry=RetryPolicy(max_retries=max_task_retries),
            chaos=chaos,
            validate=validate if self.screen else None,
            label="pipeline",
        )
        report = pool.run(pending, on_result=on_result)

        quarantined_chunks = [pending[pos] for pos in report.quarantined]
        for index in quarantined_chunks:
            outcome = report.outcomes[pending.index(index)]
            get_logger("pipeline").warning(
                "quarantined chunk degrading to fallback-lossless in-process",
                chunk=index,
                attempts=outcome.attempts,
                reason=outcome.error,
            )
            started = time.perf_counter()
            result = self.execute(
                chunks[index],
                samples_from_fields=samples_from_fields,
                force_lossless=True,
            )
            results[index] = result
            if journal is not None:
                self._journal_chunk(
                    journal,
                    index,
                    result,
                    digests[index],
                    attempts=outcome.attempts,
                    quarantined=True,
                    seconds=time.perf_counter() - started,
                )

        summary = report.summary()
        summary["quarantined"] = quarantined_chunks
        summary["degraded_chunks"] = quarantined_chunks
        return summary

    def _record_telemetry(
        self,
        tracer,
        metrics,
        result: PipelineResult,
        spans: dict,
        inference_span,
        guard_span,
        root,
        observed_input_error: float,
    ) -> None:
        """Post-hoc span enrichment + counters (observability on only).

        Observed errors are only known once the reconstruction and the
        reference outputs exist, so the stage spans created earlier are
        completed here — every stage span carries both its predicted
        bound and the error actually observed.
        """
        qoi_error = result.qoi_error(self.plan.norm, relative=False)
        input_error = (
            result.input_error_linf
            if self._mode.is_pointwise
            else result.input_error_l2_max
        )
        if "compress" in spans:
            spans["compress"].set(observed_error=observed_input_error)
        if "decompress" in spans:
            spans["decompress"].set(observed_error=observed_input_error)
        inference_span.set(observed_error=qoi_error)
        guard_span.set(qoi_predicted_bound=float(self.plan.qoi_tolerance), qoi_observed_error=qoi_error)
        root.set(
            compression_ratio=result.compression_ratio,
            predicted_bound=float(self.plan.qoi_tolerance),
            observed_error=qoi_error,
            input_error=input_error,
            recoveries=result.extra["integrity"]["recoveries"],
            degraded=result.extra["integrity"]["degraded"],
        )
        metrics.counter("pipeline_executions_total", codec=self.codec.name).inc()
        for stage, seconds in (
            ("compress", result.compress_seconds),
            ("decompress", result.decompress_seconds),
            ("inference", result.inference_seconds),
        ):
            metrics.histogram("pipeline_stage_seconds", stage=stage).observe(seconds)
        metrics.gauge("pipeline_compression_ratio", codec=self.codec.name).set(
            result.compression_ratio
        )
        metrics.gauge("pipeline_qoi_error", norm=self.plan.norm).set(qoi_error)
