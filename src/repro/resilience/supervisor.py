"""Supervised process-based worker pool for chunked execution.

The thread pool in :mod:`repro.perf.parallel` overlaps GIL-releasing
I/O, but CPU-bound numpy inference gains nothing from it (BENCH_pr4:
0.97x).  This module supplies the missing half: a pool of **forked
worker processes** — true multi-core parallelism, zero-copy inheritance
of the model/chunks at fork time — wrapped in the supervision a
long-running production run needs:

* **heartbeats & deadlines** — every worker beats a shared timestamp
  slot from a daemon thread; the supervisor kills and replaces workers
  whose task exceeded its deadline or whose heartbeat went stale;
* **death detection & respawn** — a worker that dies (OOM-kill, crash,
  injected SIGKILL) is detected by liveness polling, its in-flight task
  is rescheduled, and a fresh worker is forked in its place;
* **bounded retry with backoff** — failed tasks are re-queued under a
  :class:`~repro.resilience.retry.RetryPolicy` (exponential backoff +
  deterministic jitter), never hammered;
* **poison-task quarantine** — a task that keeps failing after its
  retry budget is quarantined instead of sinking the run; the caller
  decides how to degrade it (the pipeline falls back to lossless,
  serial execution via :mod:`repro.resilience.policy`);
* **circuit breaker** — too many worker deaths trip the breaker: the
  pool is abandoned and every remaining task runs serially in-process,
  so a sick host degrades to slow, never to failed.

Results are reported through an ``on_result`` callback *as tasks
complete* (the checkpoint journal hook) and collected into a
:class:`SupervisionReport`; per-worker **metrics deltas** (counters
incremented inside the forked children) ride back with each result and
are merged into the parent registry, so `pipeline_executions_total`
and friends stay accurate across process boundaries.

Ordering guarantee: task ids are list indices and the report exposes
results in id order, so supervised and serial execution produce
identical assembled outputs.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import queue as queue_mod
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from ..exceptions import ConfigurationError, ReproError
from ..obs import get_logger, get_metrics, get_tracer
from .retry import RetryPolicy

__all__ = [
    "CircuitBreaker",
    "SupervisedPool",
    "SupervisionReport",
    "TaskOutcome",
    "fork_available",
]

_LOG = get_logger("supervisor")

#: supervisor poll granularity (seconds) — bounds fault-detection latency
_TICK = 0.05

#: worker join grace after the shutdown sentinel before a hard kill
_JOIN_GRACE = 1.0


def fork_available() -> bool:
    """Whether fork-based worker processes are supported on this host."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


@dataclass
class TaskOutcome:
    """Terminal state of one supervised task."""

    task_id: int
    result: object = None
    attempts: int = 1
    quarantined: bool = False
    error: "str | None" = None
    inline: bool = False
    #: wall seconds of the successful attempt as measured where it ran
    #: (inside the forked child for pool execution) — includes injected
    #: chaos delays, which is what straggler analysis wants to see
    seconds: "float | None" = None


@dataclass
class SupervisionReport:
    """What one :meth:`SupervisedPool.run` observed and produced."""

    outcomes: "dict[int, TaskOutcome]" = field(default_factory=dict)
    retries: int = 0
    respawns: int = 0
    quarantined: "list[int]" = field(default_factory=list)
    breaker_tripped: bool = False
    workers: int = 0
    executor: str = "process"

    def results(self) -> list:
        """Results in task-id order (``None`` for quarantined tasks)."""
        return [
            self.outcomes[task_id].result
            for task_id in sorted(self.outcomes)
        ]

    def summary(self) -> dict:
        return {
            "executor": self.executor,
            "workers": self.workers,
            "tasks": len(self.outcomes),
            "retries": self.retries,
            "respawns": self.respawns,
            "quarantined": list(self.quarantined),
            "breaker_tripped": self.breaker_tripped,
        }


class CircuitBreaker:
    """Trips after ``threshold`` pool-level faults (worker respawns,
    queue corruption); once tripped the pool stops being trusted."""

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ConfigurationError(
                f"breaker threshold must be >= 1, got {threshold}"
            )
        self.threshold = threshold
        self.faults = 0
        self.tripped = False
        self.reason = ""

    def record_fault(self, reason: str) -> bool:
        """Count one fault; returns True when this one tripped the breaker."""
        self.faults += 1
        if not self.tripped and self.faults >= self.threshold:
            self.tripped = True
            self.reason = reason
            return True
        return False

    def trip(self, reason: str) -> None:
        self.tripped = True
        self.reason = reason


class _Worker:
    """Parent-side handle: process, dedicated task queue, current task."""

    __slots__ = ("process", "queue", "current")

    def __init__(self, process, task_queue) -> None:
        self.process = process
        self.queue = task_queue
        # (task_id, attempt, dispatched_at) or None when idle
        self.current: "tuple[int, int, float] | None" = None


class SupervisedPool:
    """Fault-tolerant map over forked worker processes.

    Parameters
    ----------
    task_fn:
        Callable executed as ``task_fn(payload)`` inside a worker.
        Thanks to fork inheritance it may be a closure over arbitrarily
        heavy state (models, chunk arrays) — nothing is pickled except
        task payloads and results.
    workers:
        Pool size; ``<= 1`` (or a fork-less platform) runs every task
        inline in-process — supervision bookkeeping without processes.
    task_timeout:
        Per-task deadline in seconds measured from dispatch; expiry
        kills the worker and reschedules the task.  ``None`` disables.
    retry:
        Backoff/budget schedule for failed tasks (default
        ``RetryPolicy()``: 2 retries, 50 ms base, 2 s cap, 10% jitter).
    heartbeat_interval:
        Period of the worker heartbeat thread.
    stale_after:
        Kill a busy worker whose heartbeat is older than this many
        seconds (a frozen process — e.g. SIGSTOP — that is alive but
        not making progress).  ``None`` disables.
    breaker_threshold:
        Pool faults before the circuit breaker trips (default
        ``2 * workers + 1``).
    chaos:
        Optional :class:`~repro.resilience.inject.ChaosInjector`
        executed *inside workers* around each task (never inline in the
        parent) — the fault-injection seam the chaos tests and the CI
        chaos-smoke job use.
    validate:
        Optional ``validate(task_id, result)`` called in the parent on
        every completed result; raising treats the result as a task
        failure (corrupt-result detection).
    label:
        Metrics/trace label for this pool.
    """

    def __init__(
        self,
        task_fn: Callable,
        workers: "int | None" = None,
        *,
        task_timeout: "float | None" = None,
        retry: "RetryPolicy | None" = None,
        heartbeat_interval: float = 0.1,
        stale_after: "float | None" = 30.0,
        breaker_threshold: "int | None" = None,
        chaos=None,
        validate: "Callable | None" = None,
        label: str = "supervised",
    ) -> None:
        from ..perf.parallel import resolve_workers

        self.task_fn = task_fn
        self.workers = resolve_workers(workers)
        if task_timeout is not None and task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be positive, got {task_timeout}"
            )
        self.task_timeout = task_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.heartbeat_interval = float(heartbeat_interval)
        self.stale_after = stale_after
        self.breaker = CircuitBreaker(
            breaker_threshold
            if breaker_threshold is not None
            else 2 * self.workers + 1
        )
        self.chaos = chaos
        self.validate = validate
        self.label = label

    # -- public entry point ------------------------------------------------

    def run(self, payloads, on_result: "Callable | None" = None) -> SupervisionReport:
        """Execute every payload under supervision.

        ``on_result(task_id, result, outcome)`` fires in completion
        order for each successful task — the journaling hook.  Returns
        a :class:`SupervisionReport`; quarantined tasks appear in
        ``report.quarantined`` with an errored :class:`TaskOutcome`.
        """
        tasks = list(payloads)
        report = SupervisionReport(workers=self.workers)
        if not tasks:
            return report
        if self.workers <= 1 or not fork_available():
            report.executor = "inline"
            report.workers = 1
            self._run_inline(range(len(tasks)), tasks, report, on_result, {})
            return report
        tracer = get_tracer()
        with tracer.span(
            "supervisor.run", pool=self.label, tasks=len(tasks), workers=self.workers
        ) as span:
            self._run_supervised(tasks, report, on_result)
            span.set(**report.summary())
        return report

    # -- inline (serial / degraded) execution ------------------------------

    def _run_inline(self, task_ids, tasks, report, on_result, attempts_used) -> None:
        """Serial in-process execution with the same retry/quarantine
        semantics; used for ``workers <= 1`` and after a breaker trip.
        Chaos is never applied here — it models *worker* faults, and the
        parent must survive them."""
        metrics = get_metrics()
        for task_id in task_ids:
            attempt = attempts_used.get(task_id, 0)
            last_error = None
            result = None
            while True:
                started = time.perf_counter()
                try:
                    result = self.task_fn(tasks[task_id])
                    if self.validate is not None:
                        self.validate(task_id, result)
                    last_error = None
                except ReproError as exc:
                    last_error = f"{type(exc).__name__}: {exc}"
                except Exception as exc:
                    last_error = f"{type(exc).__name__}: {exc}"
                attempt += 1
                if last_error is None:
                    outcome = TaskOutcome(
                        task_id=task_id, result=result, attempts=attempt, inline=True,
                        seconds=time.perf_counter() - started,
                    )
                    report.outcomes[task_id] = outcome
                    if on_result is not None:
                        on_result(task_id, result, outcome)
                    break
                if attempt > self.retry.max_retries:
                    self._quarantine(report, task_id, attempt, last_error)
                    break
                report.retries += 1
                metrics.counter("chunk_retries_total", pool=self.label).inc()
                time.sleep(self.retry.delay(attempt - 1))

    # -- supervised process-pool execution ---------------------------------

    def _run_supervised(self, tasks, report, on_result) -> None:
        ctx = multiprocessing.get_context("fork")
        self._out_q = ctx.Queue()
        self._heartbeat = ctx.Array("d", self.workers, lock=False)
        self._in_queues = [ctx.Queue() for _ in range(self.workers)]
        workers: "dict[int, _Worker]" = {}
        for slot in range(self.workers):
            workers[slot] = self._spawn(ctx, slot)

        n = len(tasks)
        ready: list = [(0.0, task_id, 0) for task_id in range(n)]
        heapq.heapify(ready)
        failures: "dict[int, int]" = {}
        resolved: set = set()
        metrics = get_metrics()
        tracer = get_tracer()

        def fail_task(task_id: int, attempt: int, reason: str) -> None:
            failures[task_id] = failures.get(task_id, 0) + 1
            count = failures[task_id]
            if count > self.retry.max_retries:
                self._quarantine(report, task_id, count, reason)
                resolved.add(task_id)
                return
            delay = self.retry.delay(count - 1)
            heapq.heappush(ready, (time.monotonic() + delay, task_id, count))
            report.retries += 1
            metrics.counter("chunk_retries_total", pool=self.label).inc()
            _LOG.warning(
                "task failed; retrying with backoff",
                task=task_id, attempt=count, backoff_s=round(delay, 4), reason=reason,
            )

        def respawn(slot: int, reason: str) -> None:
            worker = workers[slot]
            self._kill(worker)
            report.respawns += 1
            metrics.counter("worker_restarts_total", pool=self.label).inc()
            if self.breaker.record_fault(reason):
                _LOG.error(
                    "circuit breaker tripped: pool unhealthy, degrading to "
                    "serial in-process execution",
                    faults=self.breaker.faults, reason=reason,
                )
                metrics.counter("circuit_breaker_trips_total", pool=self.label).inc()
                return
            if self.breaker.tripped:
                return  # pool already condemned; don't refill it
            _LOG.warning("respawning worker", slot=slot, reason=reason)
            workers[slot] = self._spawn(ctx, slot)

        try:
            # quarantined tasks also land in report.outcomes, so outcome
            # count alone is the terminal-task count
            while len(report.outcomes) < n and not self.breaker.tripped:
                now = time.monotonic()
                # dispatch ready tasks to idle live workers
                for slot, worker in workers.items():
                    if worker.current is not None or not worker.process.is_alive():
                        continue
                    while ready and ready[0][0] <= now:
                        __, task_id, attempt = heapq.heappop(ready)
                        if task_id in resolved or task_id in report.outcomes:
                            continue
                        worker.queue.put((task_id, attempt, tasks[task_id]))
                        worker.current = (task_id, attempt, now)
                        break

                # wait for worker traffic
                try:
                    message = self._out_q.get(timeout=_TICK)
                except queue_mod.Empty:
                    message = None
                except Exception as exc:
                    # a killed writer can tear a queued pickle; the pool's
                    # transport is no longer trustworthy
                    self.breaker.trip(f"result queue corrupted: {exc}")
                    _LOG.error("result queue corrupted; tripping breaker", error=str(exc))
                    break

                if message is not None:
                    kind = message[0]
                    if kind == "start":
                        pass  # dispatch time already anchors the deadline
                    elif kind == "done":
                        __, slot, task_id, result, delta, child_spans, seconds = message
                        worker = workers.get(slot)
                        if worker is not None and worker.current is not None and (
                            worker.current[0] == task_id
                        ):
                            worker.current = None
                        if task_id in report.outcomes or task_id in resolved:
                            continue  # late duplicate from a kill race
                        if delta and metrics.enabled:
                            metrics.merge_counter_deltas(delta)
                        attempts = failures.get(task_id, 0) + 1
                        try:
                            if self.validate is not None:
                                self.validate(task_id, result)
                        except Exception as exc:
                            fail_task(task_id, attempts, f"invalid result: {exc}")
                            continue
                        outcome = TaskOutcome(
                            task_id=task_id, result=result, attempts=attempts,
                            seconds=seconds,
                        )
                        report.outcomes[task_id] = outcome
                        with tracer.span(
                            "supervisor.task", pool=self.label, task=task_id,
                            attempts=attempts, worker=slot,
                        ) as task_span:
                            if seconds is not None:
                                task_span.set(task_seconds=seconds)
                            if on_result is not None:
                                on_result(task_id, result, outcome)
                        # adopt the child's spans under the task span so
                        # the fork boundary disappears from the trace
                        if child_spans and tracer.enabled:
                            tracer.merge_remote(child_spans, parent=task_span)
                    elif kind == "error":
                        __, slot, task_id, error_text = message
                        worker = workers.get(slot)
                        if worker is not None and worker.current is not None and (
                            worker.current[0] == task_id
                        ):
                            worker.current = None
                        if task_id not in report.outcomes and task_id not in resolved:
                            fail_task(
                                task_id, failures.get(task_id, 0) + 1, error_text
                            )

                # liveness / deadline / heartbeat sweep
                now = time.monotonic()
                for slot in list(workers):
                    worker = workers[slot]
                    current = worker.current
                    if not worker.process.is_alive():
                        worker.current = None
                        if current is not None:
                            fail_task(current[0], current[1] + 1, "worker died")
                        respawn(slot, "worker death")
                    elif current is not None and self.task_timeout is not None and (
                        now - current[2] > self.task_timeout
                    ):
                        worker.current = None
                        fail_task(
                            current[0],
                            current[1] + 1,
                            f"deadline expired after {self.task_timeout}s",
                        )
                        respawn(slot, "task deadline expired")
                    elif current is not None and self.stale_after is not None and (
                        now - self._heartbeat[slot] > self.stale_after
                    ):
                        worker.current = None
                        fail_task(current[0], current[1] + 1, "heartbeat went stale")
                        respawn(slot, "stale heartbeat")
        finally:
            in_flight = [w.current[0] for w in workers.values() if w.current]
            self._shutdown(workers)

        if self.breaker.tripped:
            report.breaker_tripped = True
            remaining = [
                task_id
                for task_id in range(n)
                if task_id not in report.outcomes
                and task_id not in set(report.quarantined)
            ]
            _LOG.warning(
                "executing remaining tasks serially in-process",
                remaining=len(remaining), in_flight=len(in_flight),
            )
            self._run_inline(remaining, tasks, report, on_result, dict(failures))

    # -- helpers -----------------------------------------------------------

    def _quarantine(self, report, task_id: int, attempts: int, reason: str) -> None:
        outcome = TaskOutcome(
            task_id=task_id, attempts=attempts, quarantined=True, error=reason
        )
        report.outcomes[task_id] = outcome
        report.quarantined.append(task_id)
        get_metrics().gauge("quarantined_chunks", pool=self.label).inc()
        _LOG.error(
            "task quarantined after exhausting its retry budget",
            task=task_id, attempts=attempts, reason=reason,
        )

    def _spawn(self, ctx, slot: int) -> _Worker:
        self._heartbeat[slot] = time.monotonic()
        process = ctx.Process(
            target=self._worker_main,
            args=(slot,),
            name=f"{self.label}-{slot}",
            daemon=True,
        )
        process.start()
        return _Worker(process, self._in_queues[slot])

    def _kill(self, worker: _Worker) -> None:
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=_JOIN_GRACE)

    def _shutdown(self, workers: "dict[int, _Worker]") -> None:
        for worker in workers.values():
            if worker.process.is_alive():
                try:
                    worker.queue.put(None)
                except Exception:
                    pass
        deadline = time.monotonic() + _JOIN_GRACE
        for worker in workers.values():
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=_JOIN_GRACE)
        for q in [*self._in_queues, self._out_q]:
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:
                pass

    # -- worker side -------------------------------------------------------

    def _worker_main(self, slot: int) -> None:  # pragma: no cover - forked child
        """Forked worker loop: beat, take task, run, report, repeat."""
        from ..obs import get_auditor, set_auditor, set_tracer
        from ..obs.trace import Tracer

        # The child inherits the parent's live observability singletons.
        # The inherited tracer holds parent-owned spans and a shared lock,
        # so it is replaced: with tracing live the child gets its *own*
        # tracer carrying the inherited trace context (the parent's
        # ``supervisor.run`` span is still on this thread's stack, so
        # ``inject()`` anchors there), and its finished spans ship back
        # with each result for ``merge_remote`` to adopt.  A
        # registry-backed auditor would race the parent on run-id
        # assignment — detach it; metrics stay live so counter deltas
        # can be measured and shipped back with each result.
        parent_tracer = get_tracer()
        child_tracer = None
        if parent_tracer.enabled:
            child_tracer = Tracer(remote_context=parent_tracer.inject())
        set_tracer(child_tracer)
        auditor = get_auditor()
        if auditor.enabled:
            set_auditor(auditor.detached())

        in_q = self._in_queues[slot]
        out_q = self._out_q
        heartbeat = self._heartbeat
        stop = threading.Event()

        def beat() -> None:
            while not stop.is_set():
                heartbeat[slot] = time.monotonic()
                stop.wait(self.heartbeat_interval)

        threading.Thread(target=beat, daemon=True, name="heartbeat").start()

        metrics = get_metrics()
        baseline = metrics.counter_snapshot() if metrics.enabled else {}
        span_cursor = 0
        while True:
            message = in_q.get()
            if message is None:
                break
            task_id, attempt, payload = message
            out_q.put(("start", slot, task_id))
            started = time.perf_counter()
            try:
                if self.chaos is not None:
                    self.chaos.before_task(task_id, attempt)
                result = self.task_fn(payload)
                if self.chaos is not None:
                    result = self.chaos.after_task(task_id, attempt, result)
                if metrics.enabled:
                    current = metrics.counter_snapshot()
                    delta = metrics.counter_delta(current, baseline)
                    baseline = current
                else:
                    delta = {}
                if child_tracer is not None:
                    spans, span_cursor = child_tracer.dicts_since(span_cursor)
                else:
                    spans = []
                seconds = time.perf_counter() - started
                out_q.put(("done", slot, task_id, result, delta, spans, seconds))
            except BaseException as exc:
                detail = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
                try:
                    out_q.put(("error", slot, task_id, detail))
                except Exception:
                    os._exit(1)
        stop.set()
