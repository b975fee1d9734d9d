"""Per-layer span ledger for the traced benchmark run.

Spans are recorded from the benchmark's own files: :func:`layer_patches`
lists the public callables of each layer, and :class:`SpanLedger` swaps
each one for a wrapper that records ``(op, name, start, end, parent)``
in memory while installed.  The program's code path is unchanged; the
wrappers only add a clock read and a list append around each call.

Spans recorded inside forked pool workers stay in the worker and are
lost, so on the chunked workload only the parent-side layers
(``resilience.pool``, ``io.journal``, ``pipeline.ctor``) carry time.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    op: int
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    children: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Patch:
    """One wrapped callable: ``getattr(owner, attr)`` is timed as ``layer``.

    ``count(args, kwargs, result, seconds)`` optionally returns counters
    to add up over the traced ops (symbols coded, bytes journaled, ...).
    """

    layer: str
    owner: object
    attr: str
    count: object = None


class SpanLedger:
    """In-memory span recorder for one single-threaded benchmark process."""

    def __init__(self, patches) -> None:
        self.patches = list(patches)
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list = []
        self.op = -1

    # -- install / uninstall ---------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("span ledger already installed")
        for patch in self.patches:
            original = patch.owner.__dict__[patch.attr]
            self._saved.append((patch.owner, patch.attr, original))
            setattr(patch.owner, patch.attr, self._wrap(patch, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, patch: Patch, original):
        ledger = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = ledger.open(patch.layer)
            try:
                result = original(*args, **kwargs)
            finally:
                ledger.close(index)
            if patch.count is not None:
                seconds = ledger.spans[index].seconds
                ledger.add(patch.count(args, kwargs, result, seconds))
            return result

        return wrapper

    # -- spans -----------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(self.op, name, time.perf_counter(), parent=parent))
        if parent >= 0:
            self.spans[parent].children.append(index)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span ledger closed spans out of order")

    def add(self, counts: dict) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0.0) + float(value)

    def to_dicts(self) -> list[dict]:
        return [
            {
                "op": span.op,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
            }
            for span in self.spans
        ]


def busy_seconds(spans: list[Span], name: str) -> float:
    """Time inside ``name`` spans, counting a span nested in another
    span of the same name once."""
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        nested = False
        while parent >= 0:
            if spans[parent].name == name:
                nested = True
                break
            parent = spans[parent].parent
        if not nested:
            total += span.seconds
    return total


def self_seconds(spans: list[Span], name: str) -> float:
    """Time inside ``name`` spans not covered by any child span."""
    total = 0.0
    for span in spans:
        if span.name == name:
            total += span.seconds - sum(spans[c].seconds for c in span.children)
    return total


def layer_patches() -> list[Patch]:
    """Every public callable the per-layer metrics wrap, by layer."""
    from repro.compress import base, huffman, mgard, sz, zfp
    from repro.core import errorflow, pipeline, planner
    from repro.io import checkpoint
    from repro.nn import backend
    from repro.obs import audit
    from repro.resilience import guards, supervisor

    def encoded(args, kwargs, blob, seconds):
        return {
            "blobs": 1,
            "lossless_blobs": int(bool(blob.metadata.get("lossless", False))),
        }

    def decoded(args, kwargs, data, seconds):
        codec, blob = args[0].name, args[1]
        return {
            f"decoded_bytes.{codec}": data.nbytes,
            f"decoded_payload_bytes.{codec}": blob.nbytes,
            f"decode_seconds.{codec}": seconds,
        }

    def symbols(args, kwargs, result, seconds):
        values = args[0] if args else kwargs["symbols"]
        return {"symbols": getattr(values, "size", 0)}

    def forward(args, kwargs, result, seconds):
        compiled = args[0]
        return {
            "forward_calls": 1,
            "forward_samples": len(args[1]),
            "forward_fallbacks": int(compiled.last_fallback_reason is not None),
        }

    def journaled(args, kwargs, result, seconds):
        return {"journal_bytes": len(kwargs["data"])}

    patches = [
        Patch("compress.encode", base.Compressor, "compress", encoded),
        Patch("compress.decode", base.Compressor, "safe_decompress", decoded),
        Patch("compress.pack_codes", huffman, "pack_codes"),
        Patch("nn.forward", backend.CompiledForward, "__call__", forward),
        Patch("quant.quantize", pipeline, "quantize_model"),
        Patch("core.plan", planner.TolerancePlanner, "plan"),
        Patch("core.bound_eval", errorflow.ErrorFlowAnalyzer, "quantization_bound"),
        Patch(
            "core.bound_eval", errorflow.ErrorFlowAnalyzer, "invert_compression_tolerance"
        ),
        Patch("audit.audit", audit.LayerwiseErrorRecorder, "audit"),
        Patch("resilience.pool", supervisor.SupervisedPool, "run"),
        Patch("resilience.guard", pipeline, "screen_finite"),
        Patch("resilience.guard", pipeline, "check_contract"),
        # safe_decompress imports screen_finite from the guards module
        # at call time, so the module attribute is the one it calls.
        Patch("resilience.guard", guards, "screen_finite"),
        Patch("io.journal", checkpoint.CheckpointJournal, "record"),
        Patch("io.journal", checkpoint.CheckpointJournal, "record_raw", journaled),
        Patch("pipeline.ctor", pipeline.InferencePipeline, "__init__"),
    ]
    for codec in (sz, zfp, mgard):
        patches.append(Patch("compress.huffman_encode", codec, "huffman_encode", symbols))
        patches.append(Patch("compress.huffman_decode", codec, "huffman_decode"))
    return patches
