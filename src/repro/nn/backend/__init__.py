"""The pipeline's forward-call seam.

:class:`CompiledForward` calls ``model(x)``: the interpreter is the only
forward path.  It exists because ``perfbench/ledger.py`` wraps
``repro.nn.backend.CompiledForward.__call__`` to time the ``nn.forward``
layer metric (and reads ``last_fallback_reason``); a rename is a change
to the benchmark.
"""

from __future__ import annotations

__all__ = ["CompiledForward"]


class CompiledForward:
    """``CompiledForward(model)(x)`` is ``model(x)``."""

    #: always ``None``; read by the benchmark's ``nn.fallback_ratio``
    last_fallback_reason = None

    def __init__(self, model) -> None:
        self.model = model

    def __call__(self, x):
        return self.model(x)
