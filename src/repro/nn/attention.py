"""Transformer components — the paper's Section VI extension target.

"Scientific community is increasingly deploying more complex surrogate
models, such as U-Nets and transformers ... We intend to deepen our
theoretical foundations in subsequent research, with a special focus on
applying these methods to transformer-based weather prediction tasks."

This module provides the substrate that future error-flow derivation
needs: :class:`LayerNorm`, :class:`MultiHeadSelfAttention` and
:class:`TransformerBlock`, all with exact numpy backward passes so the
blocks are trainable.  Closed-form Eq. (3)-style bounds for attention are
open research (softmax attention is not globally Lipschitz); the library
pairs these modules with the *empirical* local-Lipschitz estimator in
:func:`repro.core.sensitivity.empirical_lipschitz`.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError
from .functional import softmax
from .linear import Linear
from .module import Module, Parameter

__all__ = ["LayerNorm", "MultiHeadSelfAttention", "TransformerBlock"]


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = int(dim)
        self.eps = float(eps)
        self.gamma = Parameter(np.ones(dim, dtype=np.float32))
        self.beta = Parameter(np.zeros(dim, dtype=np.float32))
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.dim:
            raise ShapeError(f"LayerNorm({self.dim}) got trailing dim {x.shape[-1]}")
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        self._cache = (x_hat, inv_std) if self.training else None
        return self.gamma.data * x_hat + self.beta.data

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x_hat, inv_std = self._cache
        axes = tuple(range(grad_output.ndim - 1))
        self.gamma.grad += (grad_output * x_hat).sum(axis=axes)
        self.beta.grad += grad_output.sum(axis=axes)
        grad_x_hat = grad_output * self.gamma.data
        mean_g = grad_x_hat.mean(axis=-1, keepdims=True)
        mean_gx = (grad_x_hat * x_hat).mean(axis=-1, keepdims=True)
        return (grad_x_hat - mean_g - x_hat * mean_gx) * inv_std


class MultiHeadSelfAttention(Module):
    """Standard scaled-dot-product multi-head self-attention.

    Input/output shape ``(N, T, D)``.  Projections are plain
    :class:`Linear` layers (their spectral norms remain inspectable for
    future bound derivations).
    """

    def __init__(
        self, d_model: int, n_heads: int, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        if d_model % n_heads != 0:
            raise ShapeError(f"d_model {d_model} not divisible by n_heads {n_heads}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.d_model = int(d_model)
        self.n_heads = int(n_heads)
        self.d_head = d_model // n_heads
        self.query = Linear(d_model, d_model, rng=rng, weight_init="xavier_uniform")
        self.key = Linear(d_model, d_model, rng=rng, weight_init="xavier_uniform")
        self.value = Linear(d_model, d_model, rng=rng, weight_init="xavier_uniform")
        self.out = Linear(d_model, d_model, rng=rng, weight_init="xavier_uniform")
        self._cache: tuple | None = None

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        n, t, __ = x.shape
        return x.reshape(n, t, self.n_heads, self.d_head).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        n, __, t, __ = x.shape
        return x.transpose(0, 2, 1, 3).reshape(n, t, self.d_model)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[-1] != self.d_model:
            raise ShapeError(f"attention expects (N, T, {self.d_model}); got {x.shape}")
        q = self._split_heads(self.query(x))
        k = self._split_heads(self.key(x))
        v = self._split_heads(self.value(x))
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(self.d_head)
        attn = softmax(scores, axis=-1)
        context = attn @ v
        self._cache = (q, k, v, attn) if self.training else None
        return self.out(self._merge_heads(context))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        q, k, v, attn = self._cache
        grad_context = self._split_heads(self.out.backward(grad_output))
        grad_attn = grad_context @ v.transpose(0, 1, 3, 2)
        grad_v = attn.transpose(0, 1, 3, 2) @ grad_context
        # softmax backward: dL/ds = attn * (g - sum(g * attn))
        inner = (grad_attn * attn).sum(axis=-1, keepdims=True)
        grad_scores = attn * (grad_attn - inner) / np.sqrt(self.d_head)
        grad_q = grad_scores @ k
        grad_k = grad_scores.transpose(0, 1, 3, 2) @ q
        grad_x = self.query.backward(self._merge_heads(grad_q))
        grad_x = grad_x + self.key.backward(self._merge_heads(grad_k))
        grad_x = grad_x + self.value.backward(self._merge_heads(grad_v))
        return grad_x


class TransformerBlock(Module):
    """Pre-LN transformer block: attention + MLP, each with residual."""

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        mlp_ratio: int = 4,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(0)
        self.norm1 = LayerNorm(d_model)
        self.attention = MultiHeadSelfAttention(d_model, n_heads, rng=rng)
        self.norm2 = LayerNorm(d_model)
        hidden = d_model * mlp_ratio
        self.mlp_in = Linear(d_model, hidden, rng=rng, weight_init="xavier_uniform")
        self.mlp_out = Linear(hidden, d_model, rng=rng, weight_init="xavier_uniform")
        from .activations import GELU

        self.mlp_act = GELU()

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = x + self.attention(self.norm1(x))
        return x + self.mlp_out(self.mlp_act(self.mlp_in(self.norm2(x))))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_mlp = self.mlp_in.backward(
            self.mlp_act.backward(self.mlp_out.backward(grad_output))
        )
        grad = grad_output + self.norm2.backward(grad_mlp)
        grad_attention = self.attention.backward(grad)
        return grad + self.norm1.backward(grad_attention)
