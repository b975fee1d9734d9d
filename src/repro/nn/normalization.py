"""Batch normalization layers.

At inference time batch norm is an affine map per channel; the error-flow
analyzer folds it into the preceding convolution via
:func:`fold_batchnorm_scale`, so the bound sees a single effective linear
operator per conv+BN pair.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError
from .module import Module, Parameter

__all__ = ["BatchNorm1d", "BatchNorm2d", "fold_batchnorm_scale"]


class _BatchNormBase(Module):
    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.gamma = Parameter(np.ones(num_features, dtype=np.float32))
        self.beta = Parameter(np.zeros(num_features, dtype=np.float32))
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)
        self._cache: tuple | None = None

    def inference_scale(self) -> np.ndarray:
        """Per-channel multiplicative factor applied at inference."""
        return self.gamma.data / np.sqrt(self.running_var + self.eps)

    def inference_shift(self) -> np.ndarray:
        """Per-channel additive offset applied at inference."""
        return self.beta.data - self.running_mean * self.inference_scale()

    def _axes(self, x: np.ndarray) -> tuple[int, ...]:
        raise NotImplementedError

    def _reshape(self, stat: np.ndarray, ndim: int) -> np.ndarray:
        shape = [1] * ndim
        shape[1] = self.num_features
        return stat.reshape(shape)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.num_features:
            raise ShapeError(
                f"batch norm expects {self.num_features} channels, got {x.shape[1]}"
            )
        axes = self._axes(x)
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            count = x.size // self.num_features
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            ).astype(np.float32)
            unbiased = var * count / max(count - 1, 1)
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * unbiased
            ).astype(np.float32)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - self._reshape(mean, x.ndim)) * self._reshape(inv_std, x.ndim)
        self._cache = (x_hat, inv_std, axes) if self.training else None
        return self._reshape(self.gamma.data, x.ndim) * x_hat + self._reshape(
            self.beta.data, x.ndim
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x_hat, inv_std, axes = self._cache
        self.gamma.grad += (grad_output * x_hat).sum(axis=axes)
        self.beta.grad += grad_output.sum(axis=axes)
        gamma = self._reshape(self.gamma.data, grad_output.ndim)
        grad_x_hat = grad_output * gamma
        mean_g = grad_x_hat.mean(axis=axes, keepdims=True)
        mean_gx = (grad_x_hat * x_hat).mean(axis=axes, keepdims=True)
        return (grad_x_hat - mean_g - x_hat * mean_gx) * self._reshape(
            inv_std, grad_output.ndim
        )


class BatchNorm1d(_BatchNormBase):
    """Batch norm over ``(N, C)`` feature batches."""

    def _axes(self, x: np.ndarray) -> tuple[int, ...]:
        if x.ndim != 2:
            raise ShapeError(f"BatchNorm1d expects (N, C); got {x.shape}")
        return (0,)


class BatchNorm2d(_BatchNormBase):
    """Batch norm over ``(N, C, H, W)`` image batches."""

    def _axes(self, x: np.ndarray) -> tuple[int, ...]:
        if x.ndim != 4:
            raise ShapeError(f"BatchNorm2d expects (N, C, H, W); got {x.shape}")
        return (0, 2, 3)


def fold_batchnorm_scale(conv_matrix: np.ndarray, bn: _BatchNormBase) -> np.ndarray:
    """Fold a batch norm's inference scale into a matricized conv kernel.

    Each row of ``conv_matrix`` produces one output channel, so folding
    multiplies row ``c`` by the BN scale of channel ``c``.  The result is
    the effective linear operator seen at inference, which is what the
    spectral analysis must measure.
    """
    scale = bn.inference_scale()
    if conv_matrix.shape[0] != scale.shape[0]:
        raise ShapeError(
            f"conv rows {conv_matrix.shape[0]} != bn channels {scale.shape[0]}"
        )
    return conv_matrix * scale[:, None]
