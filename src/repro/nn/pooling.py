"""Pooling and reshaping layers for convolutional models."""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError
from .functional import im2col
from .module import Module

__all__ = ["MaxPool2d", "AvgPool2d", "GlobalAvgPool2d", "Flatten"]


class MaxPool2d(Module):
    """Max pooling with square window; Lipschitz constant 1 in L2."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0) -> None:
        super().__init__()
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else int(kernel_size)
        self.padding = int(padding)
        self._argmax: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None
        self._out_hw: tuple[int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"MaxPool2d expects (N, C, H, W); got {x.shape}")
        n, c, h, w = x.shape
        p = self.padding
        # Pad with -inf so padded cells never win the max, then pool per
        # channel by treating channels as batch entries.
        padded = x if p == 0 else np.pad(
            x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=-np.inf
        )
        kernel = (self.kernel_size, self.kernel_size)
        cols, (out_h, out_w) = im2col(
            padded.reshape(n * c, 1, h + 2 * p, w + 2 * p), kernel, self.stride, 0
        )
        argmax = np.argmax(cols, axis=1)
        self._argmax = argmax if self.training else None
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
        out = cols[np.arange(cols.shape[0]), argmax]
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        n, c, h, w = self._x_shape
        out_h, out_w = self._out_hw
        k = self.kernel_size
        p = self.padding
        grad_cols = np.zeros((n * c * out_h * out_w, k * k), dtype=grad_output.dtype)
        grad_cols[np.arange(grad_cols.shape[0]), self._argmax] = grad_output.reshape(-1)
        from .functional import col2im

        grad = col2im(
            grad_cols, (n * c, 1, h + 2 * p, w + 2 * p), (k, k), self.stride, 0
        )
        grad = grad.reshape(n, c, h + 2 * p, w + 2 * p)
        if p > 0:
            grad = grad[:, :, p : p + h, p : p + w]
        return grad


class AvgPool2d(Module):
    """Average pooling with square window."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0) -> None:
        super().__init__()
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else int(kernel_size)
        self.padding = int(padding)
        self._x_shape: tuple[int, ...] | None = None
        self._out_hw: tuple[int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"AvgPool2d expects (N, C, H, W); got {x.shape}")
        n, c, h, w = x.shape
        kernel = (self.kernel_size, self.kernel_size)
        cols, (out_h, out_w) = im2col(
            x.reshape(n * c, 1, h, w), kernel, self.stride, self.padding
        )
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
        return cols.mean(axis=1).reshape(n, c, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        n, c, h, w = self._x_shape
        out_h, out_w = self._out_hw
        k = self.kernel_size
        grad_cols = np.repeat(
            grad_output.reshape(-1, 1) / (k * k), k * k, axis=1
        ).astype(grad_output.dtype)
        from .functional import col2im

        grad = col2im(grad_cols, (n * c, 1, h, w), (k, k), self.stride, self.padding)
        return grad.reshape(n, c, h, w)


class GlobalAvgPool2d(Module):
    """Average over all spatial positions, ``(N, C, H, W) -> (N, C)``."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"GlobalAvgPool2d expects (N, C, H, W); got {x.shape}")
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        n, c, h, w = self._x_shape
        return np.broadcast_to(
            grad_output[:, :, None, None] / (h * w), (n, c, h, w)
        ).astype(grad_output.dtype)


class Flatten(Module):
    """Flatten all non-batch dimensions, ``(N, ...) -> (N, prod(...))``."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output.reshape(self._x_shape)
