"""2-D convolution layers (plain and spectrally normalized).

Convolutions run as a single matmul over im2col patch columns.  For the
error-flow analysis, the layer exposes its matricized kernel
``(out_channels, in_channels * kh * kw)`` — the spectral norm of that
matrix is the standard spectral-normalization surrogate for the conv
operator norm (Miyato et al., paper ref. [19]) and is what the quantizer
rounds.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError
from .functional import col2im, im2col
from .init import kaiming_uniform
from .module import Module, Parameter
from .spectral import PowerIterationState, spectral_norm

__all__ = ["Conv2d", "SpectralConv2d"]


class Conv2d(Module):
    """Standard 2-D convolution with symmetric zero padding.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Square kernel edge length.
    stride, padding:
        Convolution geometry.
    bias:
        Whether to learn a per-output-channel bias.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) <= 0 or padding < 0:
            raise ShapeError("conv dimensions must be positive (padding non-negative)")
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(kaiming_uniform(shape, rng))
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None
        self._out_hw: tuple[int, int] | None = None

    def matricized_weight(self) -> np.ndarray:
        """Kernel reshaped to ``(out_channels, in_channels * kh * kw)``."""
        return self.weight.data.reshape(self.out_channels, -1)

    def effective_weight(self) -> np.ndarray:
        return self.matricized_weight()

    def effective_bias(self) -> np.ndarray | None:
        return None if self.bias is None else self.bias.data

    def set_matricized_weight(self, matrix: np.ndarray) -> None:
        """Write back a (possibly quantized) matricized kernel."""
        if matrix.shape != (self.out_channels, self.in_channels * self.kernel_size**2):
            raise ShapeError(f"matricized kernel has wrong shape {matrix.shape}")
        self.weight.data = matrix.reshape(self.weight.data.shape).astype(
            self.weight.data.dtype
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2d expects (N, {self.in_channels}, H, W); got {x.shape}"
            )
        kernel = (self.kernel_size, self.kernel_size)
        cols, (out_h, out_w) = im2col(x, kernel, self.stride, self.padding)
        self._cols = cols if self.training else None
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
        out = cols @ self.matricized_weight().T
        if self.bias is not None:
            out = out + self.bias.data
        n = x.shape[0]
        return out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        n, __, out_h, out_w = grad_output.shape
        grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        grad_kernel = grad_flat.T @ self._cols
        self.weight.grad += grad_kernel.reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += grad_flat.sum(axis=0)
        grad_cols = grad_flat @ self.matricized_weight()
        kernel = (self.kernel_size, self.kernel_size)
        return col2im(grad_cols, self._x_shape, kernel, self.stride, self.padding)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding})"
        )


class SpectralConv2d(Conv2d):
    """Conv2d whose matricized kernel carries parameterized spectral norm.

    Effective kernel: ``alpha * K / sigma(mat(K))`` so that the spectral
    norm of the matricized kernel equals ``|alpha|`` exactly, mirroring
    :class:`~repro.nn.linear.SpectralLinear`.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        alpha_init: float | None = None,
    ) -> None:
        super().__init__(
            in_channels, out_channels, kernel_size, stride, padding, bias, rng
        )
        if rng is None:
            rng = np.random.default_rng(0)
        if alpha_init is None:
            alpha_init = spectral_norm(self.matricized_weight())
        self.alpha = Parameter(np.asarray([alpha_init], dtype=np.float32))
        self._power = PowerIterationState.for_matrix(self.matricized_weight(), rng)
        self._cached: tuple[np.ndarray, float] | None = None
        self._eval_key: tuple | None = None
        self._eval_cache: tuple[np.ndarray, float] | None = None

    @property
    def spectral_alpha(self) -> float:
        """Spectral norm of the effective matricized kernel (= |alpha|)."""
        return abs(float(self.alpha.data[0]))

    def effective_weight(self) -> np.ndarray:
        sigma = max(spectral_norm(self.matricized_weight()), 1e-12)
        return (self.matricized_weight() / sigma) * self.alpha.data[0]

    def _sigma_and_normalized(self) -> tuple[np.ndarray, float]:
        """Training: one power-iteration step; eval: converged sigma.

        The error bound assumes the deployed kernel's matricized spectral
        norm is exactly ``|alpha|``, so evaluation normalizes by the fully
        converged estimate (cached until the weights change).
        """
        raw = self.matricized_weight()
        if self.training:
            sigma = max(self._power.step(raw, n_steps=1), 1e-12)
            return raw / sigma, sigma
        key = (id(self.weight.data), self.weight.data.shape)
        if self._eval_key != key:
            sigma = max(spectral_norm(raw), 1e-12)
            self._eval_cache = (raw / sigma, sigma)
            self._eval_key = key
        return self._eval_cache

    def forward(self, x: np.ndarray) -> np.ndarray:
        normalized, sigma = self._sigma_and_normalized()
        self._cached = (normalized, sigma) if self.training else None
        kernel = (self.kernel_size, self.kernel_size)
        cols, (out_h, out_w) = im2col(x, kernel, self.stride, self.padding)
        self._cols = cols if self.training else None
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
        out = cols @ (normalized.T * self.alpha.data[0])
        if self.bias is not None:
            out = out + self.bias.data
        n = x.shape[0]
        return out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        normalized, sigma = self._cached
        alpha = float(self.alpha.data[0])
        grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        grad_w_eff = grad_flat.T @ self._cols  # wrt alpha * normalized
        self.alpha.grad[0] += float(np.sum(grad_w_eff * normalized))
        grad_w_bar = alpha * grad_w_eff
        coupling = float(np.sum(grad_w_bar * normalized))
        grad_raw = (grad_w_bar - coupling * np.outer(self._power.u, self._power.v)) / sigma
        self.weight.grad += grad_raw.reshape(self.weight.data.shape).astype(
            self.weight.grad.dtype
        )
        if self.bias is not None:
            self.bias.grad += grad_flat.sum(axis=0)
        grad_cols = grad_flat @ (normalized * alpha)
        kernel = (self.kernel_size, self.kernel_size)
        return col2im(grad_cols, self._x_shape, kernel, self.stride, self.padding)
