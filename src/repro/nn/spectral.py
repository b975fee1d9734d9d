"""Spectral-norm estimation and parameterized spectral normalization (PSN).

The paper (Section III-C) trains networks with

    W_PSN = (W / sigma_W) * alpha + beta

where ``alpha`` (a learned scalar per layer) becomes the layer's exact
spectral norm and ``beta`` acts as the usual bias shift.  Constraining the
spectral norms directly is what makes the error bound of Inequality (3)
tight and predictable.

This module provides:

* :func:`spectral_norm` — the largest singular value of a matrix via the
  power iteration of von Mises & Pollaczek-Geiringer (paper ref. [17]);
* :class:`PowerIterationState` — persistent singular-vector estimates used
  during training, one normalization step per forward pass in the style of
  Miyato et al. (paper ref. [19]);
* :class:`ConvergedSigma` — one spectral layer's converged sigma, cached
  per weight version.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["spectral_norm", "spectral_norm_exact", "ConvergedSigma", "PowerIterationState"]


def spectral_norm(
    matrix: np.ndarray,
    n_iterations: int = 200,
    tol: float = 1e-9,
    rng: np.random.Generator | None = None,
) -> float:
    """Largest singular value of ``matrix`` via power iteration.

    Parameters
    ----------
    matrix:
        2-D array.  Higher-rank weight tensors (conv kernels) must be
        matricized by the caller.
    n_iterations:
        Maximum power-iteration steps.
    tol:
        Relative change in the estimate below which iteration stops.
    rng:
        Source of the random starting vector; a fixed default keeps the
        result deterministic.

    Returns
    -------
    float
        An estimate of ``sigma_max(matrix)`` accurate to roughly ``tol``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"spectral_norm expects a 2-D matrix, got shape {matrix.shape}")
    if matrix.size == 0:
        return 0.0
    if rng is None:
        rng = np.random.default_rng(0)
    v = rng.standard_normal(matrix.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for __ in range(n_iterations):
        u = matrix @ v
        u_norm = np.linalg.norm(u)
        if u_norm == 0.0:
            return 0.0
        u /= u_norm
        v = matrix.T @ u
        v_norm = np.linalg.norm(v)
        if v_norm == 0.0:
            return 0.0
        v /= v_norm
        new_sigma = float(u @ (matrix @ v))
        if sigma and abs(new_sigma - sigma) <= tol * abs(sigma):
            sigma = new_sigma
            break
        sigma = new_sigma
    return abs(sigma)


def spectral_norm_exact(matrix: np.ndarray) -> float:
    """Largest singular value via full SVD (reference implementation)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.size == 0:
        return 0.0
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


class ConvergedSigma:
    """``(W / sigma(W), sigma(W))`` with a converged sigma, per weight version.

    The bound assumes a spectral layer's deployed weight has spectral norm
    exactly ``|alpha|``, so its eval forward and ``effective_weight()``
    both read this converged :func:`spectral_norm`, keyed on
    ``(id(param.data), param.version)``.
    """

    def __init__(self) -> None:
        self.key: tuple | None = None
        self._value: tuple[np.ndarray, float] | None = None

    def get(self, param, matrix: np.ndarray) -> tuple[np.ndarray, float]:
        """``(matrix / sigma, sigma)``; ``matrix`` is ``param.data`` as 2-D."""
        key = (id(param.data), param.version)
        if self.key != key:
            sigma = max(spectral_norm(matrix), 1e-12)
            self._value = (matrix / sigma, sigma)
            self.key = key
        return self._value


@dataclass
class PowerIterationState:
    """Persistent left/right singular-vector estimates for one weight.

    During training we run a single power-iteration step per forward pass
    (the estimates track the slowly-moving weights), which is the standard
    spectral-normalization trick and keeps the per-step cost at two
    matrix-vector products.
    """

    u: np.ndarray
    v: np.ndarray
    sigma: float = 0.0
    _steps: int = field(default=0, repr=False)

    @classmethod
    def for_matrix(cls, matrix: np.ndarray, rng: np.random.Generator) -> "PowerIterationState":
        u = rng.standard_normal(matrix.shape[0])
        u /= np.linalg.norm(u)
        v = rng.standard_normal(matrix.shape[1])
        v /= np.linalg.norm(v)
        state = cls(u=u, v=v)
        # Warm up so the very first training step already sees a usable
        # estimate instead of a random direction.
        for __ in range(10):
            state.step(matrix)
        return state

    def step(self, matrix: np.ndarray, n_steps: int = 1) -> float:
        """Advance the power iteration against ``matrix``; return sigma."""
        matrix = np.asarray(matrix, dtype=np.float64)
        for __ in range(n_steps):
            v = matrix.T @ self.u
            v_norm = np.linalg.norm(v)
            if v_norm == 0.0:
                self.sigma = 0.0
                return 0.0
            self.v = v / v_norm
            u = matrix @ self.v
            u_norm = np.linalg.norm(u)
            if u_norm == 0.0:
                self.sigma = 0.0
                return 0.0
            self.u = u / u_norm
        self.sigma = float(self.u @ (matrix @ self.v))
        self._steps += n_steps
        return abs(self.sigma)
