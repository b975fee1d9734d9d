"""Activation layers with registered Lipschitz constants.

The paper's bound (Section III-A) assumes every activation has a globally
bounded first derivative ``C = sup_z dphi/dz``; for Tanh, ReLU and
LeakyReLU (slope <= 1) the constant is 1 and is dropped from the bound.
Each activation here carries its ``lipschitz`` constant so the error-flow
analyzer can include it when it is not 1 (e.g. PReLU with a learned slope
above 1, or a custom gain).
"""

from __future__ import annotations

import numpy as np

from .module import Module, Parameter

__all__ = [
    "Activation",
    "ReLU",
    "LeakyReLU",
    "PReLU",
    "Tanh",
    "Sigmoid",
    "GELU",
    "Identity",
    "ACTIVATIONS",
    "make_activation",
]


class Activation(Module):
    """Base class: element-wise map with a known Lipschitz constant."""

    @property
    def lipschitz(self) -> float:
        """Upper bound on ``|dphi/dz|`` over the activation's domain."""
        raise NotImplementedError


class Identity(Activation):
    """Pass-through activation (used for the final layer of regressors)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output

    @property
    def lipschitz(self) -> float:
        return 1.0


class ReLU(Activation):
    """Rectified linear unit, ``max(0, x)``; Lipschitz constant 1."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._mask = mask if self.training else None
        return np.where(mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad_output, 0.0)

    @property
    def lipschitz(self) -> float:
        return 1.0


class LeakyReLU(Activation):
    """Leaky ReLU with fixed negative slope; Lipschitz ``max(1, slope)``."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = float(negative_slope)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._mask = mask if self.training else None
        return np.where(mask, x, self.negative_slope * x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad_output, self.negative_slope * grad_output)

    @property
    def lipschitz(self) -> float:
        return max(1.0, abs(self.negative_slope))


class PReLU(Activation):
    """Parametric ReLU: the negative slope is learned (shared scalar).

    The Lipschitz constant is ``max(1, |slope|)`` evaluated at the current
    learned value, so the error-flow analyzer reads it after training.
    """

    def __init__(self, init_slope: float = 0.25) -> None:
        super().__init__()
        self.slope = Parameter(np.asarray([init_slope], dtype=np.float32))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x if self.training else None
        slope = self.slope.data[0]
        return np.where(x > 0, x, slope * x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x = self._x
        negative = x <= 0
        self.slope.grad[0] += float(np.sum(grad_output[negative] * x[negative]))
        slope = self.slope.data[0]
        return np.where(negative, slope * grad_output, grad_output)

    @property
    def lipschitz(self) -> float:
        return max(1.0, abs(float(self.slope.data[0])))


class Tanh(Activation):
    """Hyperbolic tangent; Lipschitz constant 1."""

    def __init__(self) -> None:
        super().__init__()
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = np.tanh(x)
        self._y = y if self.training else None
        return y

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * (1.0 - self._y**2)

    @property
    def lipschitz(self) -> float:
        return 1.0


class Sigmoid(Activation):
    """Logistic sigmoid; Lipschitz constant 1/4."""

    def __init__(self) -> None:
        super().__init__()
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = 1.0 / (1.0 + np.exp(-x))
        self._y = y if self.training else None
        return y

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output * self._y * (1.0 - self._y)

    @property
    def lipschitz(self) -> float:
        return 0.25


class GELU(Activation):
    """Gaussian error linear unit (tanh approximation).

    ``sup |dphi/dz|`` is approximately 1.1290 for GELU, attained near
    ``z ~ 1.13``; we store that constant so the bound stays sound.
    """

    _LIPSCHITZ = 1.1290

    def __init__(self) -> None:
        super().__init__()
        self._x: np.ndarray | None = None

    @staticmethod
    def _inner(x: np.ndarray) -> np.ndarray:
        return np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x if self.training else None
        return 0.5 * x * (1.0 + np.tanh(self._inner(x)))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x = self._x
        inner = self._inner(x)
        tanh_inner = np.tanh(inner)
        d_inner = np.sqrt(2.0 / np.pi) * (1.0 + 3 * 0.044715 * x**2)
        derivative = 0.5 * (1.0 + tanh_inner) + 0.5 * x * (1.0 - tanh_inner**2) * d_inner
        return grad_output * derivative

    @property
    def lipschitz(self) -> float:
        return self._LIPSCHITZ


ACTIVATIONS: dict[str, type[Activation]] = {
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "prelu": PReLU,
    "tanh": Tanh,
    "sigmoid": Sigmoid,
    "gelu": GELU,
    "identity": Identity,
}


def make_activation(name: str) -> Activation:
    """Instantiate an activation by registry name (case-insensitive)."""
    try:
        return ACTIVATIONS[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(ACTIVATIONS))
        raise ValueError(f"unknown activation {name!r}; known: {known}") from None
