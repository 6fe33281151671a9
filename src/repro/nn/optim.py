"""Optimizers and learning-rate schedules.

The paper trains LOAM with an initial learning rate of 0.01 and an
exponential decay factor of 0.99 per epoch (Section 7.1);
:class:`ExponentialDecay` reproduces that schedule.
"""

from __future__ import annotations

import numpy as np

from repro.nn.autodiff import Tensor

__all__ = ["Adam", "ExponentialDecay"]


class _Optimizer:
    def __init__(self, parameters: list[Tensor], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(_Optimizer):
    """Adam with fully in-place updates.

    Moment buffers and one scratch buffer per parameter are allocated once at
    construction; ``step`` performs no array allocations (the update
    ``lr * m_hat / (sqrt(v_hat) + eps)`` is folded into the scratch buffer
    through ``out=`` kernels, algebraically identical to the textbook form).
    """

    def __init__(
        self,
        parameters: list[Tensor],
        lr: float = 0.01,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1**self._t
        bias2 = 1.0 - beta2**self._t
        for param, m, v, s in zip(self.parameters, self._m, self._v, self._scratch):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                # Fold decay into the gradient buffer (reset on zero_grad).
                np.multiply(param.data, self.weight_decay, out=s)
                grad += s
            m *= beta1
            np.multiply(grad, 1.0 - beta1, out=s)
            m += s
            v *= beta2
            np.multiply(grad, grad, out=s)
            s *= 1.0 - beta2
            v += s
            # update = lr * (m/bias1) / (sqrt(v/bias2) + eps)
            #        = lr * m / (bias1*sqrt(v/bias2) + bias1*eps)
            np.multiply(v, 1.0 / bias2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            s *= bias1
            np.divide(m, s, out=s)
            s *= self.lr
            param.data -= s


class ExponentialDecay:
    """Multiply the optimizer's LR by ``gamma`` after each epoch."""

    def __init__(self, optimizer: _Optimizer, gamma: float = 0.99) -> None:
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self.optimizer = optimizer
        self.gamma = gamma

    def step(self) -> None:
        self.optimizer.lr *= self.gamma
