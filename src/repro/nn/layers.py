"""Neural-network modules built on the autodiff engine."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.autodiff import Tensor, relu

__all__ = ["Module", "Linear", "ReLU", "LayerNorm", "Sequential"]


class Module:
    """Base class: parameter discovery by attribute walking."""

    def parameters(self) -> Iterator[Tensor]:
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                yield value
            elif isinstance(value, Module):
                yield from value.parameters()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.parameters()
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield item

    def size_bytes(self) -> int:
        """Model footprint: parameter bytes (Figure 9b reports MB)."""
        return sum(p.data.nbytes for p in self.parameters())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class Linear(Module):
    """Affine layer with Kaiming-uniform initialization."""

    def __init__(self, in_dim: int, out_dim: int, *, rng: np.random.Generator) -> None:
        bound = float(np.sqrt(6.0 / in_dim))
        self.weight = Tensor.param(rng.uniform(-bound, bound, size=(in_dim, out_dim)))
        self.bias = Tensor.param(np.zeros(out_dim))
        self.in_dim = in_dim
        self.out_dim = out_dim

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return relu(x)


class LayerNorm(Module):
    def __init__(self, dim: int, *, eps: float = 1e-5) -> None:
        self.gamma = Tensor.param(np.ones(dim))
        self.beta = Tensor.param(np.zeros(dim))
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered * (var + self.eps) ** -0.5
        return normed * self.gamma + self.beta


class Sequential(Module):
    def __init__(self, *layers: Module) -> None:
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x
