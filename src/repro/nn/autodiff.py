"""Vectorized reverse-mode automatic differentiation on numpy arrays.

A deliberately small engine in the micrograd tradition, but operating on
whole arrays with broadcasting, batched matmul, and the gather/scatter
needed by tree convolution.  Every operator records a local backward
closure; :meth:`Tensor.backward` runs a topological sweep.

Design notes
------------
* Gradients of broadcasted operands are reduced (summed) back to the
  operand's shape via :func:`_unbroadcast`.
* ``gather_nodes`` is the tree-convolution primitive: it picks node rows by
  per-batch index and scatter-adds on the way back.
* ``grl`` implements the gradient reversal layer of unsupervised domain
  adaptation (forward identity, backward multiplied by ``-lambda``).
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Tensor",
    "relu",
    "concat",
    "gather_nodes",
    "fused_tree_conv",
    "grl",
    "no_grad",
]

_grad_enabled = True


class no_grad:
    """Context manager disabling graph construction (inference mode)."""

    def __enter__(self) -> None:
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc: object) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size-1 in the original.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """An array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data: np.ndarray | float | list,
        *,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad and _grad_enabled
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def param(data: np.ndarray) -> "Tensor":
        return Tensor(data, requires_grad=True)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    # -- graph mechanics -------------------------------------------------------

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (defaults to d(self)/d(self)=1)."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        topo: list[Tensor] = []
        visited: set[int] = set()

        def build(node: "Tensor") -> None:
            if id(node) in visited or not node.requires_grad:
                return
            visited.add(id(node))
            for parent in node._parents:
                build(parent)
            topo.append(node)

        build(self)
        seed = np.ones_like(self.data) if grad is None else np.asarray(grad, dtype=np.float64)
        self._accumulate(seed)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "Tensor | float") -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __mul__(self, other: "Tensor | float") -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: "Tensor | float") -> "Tensor":
        return self + (-_as_tensor(other))

    def __radd__(self, other: float) -> "Tensor":
        return self + other

    def __rmul__(self, other: float) -> "Tensor":
        return self * other

    def __truediv__(self, other: "Tensor | float") -> "Tensor":
        return self * _as_tensor(other) ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1.0))

        return Tensor._make(out_data, (self,), backward)

    def matmul(self, other: "Tensor") -> "Tensor":
        out_data = np.matmul(self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                ga = np.matmul(grad, np.swapaxes(other.data, -1, -2))
                self._accumulate(_unbroadcast(ga, self.shape))
            if other.requires_grad:
                gb = np.matmul(np.swapaxes(self.data, -1, -2), grad)
                other._accumulate(_unbroadcast(gb, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    # -- nonlinearities -----------------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    # -- reductions -----------------------------------------------------------------

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else np.prod(
            [self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad if keepdims else np.expand_dims(grad, axis=axis)
            expanded = out_data if keepdims else np.expand_dims(out_data, axis=axis)
            mask = self.data == expanded
            # Split gradient across ties to keep the op well-defined.
            counts = mask.sum(axis=axis, keepdims=True)
            self._accumulate(np.where(mask, g / counts, 0.0))

        return Tensor._make(out_data, (self,), backward)

    # -- shape ops --------------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes or tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes_tuple)
        inverse = np.argsort(axes_tuple)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(value: "Tensor | float | np.ndarray") -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# -- free functions -------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (x.data > 0.0))

    return Tensor._make(out_data, (x,), backward)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer: list = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)


def gather_nodes(x: Tensor, index: np.ndarray) -> Tensor:
    """Per-batch node gather: ``out[b, n, :] = x[b, index[b, n], :]``.

    ``x`` has shape (B, N, D); ``index`` is an int array (B, M).  Used by
    tree convolution to fetch left/right child feature rows (index 0 is
    conventionally a zero sentinel node).
    """
    index = np.asarray(index)
    batch_idx = np.arange(x.data.shape[0])[:, None]
    out_data = x.data[batch_idx, index]

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.data)
            np.add.at(full, (batch_idx, index), grad)
            x._accumulate(full)

    return Tensor._make(out_data, (x,), backward)


def fused_tree_conv(
    x: "Tensor | np.ndarray",
    left: np.ndarray,
    right: np.ndarray,
    mask: np.ndarray,
    weight: Tensor,
    bias: Tensor,
) -> Tensor:
    """One tree-convolution layer as a single graph node.

    Computes ``relu(concat([x, x[:, left], x[:, right]], -1) @ weight + bias)
    * mask`` — the gather→concat→matmul→ReLU→mask chain of
    ``TreeConvEncoder.node_representations`` — recording one backward closure
    instead of seven.  The forward runs the identical numpy operations in the
    identical order, so outputs match the unfused chain bitwise for equal
    input dtypes; the backward is hand-derived:

    * ``gz = grad * mask * (pre > 0)`` (ReLU/mask gate on the preactivation),
    * ``d weight = triple^T gz`` summed over batch and node axes,
    * ``d bias = sum(gz)``,
    * ``d x`` = ``gz @ W_self^T`` plus scatter-adds of ``gz @ W_left^T`` /
      ``gz @ W_right^T`` at the child indices (the gather transpose).

    ``x`` may be a plain ndarray (e.g. a float32 training buffer slice): the
    first conv layer's input never needs a gradient, so wrapping it in a
    ``Tensor`` — which would copy it to float64 — is wasted work.

    Contract: ``left``/``right`` must index *binary trees* — apart from the
    shared sentinel index 0, no index repeats within a row (a node is the
    left/right child of at most one parent).  That uniqueness lets the input
    gradient use a vectorized fancy-index add (duplicated sentinel entries
    are zeroed and their sum added separately) instead of ``np.add.at``,
    which is an order of magnitude slower.
    """
    x_t = x if isinstance(x, Tensor) else None
    x_data = x_t.data if x_t is not None else np.asarray(x)
    left = np.asarray(left)
    right = np.asarray(right)
    batch, n_rows = x_data.shape[0], x_data.shape[1]
    dim = x_data.shape[-1]
    batch_idx = np.arange(batch)[:, None]
    # Concatenate straight into a float64 buffer: the GEMM would otherwise
    # cast a float32 triple to float64 internally (a second full copy).
    triple = np.empty((batch, n_rows, 3 * dim), dtype=np.float64)
    triple[..., :dim] = x_data
    triple[..., dim : 2 * dim] = x_data[batch_idx, left]
    triple[..., 2 * dim :] = x_data[batch_idx, right]
    pre = np.matmul(triple, weight.data) + bias.data
    out_data = np.maximum(pre, 0.0) * mask
    positive = pre > 0.0

    def backward(grad: np.ndarray) -> None:
        gz = np.asarray(grad * mask * positive)
        hidden = gz.shape[-1]
        if weight.requires_grad:
            # triple^T gz over (batch, node): a flat GEMM beats tensordot,
            # which would transpose-copy both operands first.
            gw = triple.reshape(-1, 3 * dim).T @ gz.reshape(-1, hidden)
            weight._accumulate(gw)
        if bias.requires_grad:
            bias._accumulate(gz.sum(axis=(0, 1)))
        if x_t is not None and x_t.requires_grad:
            gtriple = np.matmul(gz, weight.data.T)
            gx = np.ascontiguousarray(gtriple[..., :dim])
            for index, part in ((left, gtriple[..., dim : 2 * dim]),
                                (right, gtriple[..., 2 * dim :])):
                zero = (index == 0)[..., None]
                # Sentinel contributions all target row 0; sum them apart and
                # zero the duplicates so the fancy-index add sees unique rows.
                sentinel = (part * zero).sum(axis=1)
                gx[batch_idx, index] += np.where(zero, 0.0, part)
                gx[:, 0] += sentinel
            x_t._accumulate(gx)

    parents = (x_t, weight, bias) if x_t is not None else (weight, bias)
    return Tensor._make(out_data, parents, backward)


def grl(x: Tensor, lam: float) -> Tensor:
    """Gradient reversal layer: identity forward, ``-lam`` scaled backward.

    The core trick of DANN-style adversarial domain adaptation (Ganin &
    Lempitsky, 2015), used between PlanEmb and DomClf in LOAM (Section 4).
    """
    out_data = x.data.copy()

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(-lam * grad)

    return Tensor._make(out_data, (x,), backward)
