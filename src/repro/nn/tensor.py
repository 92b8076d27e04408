"""Reverse-mode automatic differentiation on top of numpy arrays.

This module is the foundation of the :mod:`repro.nn` substrate.  The paper's
models were written in TensorFlow; no deep-learning framework is available in
this environment, so we provide a small but complete autograd engine.  A
:class:`Tensor` wraps a ``numpy.ndarray`` and records the operations applied to
it so that :meth:`Tensor.backward` can compute gradients of a scalar loss with
respect to every tensor created with ``requires_grad=True``.

The engine supports broadcasting for element-wise operations, matrix
multiplication, reductions, shape manipulation, indexing and one-dimensional
convolutions -- everything needed by the VARADE network, the AR-LSTM and the
convolutional auto-encoder baselines.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

ArrayLike = Union[np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables gradient tracking.

    Used during inference (e.g. streaming anomaly scoring on the edge runtime)
    to avoid building the autograd graph.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


def is_grad_enabled() -> bool:
    """Return whether operations are currently recorded for autograd."""
    return _GRAD_ENABLED


def _as_array(value: ArrayLike, dtype=np.float64) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so that its shape matches ``shape``.

    Element-wise operations broadcast their operands; the gradient flowing back
    must therefore be reduced over the broadcast dimensions.
    """
    if grad.shape == shape:
        return grad
    # Remove leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _op: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._backward: Callable[[np.ndarray], None] = lambda grad: None
        self._parents = _parents if self.requires_grad or any(
            p.requires_grad for p in _parents
        ) else ()
        self._op = _op

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure(value: Union["Tensor", ArrayLike]) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    def _make_result(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        op: str,
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        result = Tensor(data, requires_grad=requires, _parents=parents if requires else (), _op=op)
        if requires:
            result._backward = backward
        return result

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return self._make_result(out_data, (self, other), "add", backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(-grad)

        return self._make_result(out_data, (self, other), "sub", backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data)
            other._accumulate(grad * self.data)

        return self._make_result(out_data, (self, other), "mul", backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data)
            other._accumulate(-grad * self.data / (other.data ** 2))

        return self._make_result(out_data, (self, other), "div", backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make_result(out_data, (self,), "neg", backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make_result(out_data, (self,), "pow", backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(grad * b)
                other._accumulate(grad * a)
                return
            if a.ndim == 1:
                a2 = a.reshape(1, -1)
                grad2 = np.expand_dims(grad, axis=-2)
                self._accumulate((grad2 @ np.swapaxes(b, -1, -2)).reshape(a.shape))
                other._accumulate(_unbroadcast(np.swapaxes(a2, -1, -2) @ grad2, b.shape))
                return
            if b.ndim == 1:
                b2 = b.reshape(-1, 1)
                grad2 = np.expand_dims(grad, axis=-1)
                self._accumulate(_unbroadcast(grad2 @ b2.T, a.shape))
                other._accumulate((np.swapaxes(a, -1, -2) @ grad2).reshape(b.shape))
                return
            grad_a = grad @ np.swapaxes(b, -1, -2)
            grad_b = np.swapaxes(a, -1, -2) @ grad
            self._accumulate(_unbroadcast(grad_a, a.shape))
            other._accumulate(_unbroadcast(grad_b, b.shape))

        return self._make_result(out_data, (self, other), "matmul", backward)

    # ------------------------------------------------------------------ #
    # Element-wise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._make_result(out_data, (self,), "exp", backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make_result(out_data, (self,), "log", backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-300))

        return self._make_result(out_data, (self,), "sqrt", backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make_result(out_data, (self,), "relu", backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, negative_slope * self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.where(mask, 1.0, negative_slope))

        return self._make_result(out_data, (self,), "leaky_relu", backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make_result(out_data, (self,), "sigmoid", backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return self._make_result(out_data, (self,), "tanh", backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return self._make_result(out_data, (self,), "abs", backward)

    def clip(self, minimum: Optional[float] = None, maximum: Optional[float] = None) -> "Tensor":
        out_data = np.clip(self.data, minimum, maximum)
        mask = np.ones_like(self.data)
        if minimum is not None:
            mask = mask * (self.data >= minimum)
        if maximum is not None:
            mask = mask * (self.data <= maximum)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make_result(out_data, (self,), "clip", backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            if axis is None:
                expanded = np.broadcast_to(grad, self.data.shape)
            else:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                if not keepdims:
                    for ax in sorted(a % self.data.ndim for a in axes):
                        grad = np.expand_dims(grad, axis=ax)
                expanded = np.broadcast_to(grad, self.data.shape)
            self._accumulate(expanded)

        return self._make_result(out_data, (self,), "sum", backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centred = self - mean
        return (centred * centred).mean(axis=axis, keepdims=keepdims)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            if axis is None:
                mask = (self.data == self.data.max()).astype(self.data.dtype)
                mask = mask / mask.sum()
                self._accumulate(mask * grad)
            else:
                expanded_max = self.data.max(axis=axis, keepdims=True)
                mask = (self.data == expanded_max).astype(self.data.dtype)
                mask = mask / mask.sum(axis=axis, keepdims=True)
                g = grad if keepdims else np.expand_dims(grad, axis=axis)
                self._accumulate(mask * g)

        return self._make_result(out_data, (self,), "max", backward)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.data.shape))

        return self._make_result(out_data, (self,), "reshape", backward)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.data.shape[:start_dim] + (-1,)
        return self.reshape(*shape)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make_result(out_data, (self,), "transpose", backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return self._make_result(out_data, (self,), "getitem", backward)

    def pad1d(self, left: int, right: int, value: float = 0.0) -> "Tensor":
        """Pad the last axis with ``left``/``right`` constant entries."""
        pad_width = [(0, 0)] * (self.data.ndim - 1) + [(left, right)]
        out_data = np.pad(self.data, pad_width, constant_values=value)

        def backward(grad: np.ndarray) -> None:
            slicer = [slice(None)] * (self.data.ndim - 1)
            slicer.append(slice(left, out_data.shape[-1] - right if right else None))
            self._accumulate(grad[tuple(slicer)])

        return self._make_result(out_data, (self,), "pad1d", backward)

    # ------------------------------------------------------------------ #
    # Joining
    # ------------------------------------------------------------------ #
    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._ensure(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]

        def backward(grad: np.ndarray) -> None:
            offset = 0
            for tensor, size in zip(tensors, sizes):
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(offset, offset + size)
                tensor._accumulate(grad[tuple(slicer)])
                offset += size

        requires = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
        result = Tensor(out_data, requires_grad=requires,
                        _parents=tuple(tensors) if requires else (), _op="concat")
        if requires:
            result._backward = backward
        return result

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._ensure(t) for t in tensors]
        expanded = []
        for tensor in tensors:
            shape = list(tensor.shape)
            shape.insert(axis if axis >= 0 else tensor.ndim + axis + 1, 1)
            expanded.append(tensor.reshape(*shape))
        return Tensor.concatenate(expanded, axis=axis)

    # ------------------------------------------------------------------ #
    # Convolution primitives (1-D, channels-first layout: (N, C, L))
    # ------------------------------------------------------------------ #
    def conv1d(self, weight: "Tensor", bias: Optional["Tensor"] = None,
               stride: int = 1, padding: int = 0) -> "Tensor":
        """1-D cross-correlation over a ``(N, C_in, L)`` input.

        ``weight`` has shape ``(C_out, C_in, K)``; the output has shape
        ``(N, C_out, L_out)`` with ``L_out = (L + 2*padding - K) // stride + 1``.
        """
        weight = self._ensure(weight)
        x = self.data
        w = weight.data
        if x.ndim != 3 or w.ndim != 3:
            raise ValueError("conv1d expects input (N, C, L) and weight (C_out, C_in, K)")
        batch, in_channels, length = x.shape
        out_channels, w_in_channels, kernel = w.shape
        if in_channels != w_in_channels:
            raise ValueError(
                f"conv1d channel mismatch: input has {in_channels}, weight expects {w_in_channels}"
            )
        if padding:
            x_padded = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
        else:
            x_padded = x
        padded_length = x_padded.shape[-1]
        out_length = (padded_length - kernel) // stride + 1
        if out_length <= 0:
            raise ValueError(
                f"conv1d output length would be {out_length} (input length {length}, "
                f"kernel {kernel}, stride {stride}, padding {padding})"
            )

        # im2col: (N, C_in, K, L_out)
        col_index = (np.arange(out_length)[None, :] * stride + np.arange(kernel)[:, None])
        cols = x_padded[:, :, col_index]  # (N, C_in, K, L_out)
        cols_matrix = cols.reshape(batch, in_channels * kernel, out_length)
        w_matrix = w.reshape(out_channels, in_channels * kernel)
        out_data = np.einsum("ok,nkl->nol", w_matrix, cols_matrix)
        if bias is not None:
            bias = self._ensure(bias)
            out_data = out_data + bias.data.reshape(1, -1, 1)

        parents = (self, weight) + ((bias,) if bias is not None else ())

        def backward(grad: np.ndarray) -> None:
            # grad: (N, C_out, L_out)
            grad_w_matrix = np.einsum("nol,nkl->ok", grad, cols_matrix)
            weight._accumulate(grad_w_matrix.reshape(w.shape))
            if bias is not None:
                bias._accumulate(grad.sum(axis=(0, 2)))
            grad_cols_matrix = np.einsum("ok,nol->nkl", w_matrix, grad)
            grad_cols = grad_cols_matrix.reshape(batch, in_channels, kernel, out_length)
            grad_x_padded = np.zeros_like(x_padded)
            np.add.at(
                grad_x_padded,
                (slice(None), slice(None), col_index),
                grad_cols,
            )
            if padding:
                grad_x = grad_x_padded[:, :, padding:padded_length - padding]
            else:
                grad_x = grad_x_padded
            self._accumulate(grad_x)

        return self._make_result(out_data, parents, "conv1d", backward)

    def conv_transpose1d(self, weight: "Tensor", bias: Optional["Tensor"] = None,
                         stride: int = 1, padding: int = 0) -> "Tensor":
        """1-D transposed convolution (the gradient of :meth:`conv1d`).

        ``weight`` has shape ``(C_in, C_out, K)`` and the output length is
        ``(L - 1) * stride - 2*padding + K``.
        """
        weight = self._ensure(weight)
        x = self.data
        w = weight.data
        if x.ndim != 3 or w.ndim != 3:
            raise ValueError("conv_transpose1d expects input (N, C, L) and weight (C_in, C_out, K)")
        batch, in_channels, length = x.shape
        w_in_channels, out_channels, kernel = w.shape
        if in_channels != w_in_channels:
            raise ValueError(
                f"conv_transpose1d channel mismatch: input has {in_channels}, "
                f"weight expects {w_in_channels}"
            )
        full_length = (length - 1) * stride + kernel
        out_length = full_length - 2 * padding
        if out_length <= 0:
            raise ValueError("conv_transpose1d produces non-positive output length")

        col_index = (np.arange(length)[None, :] * stride + np.arange(kernel)[:, None])
        # cols[n, o, k, l] = sum_c x[n, c, l] * w[c, o, k]
        cols = np.einsum("ncl,cok->nokl", x, w)
        out_full = np.zeros((batch, out_channels, full_length))
        np.add.at(out_full, (slice(None), slice(None), col_index), cols)
        if padding:
            out_data = out_full[:, :, padding:full_length - padding]
        else:
            out_data = out_full
        if bias is not None:
            bias = self._ensure(bias)
            out_data = out_data + bias.data.reshape(1, -1, 1)

        parents = (self, weight) + ((bias,) if bias is not None else ())

        def backward(grad: np.ndarray) -> None:
            if padding:
                grad_full = np.zeros((batch, out_channels, full_length))
                grad_full[:, :, padding:full_length - padding] = grad
            else:
                grad_full = grad
            grad_cols = grad_full[:, :, col_index]  # (N, C_out, K, L)
            grad_x = np.einsum("nokl,cok->ncl", grad_cols, w)
            grad_w = np.einsum("nokl,ncl->cok", grad_cols, x)
            self._accumulate(grad_x)
            weight._accumulate(grad_w)
            if bias is not None:
                bias._accumulate(grad.sum(axis=(0, 2)))

        return self._make_result(out_data, parents, "conv_transpose1d", backward)

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node.grad is not None and node._parents:
                node._backward(node.grad)
