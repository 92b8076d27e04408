"""Weight initialisation schemes for :mod:`repro.nn` modules.

The schemes mirror the defaults used by common deep-learning frameworks so
the reproduced models start from a comparable operating point to the paper's
TensorFlow implementation.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "glorot_uniform",
    "he_uniform",
    "zeros",
    "ones",
    "orthogonal",
]


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute fan-in and fan-out for a weight tensor shape.

    Linear weights are ``(out, in)``; convolution weights are
    ``(out_channels, in_channels, kernel)``.
    """
    if len(shape) < 1:
        raise ValueError("weight shape must have at least one dimension")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive_field = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_out = shape[0] * receptive_field
    fan_in = shape[1] * receptive_field
    return fan_in, fan_out


def glorot_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialisation (TensorFlow's Dense/Conv default)."""
    fan_in, fan_out = _fan_in_out(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He uniform initialisation, suited to ReLU networks such as VARADE."""
    fan_in, _ = _fan_in_out(shape)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def zeros(shape: Tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    """All-zeros initialisation (biases)."""
    return np.zeros(shape)


def ones(shape: Tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    """All-ones initialisation (normalisation gains)."""
    return np.ones(shape)


def orthogonal(shape: Tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Orthogonal initialisation, commonly used for recurrent weight matrices."""
    if len(shape) < 2:
        raise ValueError("orthogonal initialisation requires at least a 2-D shape")
    rows = shape[0]
    cols = int(np.prod(shape[1:]))
    flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols].reshape(shape)
