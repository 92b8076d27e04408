"""Post-training int8 quantization of Conv1d/Linear forecasters.

The paper benchmarks VARADE against int8-quantized rivals, and the related
edge-AD literature (PaSTe, squeezed convolutional VAEs) treats int8
post-training quantization as *the* enabling step for on-device inference.
This module provides that step for the :mod:`repro.nn` stack:

* :func:`quantize_weight` -- symmetric per-output-channel int8 quantization
  of a weight array: one positive scale per output channel, integer codes in
  ``[-127, 127]``.  Symmetric scales keep the matmul zero-point free, which
  is what lets the integer products accumulate without cross terms.
* :func:`quantize_values` / :func:`dequantize` -- the elementwise
  quantize/dequantize pair.  The round-trip error is bounded by half a scale
  step per element (asserted by the hypothesis suite in
  ``tests/test_nn/test_quant.py``); all-zero and constant channels produce
  finite, positive scales rather than nan/inf.
* :class:`QuantizedConv1d` / :class:`QuantizedLinear` -- inference-only
  parameter containers: int8 codes, per-channel weight scales, a per-tensor
  activation scale calibrated from representative data, and the float bias.
* :class:`QuantizedForwardPlan` -- the int8 numeric kernel: a
  preallocated-buffer forward pass over a ``Conv1d``/``ReLU`` backbone plus
  linear heads in which every convolution and head is an int8 x int8 matmul
  with float accumulators.

Two kernels, one driver
-----------------------

This plan and the float :class:`repro.nn.fastpath.FastForwardPlan` are the
repo's two numeric kernels; streaming is one driver over both,
:class:`repro.nn.fastpath.IncrementalForwardPlan` (its module lists the
kernel surface), importable here as ``IncrementalQuantizedPlan``.  The int8
stage, fused requantise and head arithmetic each have one definition
(``_stage`` / ``_conv_columns`` / ``_head_rows``), called by both ``forward``
and the driver.  No BLAS width-class probe is needed: every reduction depth
keeps the integer accumulator below ``2**24`` (asserted at construction), so
the staged GEMMs are *exact* at any call width.

Execution model
---------------

NumPy has no int8 BLAS kernel, so the integer matmuls are executed the way
int8 inference is emulated on hardware without integer dot-product units:
the int8 codes are staged in float32 operands and contracted with a float32
GEMM.  Every product of two codes is an integer of magnitude at most
``127 * 127 = 16129`` and every partial sum stays below ``2**24`` for the
reduction depths used here (asserted at plan construction), so the float32
accumulator represents each intermediate value *exactly* -- the arithmetic
is bit-for-bit integer arithmetic, merely carried in float registers, and
therefore independent of the GEMM's summation order.  A given input row
produces bit-identical outputs in any batch, the same contract the float
fast path gives the fleet-parity suite.

The quantized plan additionally keeps the batch dimension *inside* the GEMM
(activations are laid out ``(channels, batch, length)`` so each layer is one
large ``(O, C*K) x (C*K, N*L)`` contraction rather than N small ones), which
together with the halved memory traffic of float32 staging is where the
measured speed-up over the float64 fast path comes from
(``benchmarks/bench_quantized_inference.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .fastpath import (IncrementalForwardPlan, _conv_chain_shapes, _lru_buffers,
                       _relu_placement, fast_conv1d)
from .layers import Conv1d, Linear, ReLU, Sequential

__all__ = [
    "QMAX",
    "quantize_weight",
    "quantize_values",
    "dequantize",
    "QuantizedConv1d",
    "QuantizedLinear",
    "QuantizedForwardPlan",
    "IncrementalQuantizedPlan",
]

#: largest int8 code used by the symmetric scheme (the -128 code is unused so
#: the grid is symmetric around zero).
QMAX = 127

#: float32 holds integers exactly up to 2**24; partial sums of int8 products
#: must stay below this for the float-carried integer arithmetic to be exact.
_EXACT_ACCUMULATOR_LIMIT = float(2 ** 24)

#: the streaming driver serves both kernels; this is its int8-era name.
IncrementalQuantizedPlan = IncrementalForwardPlan

#: smallest usable quantization scale: the float32 minimum normal, so every
#: scale's reciprocal (and every ratio of scales) is representable in float32.
_MIN_SCALE = float(np.finfo(np.float32).tiny)


def _safe_scale(amax: np.ndarray) -> np.ndarray:
    """Scale(s) from max-magnitude statistics; zero ranges map to scale 1.

    A channel that is identically zero (or an activation tensor that never
    fires) has ``amax == 0``; dividing by a zero scale would produce nan/inf
    codes, so those entries fall back to a scale of one, under which every
    value in the degenerate channel quantizes exactly to code 0.
    """
    amax = np.asarray(amax, dtype=np.float64)
    if not np.all(np.isfinite(amax)):
        raise ValueError("cannot derive quantization scales from non-finite values")
    scales = amax / QMAX
    # Guard the quotient, not just amax: a subnormal amax underflows the
    # division to 0.0, which would poison the codes with inf.  The floor is
    # the float32 minimum normal, so the cached float32 reciprocals and
    # requantization multipliers derived from any scale stay finite; a range
    # this far below the representable grid is a dead channel anyway, and the
    # unit fallback quantizes it exactly to code 0.
    return np.where(scales >= _MIN_SCALE, scales, 1.0)


def quantize_weight(weight: np.ndarray, channel_axis: int = 0
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-output-channel int8 quantization of a weight array.

    Returns ``(codes, scales)`` where ``codes`` is an int8 array of
    ``weight``'s shape and ``scales`` has one positive float per slice along
    ``channel_axis`` such that ``codes * scale ~= weight`` with at most half
    a scale step of error per element.
    """
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim < 1:
        raise ValueError("quantize_weight expects an array with at least one axis")
    reduce_axes = tuple(axis for axis in range(weight.ndim) if axis != channel_axis % weight.ndim)
    amax = np.abs(weight).max(axis=reduce_axes) if reduce_axes else np.abs(weight)
    scales = _safe_scale(amax)
    shape = [1] * weight.ndim
    shape[channel_axis % weight.ndim] = -1
    codes = quantize_values(weight, scales.reshape(shape))
    return codes, scales


def quantize_values(values: np.ndarray, scale) -> np.ndarray:
    """Quantize ``values`` to int8 codes under ``scale`` (round-to-nearest-even).

    ``scale`` broadcasts against ``values``; values outside ``+-QMAX * scale``
    saturate.  (:class:`QuantizedForwardPlan` quantizes in place inside its
    own buffers with the same round/clip semantics.)
    """
    codes = np.rint(np.asarray(values, dtype=np.float64) / scale)
    np.clip(codes, -QMAX, QMAX, out=codes)
    return codes.astype(np.int8)


def dequantize(codes: np.ndarray, scale, channel_axis: Optional[int] = None) -> np.ndarray:
    """Map int8 codes back to float values (``codes * scale``)."""
    codes = np.asarray(codes, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)
    if channel_axis is not None and scale.ndim == 1:
        shape = [1] * codes.ndim
        shape[channel_axis % codes.ndim] = -1
        scale = scale.reshape(shape)
    return codes * scale


def _checked_scales(weight_scale, outputs: int, act_scale) -> Tuple[np.ndarray, float]:
    """One weight scale per output plus the activation scale, both validated:
    finite and no smaller than the float32 minimum normal."""
    weight_scale = np.asarray(weight_scale, dtype=np.float64).reshape(-1)
    if weight_scale.shape[0] != outputs:
        raise ValueError("one weight scale per output channel or feature is required")
    if not np.all(np.isfinite(weight_scale)) or np.any(weight_scale < _MIN_SCALE):
        raise ValueError(
            "weight scales must be finite and at least the float32 minimum "
            "normal (their reciprocals must be representable)"
        )
    act_scale = float(act_scale)
    if not np.isfinite(act_scale) or act_scale < _MIN_SCALE:
        raise ValueError(
            "activation scale must be finite and at least the float32 "
            "minimum normal"
        )
    return weight_scale, act_scale


class QuantizedConv1d:
    """Inference-only int8 convolution parameters (codes + scales + bias)."""

    def __init__(self, weight_q: np.ndarray, weight_scale: np.ndarray,
                 bias: Optional[np.ndarray], stride: int, padding: int,
                 act_scale: float) -> None:
        weight_q = np.asarray(weight_q, dtype=np.int8)
        if weight_q.ndim != 3:
            raise ValueError("QuantizedConv1d weight codes must be (O, C, K)")
        if padding != 0:
            raise ValueError("QuantizedForwardPlan backbones use padding 0")
        self.weight_q = weight_q
        self.weight_scale, self.act_scale = _checked_scales(
            weight_scale, weight_q.shape[0], act_scale)
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        self.stride = int(stride)
        self.padding = int(padding)
        self.out_channels, self.in_channels, self.kernel_size = weight_q.shape
        # Float32 staging copy of the integer codes for the GEMM.  (The
        # accumulator's dequantization factors live in the plan's fused
        # requantization constants, not here.)
        self._weight_f32 = np.ascontiguousarray(
            weight_q.reshape(self.out_channels, -1).astype(np.float32)
        )

    @classmethod
    def from_layer(cls, layer: Conv1d, act_scale: float) -> "QuantizedConv1d":
        codes, scales = quantize_weight(layer.weight.data, channel_axis=0)
        bias = None if layer.bias is None else layer.bias.data
        return cls(codes, scales, bias, layer.stride, layer.padding, act_scale)

    def output_length(self, length: int) -> int:
        return (length + 2 * self.padding - self.kernel_size) // self.stride + 1


class QuantizedLinear:
    """Inference-only int8 dense parameters (codes + scales + bias)."""

    def __init__(self, weight_q: np.ndarray, weight_scale: np.ndarray,
                 bias: Optional[np.ndarray], act_scale: float) -> None:
        weight_q = np.asarray(weight_q, dtype=np.int8)
        if weight_q.ndim != 2:
            raise ValueError("QuantizedLinear weight codes must be (O, I)")
        self.weight_q = weight_q
        self.weight_scale, self.act_scale = _checked_scales(
            weight_scale, weight_q.shape[0], act_scale)
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        self.out_features, self.in_features = weight_q.shape
        # (I, O) float32 staging copy so the head GEMM is (N, I) @ (I, O).
        self._weight_f32_t = np.ascontiguousarray(weight_q.T.astype(np.float32))
        self._dequant = (self.act_scale * self.weight_scale).astype(np.float32)
        self._bias_f32 = None if bias is None else self.bias.astype(np.float32)

    @classmethod
    def from_layer(cls, layer: Linear, act_scale: float) -> "QuantizedLinear":
        codes, scales = quantize_weight(layer.weight.data, channel_axis=0)
        bias = None if layer.bias is None else layer.bias.data
        return cls(codes, scales, bias, act_scale)


class QuantizedForwardPlan:
    """Int8 numeric kernel, the twin of :class:`repro.nn.fastpath.FastForwardPlan`.

    The plan executes a ``Conv1d``/``ReLU`` backbone plus linear heads with
    per-output-channel int8 weights and per-tensor int8 activations.
    Activations live in ``(channels, batch, length)`` float32 buffers so each
    convolution is a single ``(O, C*K) @ (C*K, N*L)`` GEMM over staged
    integer codes; each accumulator is mapped to its consumer's codes with a
    single fused requantization pass (per-channel scale + bias + ReLU folded
    into the clip lower bound + round), so intermediate float activations are
    never materialized and the elementwise traffic stays below the float
    path's.

    Build it from a trained float network with :meth:`from_network` (which
    calibrates the activation scales on representative windows) or directly
    from stored :class:`QuantizedConv1d`/:class:`QuantizedLinear` parameters
    (the deserialization path).

    .. warning::
       Like the float plan, :meth:`forward` returns views of internal buffers
       that the next same-batch-size call overwrites; callers must copy what
       they keep.
    """

    #: dtype of the activation columns a streaming driver buffers
    _act_dtype = np.float32

    def __init__(self, conv_layers: List[QuantizedConv1d],
                 heads: Mapping[str, QuantizedLinear],
                 in_channels: int, in_length: int,
                 steps: Optional[List[str]] = None) -> None:
        if not heads:
            raise ValueError("QuantizedForwardPlan needs at least one head")
        if steps is None:
            steps = ["conv", "relu"] * len(conv_layers)
        if [step for step in steps if step == "conv"] != ["conv"] * len(conv_layers):
            raise ValueError("steps must reference each conv layer exactly once, in order")
        if any(step not in ("conv", "relu") for step in steps):
            raise ValueError("steps may only contain 'conv' and 'relu'")
        self._steps = list(steps)
        self._convs = list(conv_layers)
        #: (channels, length) after each conv
        self._shapes = _conv_chain_shapes(self._convs, heads, in_channels, in_length)
        depths = [("conv", conv.in_channels * conv.kernel_size) for conv in self._convs]
        depths += [(f"head {name!r}", head.in_features) for name, head in heads.items()]
        for what, depth in depths:
            if depth * QMAX * QMAX >= _EXACT_ACCUMULATOR_LIMIT:
                raise ValueError(
                    f"{what} reduction depth {depth} overflows the exact "
                    "float32 integer accumulator (2**24); reduce the layer width"
                )
        head_scales = {head.act_scale for head in heads.values()}
        if len(head_scales) != 1:
            raise ValueError(
                "all heads consume the same flattened features and must share "
                "one activation scale"
            )
        self._heads = dict(heads)
        self._in_channels = in_channels
        self._in_length = in_length
        self._buffers: "OrderedDict[int, dict]" = OrderedDict()
        self._prepare_requantization()

    def _prepare_requantization(self) -> None:
        """Fuse each layer boundary into one requantization per conv output.

        Instead of dequantizing an accumulator to float and re-quantizing it
        for the next layer (two elementwise scale passes plus separate bias /
        ReLU passes), each conv output is mapped straight from accumulator
        codes to the next operand's codes:

        ``next_codes = clip(round(acc * m + b'), lo, 127)``

        with ``m = act_scale * weight_scale / next_scale`` and
        ``b' = bias / next_scale`` per output channel.  A ReLU between the
        two layers commutes with the positive per-channel scales, so it folds
        into a clip lower bound of 0.  The arithmetic is the same quantizer,
        just evaluated in one pass -- this is the requantization trick real
        int8 runtimes use, and it is what keeps the elementwise traffic of
        the int8 path below the float path's.
        """
        # Operand scale of every stage; the consumer scale of conv i is the
        # act_scale of conv i+1, or the heads' shared scale for the last conv.
        scales = [conv.act_scale for conv in self._convs] \
            + [next(iter(self._heads.values())).act_scale]
        # A ReLU ahead of the first conv applies to the float input itself.
        self._leading_relu, relu_before_consumer = _relu_placement(self._steps)

        #: per conv, the operands of :meth:`_conv_columns`: staged weight
        #: codes, requantization multiplier and bias columns, clip lower bound
        self._ops: List[tuple] = []
        for conv, scale, has_relu in zip(self._convs, scales[1:],
                                         relu_before_consumer):
            mult = (conv.act_scale * conv.weight_scale / scale).astype(np.float32)
            bias = None if conv.bias is None \
                else (conv.bias / scale).astype(np.float32)[:, None]
            self._ops.append((conv._weight_f32, mult[:, None], bias,
                              0.0 if has_relu else float(-QMAX)))
        # The raw input is quantized for its first consumer: conv 0, or the
        # heads themselves under a conv-less backbone.
        self._input_inv_scale = np.float32(1.0 / scales[0])

    # ------------------------------------------------------------------ #
    # Construction from a float network
    # ------------------------------------------------------------------ #
    @classmethod
    def from_network(cls, backbone: Sequential, heads: Mapping[str, Linear],
                     in_channels: int, in_length: int,
                     calibration: np.ndarray,
                     headroom: float = 1.0) -> "QuantizedForwardPlan":
        """Quantize a trained float backbone + heads against calibration data.

        ``calibration`` is a ``(n, in_channels, in_length)`` batch of
        representative (normal) inputs; its per-stage dynamic ranges become
        the activation scales.  ``headroom`` multiplies those ranges before
        the scales are derived: values above 1 trade quantization resolution
        for saturation margin, which matters when inference-time inputs are
        *expected* to exceed the calibration distribution -- an anomaly
        detector's whole job is to score such inputs, so
        :meth:`repro.core.detector.VaradeDetector.quantize` calibrates with
        headroom by default.
        """
        if not np.isfinite(headroom) or headroom < 1.0:
            raise ValueError("headroom must be a finite factor >= 1")
        current = np.ascontiguousarray(np.asarray(calibration, dtype=np.float64))
        if current.ndim != 3 or current.shape[1] != in_channels \
                or current.shape[2] != in_length:
            raise ValueError(
                f"calibration inputs must have shape (n, {in_channels}, {in_length}), "
                f"got {current.shape}"
            )
        if current.shape[0] == 0:
            raise ValueError("calibration requires at least one input window")

        def scale_of(operand: np.ndarray) -> float:
            """The dynamic range a quantized operand must cover, as a scale."""
            return float(_safe_scale(headroom * float(np.abs(operand).max())))

        # Run the float backbone over the calibration batch layer by layer,
        # quantizing each conv against the range of the input it sees.
        steps: List[str] = []
        conv_layers: List[QuantizedConv1d] = []
        for layer in backbone:
            if isinstance(layer, Conv1d):
                conv_layers.append(QuantizedConv1d.from_layer(layer, scale_of(current)))
                steps.append("conv")
                current = fast_conv1d(current, layer.weight.data,
                                      None if layer.bias is None else layer.bias.data,
                                      stride=layer.stride, padding=layer.padding)
            elif isinstance(layer, ReLU):
                steps.append("relu")
                current = np.maximum(current, 0.0)
            else:
                raise TypeError(
                    f"quantization supports Conv1d/ReLU backbones, got {type(layer).__name__}"
                )
        quantized_heads = {name: QuantizedLinear.from_layer(head, scale_of(current))
                           for name, head in heads.items()}
        return cls(conv_layers, quantized_heads, in_channels, in_length, steps=steps)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def conv_layers(self) -> List[QuantizedConv1d]:
        return list(self._convs)

    @property
    def heads(self) -> Dict[str, QuantizedLinear]:
        return dict(self._heads)

    @property
    def steps(self) -> List[str]:
        return list(self._steps)

    @property
    def in_channels(self) -> int:
        return self._in_channels

    @property
    def in_length(self) -> int:
        return self._in_length

    def parameter_bytes(self) -> int:
        """Bytes of stored model state: int8 codes + float32 scales/biases."""
        total = 0
        for layer in [*self._convs, *self._heads.values()]:
            total += layer.weight_q.size                 # int8 codes
            total += layer.weight_scale.size * 4         # scales as float32
            total += 0 if layer.bias is None else layer.bias.size * 4
        return total

    # ------------------------------------------------------------------ #
    # Batch execution
    # ------------------------------------------------------------------ #
    def _allocate(self, batch: int) -> dict:
        acts = [np.empty((self._in_channels, batch, self._in_length), dtype=np.float32)]
        cols: List[np.ndarray] = []
        for conv, (out_channels, out_length) in zip(self._convs, self._shapes):
            cols.append(np.empty(
                (conv.in_channels * conv.kernel_size, batch * out_length),
                dtype=np.float32,
            ))
            acts.append(np.empty((out_channels, batch, out_length), dtype=np.float32))
        channels, _, length = acts[-1].shape
        flat = np.empty((batch, channels, length), dtype=np.float32)
        heads = {name: np.empty((batch, head.out_features), dtype=np.float32)
                 for name, head in self._heads.items()}
        return {"acts": acts, "cols": cols, "flat": flat, "heads": heads}

    @staticmethod
    def _im2col(act: np.ndarray, kernel: int, stride: int, out_length: int,
                cols: np.ndarray) -> np.ndarray:
        """Copy the sliding view of a (C, N, L) activation into (C*K, N*Lout)."""
        channels, batch, _ = act.shape
        stride_c, stride_n, stride_l = act.strides
        view = as_strided(
            act,
            shape=(channels, kernel, batch, out_length),
            strides=(stride_c, stride_l, stride_n, stride_l * stride),
            writeable=False,
        )
        np.copyto(cols.reshape(channels, kernel, batch, out_length), view)
        return cols

    def forward(self, x: np.ndarray, layout: str = "ncl") -> Dict[str, np.ndarray]:
        """Run the quantized backbone + heads over a batch of inputs.

        ``layout`` names the axis order of ``x``: ``"ncl"`` is the
        channels-first ``(batch, channels, length)`` convention of the float
        plan; ``"nlc"`` accepts the stream layout ``(batch, length,
        channels)`` directly, saving the caller a transposition copy (the
        plan stages into its own ``(channels, batch, length)`` buffer either
        way).  Returns a mapping from head name to its ``(N, out_features)``
        float32 output buffer (overwritten by the next same-batch-size call).
        """
        x = np.asarray(x)
        if layout == "ncl":
            expected = (self._in_channels, self._in_length)
            stage_axes = (1, 0, 2)
        elif layout == "nlc":
            expected = (self._in_length, self._in_channels)
            stage_axes = (2, 0, 1)
        else:
            raise ValueError(f"layout must be 'ncl' or 'nlc', got {layout!r}")
        if x.ndim != 3 or x.shape[1:] != expected:
            raise ValueError(
                f"expected input of shape (batch, {expected[0]}, {expected[1]}) "
                f"for layout {layout!r}, got {x.shape}"
            )
        batch = x.shape[0]
        buffers = _lru_buffers(self._buffers, batch, self._allocate)
        acts = buffers["acts"]
        # Stage the input in (C, N, L) layout so every conv is one large GEMM.
        self._stage(x.transpose(stage_axes), acts[0])
        for conv_index, conv in enumerate(self._convs):
            out_channels, out_length = self._shapes[conv_index]
            cols = self._im2col(acts[conv_index], conv.kernel_size, conv.stride,
                                out_length, buffers["cols"][conv_index])
            # The (O, N, L) output buffer is contiguous: the layer runs on its
            # 2-D (O, N*L) view, the same routine a streaming push calls.
            self._conv_columns(
                self._ops[conv_index], cols,
                acts[conv_index + 1].reshape(out_channels, batch * out_length))
        # The last activation already holds int8 codes under the heads' scale.
        flat = buffers["flat"]
        np.copyto(flat, acts[-1].transpose(1, 0, 2))
        return self._head_rows(flat.reshape(batch, -1), self._heads,
                               buffers["heads"])

    # ------------------------------------------------------------------ #
    # Numeric kernel surface (see the repro.nn.fastpath module docstring)
    # ------------------------------------------------------------------ #
    def _stage(self, values: np.ndarray, out: np.ndarray) -> None:
        """Quantize raw samples to the first operand's codes, folding the
        divide into the staging copy."""
        np.multiply(values, self._input_inv_scale, out=out)
        if self._leading_relu:
            np.maximum(out, 0.0, out=out)
        np.rint(out, out=out)
        np.clip(out, -QMAX, QMAX, out=out)

    def _conv_columns(self, op: tuple, gather: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        """One layer's output codes for the im2col columns in ``gather``."""
        weight_f32, mult, bias, low = op
        # Integer matmul carried exactly in a float32 accumulator.
        out = np.matmul(weight_f32, gather, out=out)
        # Fused requantization straight to the consumer's codes (ReLU, if
        # present, is folded into the clip's lower bound of 0).
        out *= mult
        if bias is not None:
            out += bias
        np.rint(out, out=out)
        np.clip(out, low, QMAX, out=out)
        return out

    def _head_rows(self, flat: np.ndarray, heads: Mapping[str, QuantizedLinear],
                   outs: Optional[Mapping[str, np.ndarray]] = None
                   ) -> Dict[str, np.ndarray]:
        """``heads`` over ``(N, features)`` rows of codes, dequantized into
        ``outs`` or fresh arrays."""
        results: Dict[str, np.ndarray] = {}
        for name, head in heads.items():
            out = np.matmul(flat, head._weight_f32_t,
                            out=None if outs is None else outs[name])
            out *= head._dequant
            if head._bias_f32 is not None:
                out += head._bias_f32
            results[name] = out
        return results

    def _stream_ops(self) -> Tuple[List[int], List[tuple]]:
        """Exact integer GEMMs need no padded call shape: width 1 per conv."""
        return [1] * len(self._convs), self._ops

    def _stream_stale(self, ops: List[tuple]) -> bool:
        """Quantized parameters are immutable: bound operands never go stale."""
        return False
