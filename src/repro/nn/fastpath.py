"""Graph-free batched inference for convolutional forecasters.

Training needs the full autograd graph (:mod:`repro.nn.tensor`), but the
streaming hot path does not -- and in the seed implementation every scored
sample still paid for Python ``Tensor`` allocation, graph bookkeeping and a
fresh im2col copy per convolution.  On small edge-sized models that per-call
overhead dominates the arithmetic, exactly as the
:class:`repro.core.detector.InferenceCost.n_kernel_launches` model predicts.

This module is the vectorized fast path used by
:meth:`repro.core.varade.VaradeNetwork.predict_distribution`:

* :func:`fast_conv1d` runs a ``Conv1d`` forward on raw arrays.  The input is
  expanded into an im2col matrix with numpy stride tricks (a zero-copy view;
  the only copy is one buffered write) and contracted with the flattened
  ``(out_channels, in_channels * kernel)`` weight in a single batched matmul.
* :class:`FastForwardPlan` compiles a ``Conv1d``/``ReLU`` backbone plus a set
  of linear heads into a flat list of preallocated-buffer operations.
  Buffers are allocated once per batch size and reused, so steady-state
  streaming inference allocates almost nothing.

* :class:`IncrementalForwardPlan` is the single-stream streaming driver: it
  keeps every layer's recent activation columns so that one pushed sample
  costs one new column per layer -- O(layers) instead of the batch plan's
  O(window x layers) -- bit-identical to ``forward`` on the same window.

Two kernels, one driver
-----------------------

:class:`FastForwardPlan` (float64) and
:class:`repro.nn.quant.QuantizedForwardPlan` (int8 codes carried in float32)
are the two numeric kernels; :class:`IncrementalForwardPlan` is the one
streaming driver over both.  The driver owns only the sliding state
(buffers, positions, warm-up counters, compaction, the one-column ``push``
and the blocked ``push_many``) and asks the plan for every number through
the methods both kernels define: ``_stream_ops`` / ``_stream_stale`` (per
layer, the width new columns are zero-padded to and the GEMM operands, and
whether they must be re-bound), ``_stage`` (samples to first-layer operand
columns), ``_conv_columns`` (one layer's new output columns) and
``_head_rows`` (the linear heads).  Each plan's ``forward`` runs the same
head routine (int8 also the same stage and conv-column routines); only the
float *batch* convolution keeps its own call shape -- one ``(O, C*K) x
(C*K, L)`` matmul per batch slice -- the bit contract the golden fixtures
were recorded under.

Numerical contract: for a fixed input row the outputs are bit-identical no
matter which batch the row is scored in.  The convolution contracts every
batch slice with the same ``(O, C*K) x (C*K, L)`` matmul, and the heads use
``np.einsum`` whose reduction order does not depend on the batch size.  The
score-parity suite (``tests/test_edge/test_fleet_parity.py``) relies on this
to compare batched multi-stream scores against the sequential runtime.

The float kernel extends the contract to single-column updates.  BLAS
gemm kernels round differently depending on the output width class, so a
naive one-column matmul would drift from the batch result by ~1 ULP.  The
plan therefore picks, per conv layer and verified by a construction-time
probe against the real batch call, an update call shape that is
bit-identical to the batch matmul:

* ``pad8`` -- batch output widths that are a multiple of 8 place every
  column in a full width-8 kernel chunk, whose rounding any other
  multiple-of-8 call reproduces; new columns are computed zero-padded
  inside a width-8 (single push) or width-8k (chunked) call;
* ``padL`` -- other layers compute new columns at the exact batch call
  width ``L_out``: a fixed gemm shape rounds each column the same way
  regardless of its position or its neighbours' values (both probed), so
  a zero-padded call of that width reproduces the batch bits column for
  column.

:meth:`IncrementalForwardPlan.push_many` amortises the per-call Python
overhead by advancing whole blocks of samples at once -- each layer
computes all of a block's new columns in one (``pad8``, int8) or a few
(``padL``) gemm calls of the probed width class, which is where the
single-stream throughput win over the batch plan comes from.

When a layer shape is not causally updatable (padding, or a stride that is
not right-anchored on the window) or the probe finds a BLAS build violating
the width-class assumption, construction raises and callers fall back to
the batch plan -- the fallback path, never silent drift.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .layers import Conv1d, Linear, ReLU, Sequential

__all__ = ["fast_conv1d", "FastForwardPlan", "IncrementalForwardPlan"]

#: how many distinct batch sizes a plan keeps buffers for before evicting the
#: least recently used set (a fleet whose streams end at different times asks
#: for a shrinking sequence of batch sizes).
_MAX_CACHED_BATCH_SIZES = 8


def _im2col_view(x: np.ndarray, kernel: int, stride: int) -> Tuple[np.ndarray, int]:
    """Zero-copy ``(N, C, K, L_out)`` sliding view over a contiguous input."""
    batch, channels, length = x.shape
    out_length = (length - kernel) // stride + 1
    if out_length <= 0:
        raise ValueError(
            f"conv1d output length would be {out_length} (input length {length}, "
            f"kernel {kernel}, stride {stride})"
        )
    stride_n, stride_c, stride_l = x.strides
    view = as_strided(
        x,
        shape=(batch, channels, kernel, out_length),
        strides=(stride_n, stride_c, stride_l, stride_l * stride),
        writeable=False,
    )
    return view, out_length


def _check_scratch(buf: np.ndarray, shape: Tuple[int, ...], name: str) -> np.ndarray:
    """Validate a caller-provided scratch buffer before it feeds ``np.matmul``.

    ``np.matmul(..., out=...)`` (and the reshape the im2col copy relies on)
    silently produce garbage for mis-shaped, wrongly-typed or
    non-C-contiguous buffers, so reject anything that is not exactly the
    array the internal allocation would have produced.
    """
    buf = np.asarray(buf)
    if buf.shape != shape:
        raise ValueError(
            f"fast_conv1d {name} buffer has shape {buf.shape}, expected {shape}"
        )
    if buf.dtype != np.float64:
        raise ValueError(
            f"fast_conv1d {name} buffer must be float64, got {buf.dtype}"
        )
    if not buf.flags.c_contiguous:
        raise ValueError(f"fast_conv1d {name} buffer must be C-contiguous")
    return buf


def fast_conv1d(x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None,
                stride: int = 1, padding: int = 0,
                cols_buf: Optional[np.ndarray] = None,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """1-D convolution forward on raw arrays as one batched matmul.

    ``x`` is ``(N, C_in, L)`` (C-contiguous), ``weight`` ``(C_out, C_in, K)``;
    the result is ``(N, C_out, L_out)`` and matches
    :meth:`repro.nn.tensor.Tensor.conv1d` numerically.  ``cols_buf`` of shape
    ``(N, C_in * K, L_out)`` and ``out`` of shape ``(N, C_out, L_out)`` let
    the caller reuse scratch memory across calls; both must be C-contiguous
    float64 of exactly that shape (anything else raises ``ValueError``).
    """
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if x.ndim != 3 or weight.ndim != 3:
        raise ValueError("fast_conv1d expects input (N, C, L) and weight (C_out, C_in, K)")
    out_channels, in_channels, kernel = weight.shape
    if x.shape[1] != in_channels:
        raise ValueError(
            f"fast_conv1d channel mismatch: input has {x.shape[1]}, "
            f"weight expects {in_channels}"
        )
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    view, out_length = _im2col_view(x, kernel, stride)
    batch = x.shape[0]
    if cols_buf is None:
        cols_buf = np.empty((batch, in_channels * kernel, out_length))
    else:
        cols_buf = _check_scratch(
            cols_buf, (batch, in_channels * kernel, out_length), "cols_buf")
    np.copyto(cols_buf.reshape(batch, in_channels, kernel, out_length), view)
    if out is None:
        out = np.empty((batch, out_channels, out_length))
    else:
        out = _check_scratch(out, (batch, out_channels, out_length), "out")
    np.matmul(weight.reshape(out_channels, in_channels * kernel), cols_buf, out=out)
    if bias is not None:
        out += bias.reshape(-1, 1)
    return out


def _conv_chain_shapes(convs: Sequence, heads: Mapping[str, object],
                       in_channels: int, in_length: int) -> List[Tuple[int, int]]:
    """``(channels, length)`` after each conv of a float or int8 backbone
    (the layer classes share attribute names), validating the channel chain,
    the sequence length and that the heads consume the flattened result."""
    shapes: List[Tuple[int, int]] = []
    channels, length = in_channels, in_length
    for conv in convs:
        if conv.in_channels != channels:
            raise ValueError(
                f"backbone expects {conv.in_channels} channels, carrying {channels}"
            )
        length = conv.output_length(length)
        if length <= 0:
            raise ValueError("backbone reduces the sequence to zero length")
        channels = conv.out_channels
        shapes.append((channels, length))
    for name, head in heads.items():
        if head.in_features != channels * length:
            raise ValueError(
                f"head {name!r} expects {head.in_features} features, backbone "
                f"produces {channels * length}"
            )
    return shapes


def _relu_placement(kinds: Iterable[str]) -> Tuple[bool, List[bool]]:
    """Where the ReLUs of a ``conv``/``relu`` step list sit: ``(before the
    first conv?, [between conv i and its consumer?])``."""
    leading, after = False, []
    for kind in kinds:
        if kind == "conv":
            after.append(False)
        elif after:
            after[-1] = True
        else:
            leading = True
    return leading, after


def _lru_buffers(cache: "OrderedDict[int, dict]", batch: int,
                 allocate: Callable[[int], dict]) -> dict:
    """A plan's buffer set for ``batch`` rows, least recently used evicted."""
    buffers = cache.get(batch)
    if buffers is not None:
        cache.move_to_end(batch)
        return buffers
    buffers = cache[batch] = allocate(batch)
    while len(cache) > _MAX_CACHED_BATCH_SIZES:
        cache.popitem(last=False)
    return buffers


class FastForwardPlan:
    """Preallocated, graph-free forward pass for a conv backbone with heads.

    The plan walks a :class:`~repro.nn.layers.Sequential` of ``Conv1d`` and
    ``ReLU`` layers once at construction time to derive every intermediate
    shape, then executes the whole stack with ``matmul``/``einsum`` into
    reusable buffers.  Weights are read from the source modules at call time,
    so the plan stays valid across optimiser steps and
    :meth:`~repro.nn.module.Module.load_state_dict`.  It is also the float
    kernel of :class:`IncrementalForwardPlan`.

    .. warning::
       :meth:`forward` returns views of internal buffers that are overwritten
       by the next call with the same batch size; callers must copy (or
       derive new arrays from) anything they keep.
    """

    #: dtype of the activation columns a streaming driver buffers
    _act_dtype = np.float64

    def __init__(self, backbone: Sequential, heads: Mapping[str, Linear],
                 in_channels: int, in_length: int) -> None:
        if not heads:
            raise ValueError("FastForwardPlan needs at least one head")
        self._convs: List[Conv1d] = []
        kinds: List[str] = []
        for layer in backbone:
            if isinstance(layer, Conv1d):
                self._convs.append(layer)
                kinds.append("conv")
            elif isinstance(layer, ReLU):
                kinds.append("relu")
            else:
                raise TypeError(
                    f"FastForwardPlan supports Conv1d/ReLU backbones, got {type(layer).__name__}"
                )
        for name, head in heads.items():
            if not isinstance(head, Linear):
                raise TypeError(f"head {name!r} must be a Linear layer")
        #: (channels, length) after each conv
        self._shapes = _conv_chain_shapes(self._convs, heads, in_channels, in_length)
        self._leading_relu, self._relu_after = _relu_placement(kinds)
        self._heads = dict(heads)
        self._in_channels = in_channels
        self._in_length = in_length
        self._buffers: "OrderedDict[int, dict]" = OrderedDict()
        #: per conv update scheme (padL group width, 0 for pad8), probed on
        #: the first streaming use
        self._groups: Optional[List[int]] = None

    # ------------------------------------------------------------------ #
    # Batch execution
    # ------------------------------------------------------------------ #
    def _allocate(self, batch: int) -> dict:
        cols = [np.empty((batch, conv.in_channels * conv.kernel_size, out_length))
                for conv, (_, out_length) in zip(self._convs, self._shapes)]
        outs = [np.empty((batch, out_channels, out_length))
                for out_channels, out_length in self._shapes]
        heads = {name: np.empty((batch, head.out_features))
                 for name, head in self._heads.items()}
        return {"cols": cols, "outs": outs, "heads": heads}

    def forward(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        """Run the backbone and heads over ``x`` of shape ``(N, C, L)``.

        Returns a mapping from head name to its ``(N, out_features)`` output
        buffer (overwritten by the next same-batch-size call).
        """
        x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
        if x.ndim != 3 or x.shape[1] != self._in_channels or x.shape[2] != self._in_length:
            raise ValueError(
                f"expected input of shape (batch, {self._in_channels}, "
                f"{self._in_length}), got {x.shape}"
            )
        buffers = _lru_buffers(self._buffers, x.shape[0], self._allocate)
        # A leading ReLU must not clobber the caller's array (ascontiguousarray
        # returns contiguous input as is); the others run in place on buffers.
        current = np.maximum(x, 0.0) if self._leading_relu else x
        for index, (conv, relu) in enumerate(zip(self._convs, self._relu_after)):
            current = fast_conv1d(
                current, conv.weight.data,
                None if conv.bias is None else conv.bias.data,
                stride=conv.stride, padding=conv.padding,
                cols_buf=buffers["cols"][index], out=buffers["outs"][index])
            if relu:
                np.maximum(current, 0.0, out=current)
        return self._head_rows(current.reshape(current.shape[0], -1),
                               self._heads, buffers["heads"])

    # ------------------------------------------------------------------ #
    # Numeric kernel surface (shared with QuantizedForwardPlan)
    # ------------------------------------------------------------------ #
    def _head_rows(self, flat: np.ndarray, heads: Mapping[str, Linear],
                   outs: Optional[Mapping[str, np.ndarray]] = None
                   ) -> Dict[str, np.ndarray]:
        """``heads`` over ``(N, features)`` rows, into ``outs`` or fresh arrays."""
        results: Dict[str, np.ndarray] = {}
        for name, head in heads.items():
            # einsum keeps the reduction order independent of the batch size,
            # which the batched-vs-sequential (and push-vs-batch) score
            # parity guarantee needs.
            out = np.einsum("nf,of->no", flat, head.weight.data,
                            out=None if outs is None else outs[name])
            if head.bias is not None:
                out += head.bias.data
            results[name] = out
        return results

    def _stage(self, values: np.ndarray, out: np.ndarray) -> None:
        """Raw samples to first-layer operand columns."""
        if self._leading_relu:
            np.maximum(values, 0.0, out=out)
        else:
            np.copyto(out, values)

    def _conv_columns(self, op: tuple, gather: np.ndarray,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
        """One layer's output columns for the im2col columns in ``gather``,
        whose width is a multiple of the layer's probed update width."""
        w2d, bias_col, relu, group, _, _ = op
        if group and gather.shape[1] > group:
            # padL block: groups at exactly the batch call width
            out = np.empty((w2d.shape[0], gather.shape[1]))
            for g in range(0, gather.shape[1], group):
                out[:, g:g + group] = w2d @ np.ascontiguousarray(
                    gather[:, g:g + group])
        else:
            # one call: a single padL group, or a multiple-of-8 width in
            # which every column sits in a full width-8 chunk (pad8)
            out = np.matmul(w2d, gather, out=out)
        if bias_col is not None:
            out += bias_col
        if relu:
            np.maximum(out, 0.0, out=out)
        return out

    def _stream_ops(self) -> Tuple[List[int], List[tuple]]:
        """Per conv, the width new columns are zero-padded to and the operands
        of :meth:`_conv_columns`: live 2-D parameter views (in-place updates
        stay visible), ReLU flag, padL group, and the arrays viewed."""
        if self._groups is None:
            self._groups = [self._probe_group(conv, out_length) for conv, (_, out_length)
                            in zip(self._convs, self._shapes)]
        ops = [(self._weight_2d(conv),
                None if conv.bias is None else conv.bias.data.reshape(-1, 1),
                relu, group, conv.weight.data,
                None if conv.bias is None else conv.bias.data)
               for conv, relu, group in zip(self._convs, self._relu_after, self._groups)]
        return [group or _GEMM_CHUNK for group in self._groups], ops

    def _stream_stale(self, ops: List[tuple]) -> bool:
        """Whether an optimiser step or ``load_state_dict`` has *replaced* a
        parameter array since ``ops`` viewed it (one identity check each)."""
        for conv, (_, _, _, _, weight, bias) in zip(self._convs, ops):
            if conv.weight.data is not weight or (
                    conv.bias is not None and conv.bias.data is not bias):
                return True
        return False

    @staticmethod
    def _weight_2d(conv: Conv1d) -> np.ndarray:
        return np.ascontiguousarray(conv.weight.data).reshape(
            conv.out_channels, conv.in_channels * conv.kernel_size)

    @classmethod
    def _probe_group(cls, conv: Conv1d, out_length: int) -> int:
        """The layer's update scheme, probed against the batch call with the
        real layer weight: 0 for pad8, the group width ``L_out`` for padL."""
        w2d = cls._weight_2d(conv)
        if out_length % _GEMM_CHUNK == 0 and _probe_update_scheme(
                w2d, w2d.shape[1], out_length, _GEMM_CHUNK):
            return 0
        if _probe_update_scheme(w2d, w2d.shape[1], out_length, out_length):
            return out_length
        raise ValueError(
            "incremental plan disabled: this BLAS build reproduces none of "
            "the padded update call shapes bit for bit"
        )


#: gemm output-width chunk: columns inside full width-8 chunks share their
#: rounding across every call whose width is a multiple of the chunk.
_GEMM_CHUNK = 8

#: how many samples a chunked advance processes per block (also the slack the
#: sliding layer buffers keep beyond the window before compacting).
_BLOCK = 256


def _probe_update_scheme(w2d: np.ndarray, depth: int, out_length: int,
                         width: int) -> bool:
    """Check, with the real layer weight, that zero-padded update calls of
    ``width`` columns reproduce the bits of the batch
    ``(O, depth) x (1, depth, L)`` matmul on random data.

    ``width`` is either ``_GEMM_CHUNK`` (requires ``out_length % 8 == 0``)
    or ``out_length`` itself (the ``padL`` scheme).
    """
    rng = np.random.default_rng(0x1C4)
    for _ in range(2):
        cols = np.ascontiguousarray(
            rng.standard_normal((1, depth, out_length)))
        reference = np.matmul(w2d, cols)[0]
        # (a) the plain 2-D call at the batch width matches the batch bits
        #     (chunked padL groups run at exactly this call shape).
        if not np.array_equal(w2d @ cols[0], reference):
            return False
        # (b) a zero-padded single column at position 0 of a width-`width`
        #     call matches the batch bits of a column at any position.
        for j in {0, out_length // 2, out_length - 1}:
            padded = np.zeros((depth, width))
            padded[:, 0] = cols[0][:, j]
            if not np.array_equal((w2d @ padded)[:, :1],
                                  reference[:, j:j + 1]):
                return False
        # (c) a column's bits do not depend on its neighbours' values.
        if out_length > 1:
            alt = np.array(cols[0])
            alt[:, 1:] = rng.standard_normal((depth, out_length - 1))
            if not np.array_equal((w2d @ alt)[:, :1], reference[:, :1]):
                return False
        # (d) full-chunk columns agree across multiple-of-8 widths (the
        #     chunked pad8 advance uses widths 8, 16, ... per block).
        if width == _GEMM_CHUNK:
            wide = rng.standard_normal((depth, 2 * _GEMM_CHUNK))
            halves = np.hstack([w2d @ np.ascontiguousarray(wide[:, :_GEMM_CHUNK]),
                                w2d @ np.ascontiguousarray(wide[:, _GEMM_CHUNK:])])
            if not np.array_equal(w2d @ wide, halves):
                return False
    return True


class IncrementalForwardPlan:
    """O(layers)-per-sample streaming driver over a batch plan.

    ``plan`` is either numeric kernel -- a float :class:`FastForwardPlan` or
    an int8 :class:`repro.nn.quant.QuantizedForwardPlan`
    (``IncrementalQuantizedPlan`` is this same class under its old name).
    One instance carries the state of a single stream: a sliding buffer per
    layer holding that layer's activation column for each recent push.
    :meth:`push` appends one sample, has the plan compute exactly one new
    column per conv layer and, once the buffers cover a window, returns the
    head outputs for the window ending at that sample -- bit-identical to
    ``plan.forward`` on the same window (the module docstring has the kernel
    surface, the float update call shapes and the BLAS probe behind that).
    :meth:`push_many` advances whole blocks with the same bits while
    amortising the per-push Python overhead.

    >>> import numpy as np
    >>> from repro import nn
    >>> rng = np.random.default_rng(0)
    >>> backbone = nn.Sequential(
    ...     nn.Conv1d(2, 3, kernel_size=2, stride=2, rng=rng), nn.ReLU(),
    ...     nn.Conv1d(3, 3, kernel_size=2, stride=2, rng=rng), nn.ReLU())
    >>> heads = {"log_var": nn.Linear(3 * 2, 2, rng=rng)}
    >>> stream = rng.normal(size=(12, 2))
    >>> windows = np.stack([stream[t - 7:t + 1].T for t in range(7, 12)])
    >>> plans = [nn.FastForwardPlan(backbone, heads, in_channels=2, in_length=8),
    ...          nn.QuantizedForwardPlan.from_network(
    ...              backbone, heads, in_channels=2, in_length=8, calibration=windows)]
    >>> for plan in plans:
    ...     rows = list(map(nn.IncrementalForwardPlan(plan).push, stream))
    ...     pushed = np.concatenate([row["log_var"] for row in rows[7:]])
    ...     rows[:7] == [None] * 7 and np.array_equal(
    ...         pushed, plan.forward(windows)["log_var"])
    True
    True

    Construction raises ``ValueError`` for backbones that cannot be updated
    causally -- any padded conv, or a strided conv that is not
    right-anchored on the window (``(L_in - kernel) % stride != 0``) -- and
    when the float kernel's BLAS probe fails; use :meth:`supports` to test
    first and fall back to the batch plan.  Any gap in the stream requires
    :meth:`reset`, after which the plan warms up again from scratch.  An
    optimiser step or ``load_state_dict`` *replacing* a parameter array
    restarts the warm-up by itself, so columns computed under old weights
    never reach an output; weights mutated *in place* are read live but go
    undetected -- call :meth:`reset` after that.

    ``heads`` optionally restricts which heads are evaluated per push (the
    serving hot path only needs ``log_var``); restricting heads does not
    change the bits of the ones kept.
    """

    def __init__(self, plan, heads: Optional[Sequence[str]] = None) -> None:
        self._plan = plan
        self._in_channels = plan._in_channels
        self._in_length = plan._in_length
        heads = list(plan._heads if heads is None else heads)
        unknown = [name for name in heads if name not in plan._heads]
        if unknown:
            raise ValueError(f"unknown heads {unknown!r}")
        self._heads = {name: plan._heads[name] for name in heads}

        # -- causal geometry: dilation and first computable push per conv -- #
        self._geometry: List[Tuple[int, int, int]] = []   # (kernel, d_in, first_t)
        length, d, first_t = self._in_length, 1, 0
        for index, (conv, (_, out_length)) in enumerate(
                zip(plan._convs, plan._shapes)):
            if conv.padding != 0:
                raise ValueError(
                    "incremental plan needs unpadded (causal) convolutions, "
                    f"conv {index} has padding={conv.padding}"
                )
            if (length - conv.kernel_size) % conv.stride != 0:
                raise ValueError(
                    f"conv {index} is not right-anchored on the window: "
                    f"(L_in={length} - kernel={conv.kernel_size}) is not a "
                    f"multiple of stride={conv.stride}"
                )
            # A layer's newest column first becomes computable once its taps
            # reach back only onto columns the previous layer has produced.
            first_t += (conv.kernel_size - 1) * d
            self._geometry.append((conv.kernel_size, d, first_t))
            length, d = out_length, d * conv.stride
        self._final_length = length
        self._final_d = d
        # Right-anchored layers satisfy L_in - 1 = (L_out - 1)s + k - 1, so
        # this telescopes to exactly in_length - 1: the first window fill.
        self._warm_t = first_t + (length - 1) * d
        self._widths, self._ops = plan._stream_ops()

        # -- sliding buffers and scratch ----------------------------------- #
        # Buffer i holds one activation column of layer i per push, written
        # left to right; when the slack runs out the newest `in_length`
        # columns (every tap reaches back at most in_length - 1 pushes) are
        # compacted to the front.
        dtype = plan._act_dtype
        capacity = self._in_length + _BLOCK
        self._bufs: List[np.ndarray] = [
            np.zeros((self._in_channels, capacity), dtype=dtype)]
        self._gathers: List[np.ndarray] = []
        self._gather_views: List[np.ndarray] = []
        self._outs: List[np.ndarray] = []
        for conv, width in zip(plan._convs, self._widths):
            self._bufs.append(np.zeros((conv.out_channels, capacity), dtype=dtype))
            # Zero beyond column 0 for good: a push only ever writes column 0.
            gather = np.zeros((conv.in_channels * conv.kernel_size, width),
                              dtype=dtype)
            self._gathers.append(gather)
            self._gather_views.append(
                gather.reshape(conv.in_channels, conv.kernel_size, width))
            self._outs.append(np.empty((conv.out_channels, width), dtype=dtype))
        self.reset()

    @classmethod
    def supports(cls, plan) -> bool:
        """Whether ``plan``'s shapes (and, for float, the BLAS build) allow
        incremental updates; ``False``: callers stay on the batch plan."""
        try:
            cls(plan)
        except (TypeError, ValueError):
            return False
        return True

    # ------------------------------------------------------------------ #
    @property
    def samples_seen(self) -> int:
        """Pushes since construction or the last restart of the warm-up."""
        return self._t

    @property
    def warm(self) -> bool:
        """Whether the buffers cover a full window (push returns outputs)."""
        return self._t > self._warm_t

    @property
    def warmup_left(self) -> int:
        """Pushes before the next one that returns outputs (0 when the next
        push does); operands replaced since the last push count as the
        restart the next push will make."""
        if self._plan._stream_stale(self._ops):
            return self._warm_t
        return max(0, self._warm_t - self._t)

    def reset(self) -> None:
        """Forget all stream state (call on any gap in the sample stream)."""
        self._t = 0
        self._pos = [0] * len(self._bufs)

    def _sync(self) -> None:
        """Re-bind the operands and restart the warm-up if they went stale."""
        if self._plan._stream_stale(self._ops):
            self._widths, self._ops = self._plan._stream_ops()
            self.reset()

    def _room(self, index: int, n: int) -> int:
        """Write position for ``n`` new columns in layer ``index``'s buffer,
        compacting the newest window of columns to the front when full."""
        buf = self._bufs[index]
        pos = self._pos[index]
        if pos + n <= buf.shape[1]:
            return pos
        keep = min(pos, self._in_length)
        buf[:, :keep] = buf[:, pos - keep:pos].copy()
        self._pos[index] = keep
        return keep

    # ------------------------------------------------------------------ #
    def push(self, sample: np.ndarray) -> Optional[Dict[str, np.ndarray]]:
        """Advance the stream by one sample of shape ``(in_channels,)``.

        Returns the head outputs (mapping name -> fresh ``(1, out_features)``
        array, the caller's to keep) for the window ending at this sample,
        or ``None`` while warming up.  The outputs are bit-identical to
        ``plan.forward`` on the same window.
        """
        sample = np.asarray(sample, dtype=np.float64).ravel()
        if sample.shape[0] != self._in_channels:
            raise ValueError(
                f"expected a sample of {self._in_channels} channels, "
                f"got {sample.shape[0]}"
            )
        self._sync()
        plan, ops, bufs, positions = self._plan, self._ops, self._bufs, self._pos
        t = self._t
        self._t = t + 1
        pos = self._room(0, 1)
        plan._stage(sample, bufs[0][:, pos])
        positions[0] = pos + 1
        for index, (kernel, d_in, first_t) in enumerate(self._geometry):
            if t < first_t:
                break       # deeper layers start strictly later
            newest = positions[index] - 1        # column of push t
            self._gather_views[index][:, :, 0] = bufs[index][
                :, newest - (kernel - 1) * d_in:newest + 1:d_in]
            out = plan._conv_columns(ops[index], self._gathers[index],
                                     self._outs[index])
            pos = self._room(index + 1, 1)
            bufs[index + 1][:, pos] = out[:, 0]
            positions[index + 1] = pos + 1
        if t < self._warm_t:
            return None
        newest = positions[-1] - 1
        d = self._final_d
        final = np.ascontiguousarray(bufs[-1][
            :, newest - (self._final_length - 1) * d:newest + 1:d])
        return plan._head_rows(final.reshape(1, -1), self._heads)

    # ------------------------------------------------------------------ #
    def push_many(self, samples: np.ndarray) -> Dict[str, np.ndarray]:
        """Advance the stream by ``samples`` of shape ``(S, in_channels)``.

        Returns a mapping from head name to a fresh ``(S, out_features)``
        array whose row ``i`` holds the outputs for the window ending at
        sample ``i`` -- bit-identical to :meth:`push` one sample at a time
        (and therefore to the batch plan) -- with rows pushed during warm-up
        left as NaN.  Each layer advances a whole block per gemm call, so
        this is the high-throughput path for replay and bursty ingestion.
        """
        samples = np.ascontiguousarray(np.asarray(samples, dtype=np.float64))
        if samples.ndim != 2 or samples.shape[1] != self._in_channels:
            raise ValueError(
                f"expected samples of shape (S, {self._in_channels}), "
                f"got {samples.shape}"
            )
        total = samples.shape[0]
        outs = {name: np.full((total, head.out_features), np.nan,
                              dtype=self._plan._act_dtype)
                for name, head in self._heads.items()}
        i = 0
        while i < total:
            self._sync()
            if self._t < self._warm_t:
                # Warm-up pushes produce no outputs; run them one by one so
                # the block body never has to gate layers on first_t.
                self.push(samples[i])
                i += 1
                continue
            block = samples[i:i + _BLOCK]
            for name, arr in self._advance_block(block).items():
                outs[name][i:i + block.shape[0]] = arr
            i += block.shape[0]
        return outs

    def _advance_block(self, block: np.ndarray) -> Dict[str, np.ndarray]:
        """Advance every layer by one block of pushes (requires ``t`` past
        every layer's ``first_t``, i.e. the plan is warm)."""
        plan, bufs, positions = self._plan, self._bufs, self._pos
        dtype = plan._act_dtype
        count = block.shape[0]
        self._t += count
        pos = self._room(0, count)
        plan._stage(block.T, bufs[0][:, pos:pos + count])
        positions[0] = pos + count
        for index, (kernel, d_in, _) in enumerate(self._geometry):
            previous = bufs[index]
            base = positions[index] - count      # column of the block start
            width = self._widths[index]
            padded = -(-count // width) * width
            gather = (np.zeros if padded > count else np.empty)(
                (previous.shape[0] * kernel, padded), dtype=dtype)
            g3 = gather.reshape(previous.shape[0], kernel, padded)
            for tap in range(kernel):
                start = base - (kernel - 1 - tap) * d_in
                g3[:, tap, :count] = previous[:, start:start + count]
            out = plan._conv_columns(self._ops[index], gather)
            pos = self._room(index + 1, count)
            bufs[index + 1][:, pos:pos + count] = out[:, :count]
            positions[index + 1] = pos + count
        buf = bufs[-1]
        base = positions[-1] - count
        length, d = self._final_length, self._final_d
        flat = np.empty((count, buf.shape[0], length), dtype=dtype)
        for j in range(length):
            start = base - (length - 1 - j) * d
            flat[:, :, j] = buf[:, start:start + count].T
        return plan._head_rows(flat.reshape(count, -1), self._heads)
