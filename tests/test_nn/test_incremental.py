"""Bit-parity suite for the streaming forward driver over both kernels.

The contract under test: ``IncrementalForwardPlan.push`` (and its chunked
``push_many``), built on a float ``FastForwardPlan`` or an int8
``QuantizedForwardPlan`` (``IncrementalQuantizedPlan`` is the same class),
produces **bit-identical** head outputs to the batch plan's ``forward`` on
the same window -- not approximately equal, ``assert_array_equal`` equal.
The deterministic classes pin the mechanics (warm-up, reset, compaction,
fallback guards, output ownership, re-bound weights); the Hypothesis class
sweeps conv shapes, chunk splits, NaN warm-up prefixes and mid-stream
resets.  Cases that do not depend on the kernel take it as one more input.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.nn.fastpath import FastForwardPlan, IncrementalForwardPlan
from repro.nn.quant import IncrementalQuantizedPlan, QuantizedForwardPlan


def _stack(rng, channels, window, feature_maps, min_length=2):
    """A VARADE-shaped stride-2 conv stack with two linear heads."""
    layers, length, width = [], window, channels
    while length > min_length:
        layers += [nn.Conv1d(width, feature_maps, kernel_size=2, stride=2,
                             rng=rng), nn.ReLU()]
        width = feature_maps
        length //= 2
    backbone = nn.Sequential(*layers)
    heads = {"log_var": nn.Linear(width * length, channels, rng=rng),
             "mean": nn.Linear(width * length, channels, rng=rng)}
    return backbone, heads


def _float_plan(rng, channels, window, feature_maps):
    backbone, heads = _stack(rng, channels, window, feature_maps)
    return FastForwardPlan(backbone, heads, in_channels=channels,
                           in_length=window)


def _quant_plan(rng, channels, window, feature_maps):
    backbone, heads = _stack(rng, channels, window, feature_maps)
    calibration = rng.normal(size=(32, channels, window))
    return QuantizedForwardPlan.from_network(
        backbone, heads, in_channels=channels, in_length=window,
        calibration=calibration)


def _batch_float(plan, stream, window):
    """Batch-plan outputs for every full window of ``stream`` (S, C)."""
    xs = np.ascontiguousarray(np.stack(
        [stream[t - window + 1:t + 1].T
         for t in range(window - 1, stream.shape[0])]))
    return {name: out.copy() for name, out in plan.forward(xs).items()}


def _batch_quant(plan, stream, window):
    xs = np.stack([stream[t - window + 1:t + 1]
                   for t in range(window - 1, stream.shape[0])])
    return {name: out.copy()
            for name, out in plan.forward(xs, layout="nlc").items()}


#: one more input for every case that holds on either numeric kernel
both_kernels = pytest.mark.parametrize("kernel", ["float", "int8"])


def _plan(kernel, rng, channels, window, feature_maps):
    build = _float_plan if kernel == "float" else _quant_plan
    return build(rng, channels, window, feature_maps)


def _batch(plan, stream, window):
    if isinstance(plan, FastForwardPlan):
        return _batch_float(plan, stream, window)
    return _batch_quant(plan, stream, window)


@pytest.fixture
def rng():
    return np.random.default_rng(3)


def test_one_driver_class_under_two_names():
    assert IncrementalQuantizedPlan is IncrementalForwardPlan
    assert nn.IncrementalQuantizedPlan is nn.IncrementalForwardPlan


class TestIncrementalForwardPlan:
    def test_push_matches_batch_bit_identical(self, rng):
        window, channels = 16, 3
        plan = _float_plan(rng, channels, window, feature_maps=4)
        inc = IncrementalForwardPlan(plan)
        stream = rng.normal(size=(60, channels))
        batch = _batch_float(plan, stream, window)
        row = 0
        for t in range(stream.shape[0]):
            heads = inc.push(stream[t])
            if t < window - 1:
                assert heads is None
            else:
                for name in batch:
                    np.testing.assert_array_equal(heads[name][0],
                                                  batch[name][row])
                row += 1

    @pytest.mark.parametrize("chunks", [(60,), (1, 3, 7, 49), (13, 13, 34)])
    def test_push_many_matches_batch_with_odd_chunks(self, rng, chunks):
        window, channels = 16, 3
        plan = _float_plan(rng, channels, window, feature_maps=4)
        inc = IncrementalForwardPlan(plan)
        stream = rng.normal(size=(sum(chunks), channels))
        batch = _batch_float(plan, stream, window)
        outs = {name: [] for name in batch}
        offset = 0
        for chunk in chunks:
            result = inc.push_many(stream[offset:offset + chunk])
            for name in outs:
                outs[name].append(result[name].copy())
            offset += chunk
        for name in batch:
            rows = np.concatenate(outs[name])
            assert np.isnan(rows[:window - 1]).all()
            np.testing.assert_array_equal(rows[window - 1:], batch[name])

    def test_reset_restarts_warmup_and_matches_fresh_state(self, rng):
        window, channels = 8, 2
        plan = _float_plan(rng, channels, window, feature_maps=3)
        inc = IncrementalForwardPlan(plan)
        inc.push_many(rng.normal(size=(20, channels)))
        inc.reset()
        assert inc.samples_seen == 0 and not inc.warm
        tail = rng.normal(size=(30, channels))
        after_reset = inc.push_many(tail)["log_var"]
        fresh = IncrementalForwardPlan(plan).push_many(tail)["log_var"]
        np.testing.assert_array_equal(after_reset, fresh)

    def test_long_stream_exercises_buffer_compaction(self, rng):
        """Streams far longer than the buffer capacity stay bit-exact."""
        window, channels = 8, 2
        plan = _float_plan(rng, channels, window, feature_maps=3)
        inc = IncrementalForwardPlan(plan)
        stream = rng.normal(size=(700, channels))     # > in_length + block
        batch = _batch_float(plan, stream, window)
        rows = inc.push_many(stream)["log_var"]
        np.testing.assert_array_equal(rows[window - 1:], batch["log_var"])

    @both_kernels
    def test_nan_warmup_prefix_propagates_exactly(self, rng, kernel):
        window, channels = 8, 2
        plan = _plan(kernel, rng, channels, window, feature_maps=3)
        stream = rng.normal(size=(30, channels))
        stream[:3] = np.nan
        batch = _batch(plan, stream, window)
        rows = IncrementalForwardPlan(plan).push_many(stream)["log_var"]
        # NaN windows and clean windows alike must match the batch bits.
        np.testing.assert_array_equal(rows[window - 1:], batch["log_var"])
        assert np.isnan(rows[window - 1]).all()       # covers a NaN sample

    @both_kernels
    @pytest.mark.parametrize("sequence", [tuple, list])
    def test_head_restriction_does_not_change_bits(self, rng, kernel, sequence):
        window, channels = 16, 3
        plan = _plan(kernel, rng, channels, window, feature_maps=4)
        stream = rng.normal(size=(40, channels))
        full = IncrementalForwardPlan(plan).push_many(stream)
        only = IncrementalForwardPlan(
            plan, heads=sequence(["log_var"])).push_many(stream)
        assert set(only) == {"log_var"}
        np.testing.assert_array_equal(only["log_var"], full["log_var"])

    @both_kernels
    def test_unknown_head_rejected(self, rng, kernel):
        plan = _plan(kernel, rng, 2, 8, feature_maps=3)
        with pytest.raises(ValueError, match="unknown heads"):
            IncrementalForwardPlan(plan, heads=("sigma",))

    def test_padded_conv_is_rejected_and_supports_says_so(self, rng):
        backbone = nn.Sequential(
            nn.Conv1d(2, 3, kernel_size=3, stride=1, padding=1, rng=rng),
            nn.ReLU())
        heads = {"out": nn.Linear(3 * 8, 2, rng=rng)}
        plan = FastForwardPlan(backbone, heads, in_channels=2, in_length=8)
        assert not IncrementalForwardPlan.supports(plan)
        with pytest.raises(ValueError):
            IncrementalForwardPlan(plan)

    @both_kernels
    def test_misaligned_stride_is_rejected(self, rng, kernel):
        # (L_in - kernel) % stride != 0: the final tap is not right-anchored
        # on the window, so a causal per-sample update cannot reproduce it.
        backbone = nn.Sequential(
            nn.Conv1d(2, 3, kernel_size=2, stride=2, rng=rng), nn.ReLU())
        heads = {"out": nn.Linear(3 * 4, 2, rng=rng)}
        if kernel == "float":
            plan = FastForwardPlan(backbone, heads, in_channels=2, in_length=9)
        else:
            plan = QuantizedForwardPlan.from_network(
                backbone, heads, in_channels=2, in_length=9,
                calibration=rng.normal(size=(8, 2, 9)))
        assert not IncrementalForwardPlan.supports(plan)
        with pytest.raises(ValueError, match="right-anchored"):
            IncrementalForwardPlan(plan)

    @both_kernels
    def test_wrong_channel_count_rejected_on_push(self, rng, kernel):
        inc = IncrementalForwardPlan(_plan(kernel, rng, 3, 8, feature_maps=3))
        with pytest.raises(ValueError, match="channels"):
            inc.push(np.zeros(5))
        with pytest.raises(ValueError, match="shape"):
            inc.push_many(np.zeros((4, 5)))

    @both_kernels
    def test_push_outputs_belong_to_the_caller(self, rng, kernel):
        """A kept ``push`` row is a fresh array: the next push (or block)
        does not overwrite it."""
        window, channels = 8, 2
        plan = _plan(kernel, rng, channels, window, feature_maps=3)
        inc = IncrementalForwardPlan(plan)
        stream = rng.normal(size=(window + 12, channels))
        kept = [inc.push(sample) for sample in stream[:window + 3]][window - 1:]
        snapshots = [{name: out.copy() for name, out in row.items()}
                     for row in kept]
        inc.push_many(stream[window + 3:])
        batch = _batch(plan, stream, window)
        for index, (row, snapshot) in enumerate(zip(kept, snapshots)):
            for name, out in row.items():
                assert out.shape == (1, channels)
                np.testing.assert_array_equal(out, snapshot[name])
                np.testing.assert_array_equal(out[0], batch[name][index])
        assert not any(np.shares_memory(a["log_var"], b["log_var"])
                       for a, b in zip(kept, kept[1:]))

    @both_kernels
    def test_convless_backbone_is_accepted(self, rng, kernel):
        """Heads straight on the raw window: both kernels stream it."""
        window, channels = 4, 2
        backbone = nn.Sequential(nn.ReLU())
        heads = {"out": nn.Linear(channels * window, 3, rng=rng)}
        if kernel == "float":
            plan = FastForwardPlan(backbone, heads, in_channels=channels,
                                   in_length=window)
        else:
            plan = QuantizedForwardPlan.from_network(
                backbone, heads, in_channels=channels, in_length=window,
                calibration=rng.normal(size=(8, channels, window)))
        stream = rng.normal(size=(15, channels))
        assert IncrementalForwardPlan.supports(plan)
        rows = IncrementalForwardPlan(plan).push_many(stream)["out"]
        np.testing.assert_array_equal(rows[window - 1:],
                                      _batch(plan, stream, window)["out"])

    def test_reads_live_weights(self, rng):
        """Incremental state reads the same live weight views as the batch
        plan, so a weight update between streams is picked up."""
        plan = _float_plan(rng, 2, 8, feature_maps=3)
        stream = rng.normal(size=(20, 2))
        before = IncrementalForwardPlan(plan).push_many(stream)["log_var"]
        for conv in plan._convs:
            conv.weight.data *= 1.5
        after = IncrementalForwardPlan(plan).push_many(stream)["log_var"]
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(
            after[7:], _batch_float(plan, stream, 8)["log_var"])

    @pytest.mark.parametrize("mutation", ["load_state_dict", "optimizer_step",
                                          "in_place_then_reset"])
    @pytest.mark.parametrize("chunked", [False, True])
    def test_no_output_from_stale_or_mixed_weights(self, rng, mutation, chunked):
        """Regression: ``load_state_dict`` and optimiser steps replace
        ``parameter.data``, which used to leave a live stream computing from
        views of the old arrays.  Every non-``None`` row, before and after
        the weights change, equals ``forward`` under the weights of the time;
        a replaced array restarts the warm-up by itself, an in-place update
        (invisible to an identity check) is followed by ``reset()``."""
        window, channels, split = 8, 2, 20
        backbone, heads = _stack(rng, channels, window, 3)
        plan = FastForwardPlan(backbone, heads, in_channels=channels,
                               in_length=window)
        inc = IncrementalForwardPlan(plan, heads=("log_var",))
        stream = rng.normal(size=(50, channels))

        def advance(samples):
            if chunked:
                return inc.push_many(samples)["log_var"]
            rows = [inc.push(sample) for sample in samples]
            return np.concatenate([
                np.full((1, channels), np.nan) if row is None
                else row["log_var"] for row in rows])

        before = advance(stream[:split])
        np.testing.assert_array_equal(
            before[window - 1:],
            _batch_float(plan, stream[:split], window)["log_var"])
        if mutation == "load_state_dict":
            backbone.load_state_dict({name: 1.5 * value for name, value
                                      in backbone.state_dict().items()})
        elif mutation == "optimizer_step":
            parameters = backbone.parameters()
            for parameter in parameters:
                parameter.grad = np.ones_like(parameter.data)
            nn.SGD(parameters, lr=0.05).step()
        else:
            for conv in plan._convs:
                conv.weight.data *= 1.5
            inc.reset()
        after = advance(stream[split:])
        # The warm-up restarted: no row is computed from pre-change columns.
        assert np.isnan(after[:window - 1]).all()
        assert inc.samples_seen == stream.shape[0] - split
        np.testing.assert_array_equal(
            after[window - 1:],
            _batch_float(plan, stream[split:], window)["log_var"])


class TestIncrementalQuantizedPlan:
    def test_push_matches_batch_bit_identical(self, rng):
        window, channels = 16, 3
        plan = _quant_plan(rng, channels, window, feature_maps=4)
        inc = IncrementalQuantizedPlan(plan)
        stream = rng.normal(size=(50, channels))
        batch = _batch_quant(plan, stream, window)
        row = 0
        for t in range(stream.shape[0]):
            heads = inc.push(stream[t])
            if t < window - 1:
                assert heads is None
            else:
                for name in batch:
                    np.testing.assert_array_equal(heads[name][0],
                                                  batch[name][row])
                row += 1

    @pytest.mark.parametrize("chunks", [(50,), (2, 5, 11, 32)])
    def test_push_many_matches_batch_with_odd_chunks(self, rng, chunks):
        window, channels = 8, 2
        plan = _quant_plan(rng, channels, window, feature_maps=3)
        inc = IncrementalQuantizedPlan(plan)
        stream = rng.normal(size=(sum(chunks), channels))
        batch = _batch_quant(plan, stream, window)
        rows, offset = [], 0
        for chunk in chunks:
            rows.append(inc.push_many(stream[offset:offset + chunk])["log_var"]
                        .copy())
            offset += chunk
        rows = np.concatenate(rows)
        assert np.isnan(rows[:window - 1]).all()
        np.testing.assert_array_equal(rows[window - 1:], batch["log_var"])

    def test_reset_matches_fresh_state(self, rng):
        plan = _quant_plan(rng, 2, 8, feature_maps=3)
        inc = IncrementalQuantizedPlan(plan)
        inc.push_many(rng.normal(size=(15, 2)))
        inc.reset()
        tail = rng.normal(size=(25, 2))
        np.testing.assert_array_equal(
            inc.push_many(tail)["log_var"],
            IncrementalQuantizedPlan(plan).push_many(tail)["log_var"])

    def test_long_stream_exercises_buffer_compaction(self, rng):
        window, channels = 8, 2
        plan = _quant_plan(rng, channels, window, feature_maps=3)
        stream = rng.normal(size=(700, channels))
        batch = _batch_quant(plan, stream, window)
        rows = IncrementalQuantizedPlan(plan).push_many(stream)["log_var"]
        np.testing.assert_array_equal(rows[window - 1:], batch["log_var"])

    def test_supports_matches_constructor(self, rng):
        plan = _quant_plan(rng, 2, 8, feature_maps=3)
        assert IncrementalQuantizedPlan.supports(plan)


class TestIncrementalParityProperties:
    """Hypothesis sweep: arbitrary VARADE-shaped stacks, chunkings, NaN
    prefixes and mid-stream resets never break bit parity with the batch
    plan."""

    @given(
        window_exp=st.integers(3, 5),
        channels=st.integers(1, 3),
        feature_maps=st.integers(1, 4),
        extra=st.integers(1, 40),
        chunk=st.integers(1, 17),
        nan_prefix=st.integers(0, 4),
        seed=st.integers(0, 2**16),
        quantized=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_chunked_incremental_matches_batch(self, window_exp, channels,
                                               feature_maps, extra, chunk,
                                               nan_prefix, seed, quantized):
        window = 2 ** window_exp
        rng = np.random.default_rng(seed)
        stream = rng.normal(size=(window + extra, channels))
        stream[:nan_prefix] = np.nan
        plan = _plan("int8" if quantized else "float", rng, channels, window,
                     feature_maps)
        inc = IncrementalForwardPlan(plan)
        batch = _batch(plan, stream, window)
        rows = []
        for offset in range(0, stream.shape[0], chunk):
            rows.append(inc.push_many(stream[offset:offset + chunk])
                        ["log_var"].copy())
        rows = np.concatenate(rows)
        assert np.isnan(rows[:window - 1]).all()
        np.testing.assert_array_equal(rows[window - 1:], batch["log_var"])

    @given(
        window_exp=st.integers(3, 4),
        channels=st.integers(1, 3),
        reset_at=st.integers(1, 30),
        seed=st.integers(0, 2**16),
        kernel=st.sampled_from(["float", "int8"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_reset_mid_stream_equals_fresh_plan(self, window_exp, channels,
                                                reset_at, seed, kernel):
        window = 2 ** window_exp
        rng = np.random.default_rng(seed)
        plan = _plan(kernel, rng, channels, window, feature_maps=3)
        inc = IncrementalForwardPlan(plan)
        inc.push_many(rng.normal(size=(reset_at, channels)))
        inc.reset()
        tail = rng.normal(size=(window + 10, channels))
        np.testing.assert_array_equal(
            inc.push_many(tail)["log_var"],
            IncrementalForwardPlan(plan).push_many(tail)["log_var"])
