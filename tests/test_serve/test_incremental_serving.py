"""Incremental-lane serving tests: eager per-sample scoring end to end.

Sessions score each sample with the detector's O(1)-per-sample incremental
scorer at submit time.  A pushed block is scored with one ``push_many`` and,
when nothing of the session's is queued, completed on the spot; otherwise
the scores ride the micro-batcher queue on their requests and the batcher
completes them without re-scoring.  These tests hold the lane to its
contract: bit-identical scores/alarms/adaptation to the batch path whatever
the block partition, correct FIFO completion when pre-scored and
batch-scored requests share a flush or a session falls back to the queue
mid-stream, a skipped gemm (and queue) when everything is pre-scored, and a
silent fallback to batch scoring wherever the lane cannot engage.
"""

import asyncio
import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ThresholdCalibrator
from repro.drift import AdaptationPolicy
from repro.lifecycle import CanaryController, GoldenBaseline
from repro.lifecycle.baseline import latency_histogram, score_histogram
from repro.serve import AnomalyService, MicroBatcher, ServiceConfig
from repro.serve.session import ScoringSession

from serve_helpers import make_stream


@pytest.fixture(scope="module")
def varade_int8(detectors, train_stream):
    return detectors["VARADE"].quantize(train_stream)


def _run_session(detector, data, *, incremental, **kwargs):
    session = ScoringSession(detector, incremental=incremental, **kwargs)
    for row in data:
        session.push(row)
    session.close()
    return session


class TestSessionLane:
    def test_lane_engages_only_where_supported(self, detectors, varade_int8):
        assert ScoringSession(detectors["VARADE"]).incremental_active
        assert ScoringSession(varade_int8).incremental_active
        # Baselines have no incremental path; the toggle turns it off.
        assert not ScoringSession(detectors["kNN"]).incremental_active
        assert not ScoringSession(detectors["VARADE"],
                                  incremental=False).incremental_active

    @pytest.mark.parametrize("kind", ["float", "int8"])
    def test_inline_push_parity_with_batch_lane(self, detectors, varade_int8,
                                                kind):
        detector = detectors["VARADE"] if kind == "float" else varade_int8
        data, _ = make_stream(50, seed=70)
        inc = _run_session(detector, data, incremental=True)
        bat = _run_session(detector, data, incremental=False)
        assert inc.incremental_active and not bat.incremental_active
        np.testing.assert_array_equal(inc.result().scores, bat.result().scores)
        assert inc.samples_scored == bat.samples_scored
        # Scored-sample latencies are recorded on the incremental lane too.
        assert len(inc.result().latencies_s) == inc.samples_scored
        assert inc.result().latencies_s.min() > 0.0

    def test_close_and_reopen_stream_stays_exact(self, detectors):
        """A reopened stream (new session) warms up from scratch -- its
        scores match a batch-lane session fed the same tail."""
        detector = detectors["VARADE"]
        data, _ = make_stream(60, seed=71)
        _run_session(detector, data[:25], incremental=True)   # closed session
        reopened = _run_session(detector, data[25:], incremental=True)
        fresh_batch = _run_session(detector, data[25:], incremental=False)
        np.testing.assert_array_equal(reopened.result().scores,
                                      fresh_batch.result().scores)

    def test_adaptation_lane_swaps_thresholds_identically(self, detectors,
                                                          train_stream):
        """Drift adaptation sees identical score streams, so its threshold
        swaps land on identical samples in both lanes."""
        detector = detectors["VARADE"]
        scores = detector.score_stream(train_stream).valid_scores()
        threshold = ThresholdCalibrator(quantile=0.75).calibrate(scores)
        policy = AdaptationPolicy(reservoir_size=32, min_reservoir=8,
                                  confirm_samples=8, cooldown=16)
        data, _ = make_stream(120, seed=72)
        data[60:] *= 3.0       # sustained shift: scores move, lanes adapt
        inc = _run_session(detector, data, incremental=True,
                           threshold=threshold, adaptation=policy)
        bat = _run_session(detector, data, incremental=False,
                           threshold=threshold, adaptation=policy)
        inc_result, bat_result = inc.result(), bat.result()
        np.testing.assert_array_equal(inc_result.scores, bat_result.scores)
        np.testing.assert_array_equal(inc_result.alarms, bat_result.alarms)
        np.testing.assert_array_equal(inc_result.threshold_trace,
                                      bat_result.threshold_trace)
        assert len(inc_result.adaptation_events) \
            == len(bat_result.adaptation_events)

    @pytest.mark.parametrize("kind", ["float", "int8"])
    def test_submit_is_prescored_from_the_first_emitted_sample(
            self, detectors, varade_int8, kind):
        """The per-layer probes rely on this: every request ``submit``
        emits on an incremental session carries its lane score, and
        completing it with that score is the whole scoring step."""
        detector = detectors["VARADE"] if kind == "float" else varade_int8
        data, _ = make_stream(40, seed=78)
        session = ScoringSession(detector)
        requests = [session.submit(row) for row in data]
        warmup = detector.window - 1
        assert requests[:warmup] == [None] * warmup
        emitted = requests[warmup:]
        assert all(request.score is not None for request in emitted)
        for request in emitted:
            sample = session.complete(request, request.score,
                                      latency_s=request.score_latency_s)
            assert sample.index == request.index
        assert session.outstanding == 0
        np.testing.assert_array_equal(session.result().scores,
                                      detector.score_stream(data).scores)

    def test_misshaped_stream_disables_lane_and_batch_error_wins(self,
                                                                 detectors):
        """A stream the plan cannot ingest must fail exactly like a
        non-incremental session: the lane bows out silently and the batch
        call raises its own error."""
        detector = detectors["VARADE"]       # trained on 3 channels
        session = ScoringSession(detector)
        assert session.incremental_active
        with pytest.raises(ValueError):
            for index in range(detector.window + 1):
                session.push(np.full(5, float(index)))
        assert not session.incremental_active


class TestBatcherWithPrescoredRequests:
    def _batcher(self, detector, **kwargs):
        kwargs.setdefault("max_batch", 64)
        kwargs.setdefault("max_delay_ms", 10_000.0)
        return MicroBatcher(detector, **kwargs)

    def test_mixed_flush_preserves_order_and_bits(self, detectors):
        """One incremental and one batch-lane session sharing a flush: FIFO
        completion order holds and every score matches the batch path."""
        detector = detectors["VARADE"]
        data_a, _ = make_stream(30, seed=73)
        data_b, _ = make_stream(30, seed=74)
        batcher = self._batcher(detector)
        inc = ScoringSession(detector, "inc", incremental=True)
        bat = ScoringSession(detector, "bat", incremental=False)
        for row_a, row_b in zip(data_a, data_b):
            for session, row in ((inc, row_a), (bat, row_b)):
                request = session.submit(row)
                if request is not None:
                    batcher.enqueue(request)
        results = batcher.drain()
        # FIFO pop order: the two sessions alternate request for request.
        assert [r.stream_id for r in results[:4]] == ["inc", "bat"] * 2
        # Both kinds report a scoring latency: the push's for pre-scored
        # rows, the gemm's per-row share for the rest.
        assert all(r.latency_s > 0.0 for r in results)
        reference_a = _run_session(detector, data_a, incremental=False,
                                   stream_id="ref")
        reference_b = _run_session(detector, data_b, incremental=False,
                                   stream_id="ref")
        np.testing.assert_array_equal(inc.result().scores,
                                      reference_a.result().scores)
        np.testing.assert_array_equal(bat.result().scores,
                                      reference_b.result().scores)
        assert batcher.scored == inc.samples_scored + bat.samples_scored

    def test_all_prescored_flush_skips_the_batched_call(self, detectors,
                                                        monkeypatch):
        detector = detectors["VARADE"]
        data, _ = make_stream(30, seed=75)
        batcher = self._batcher(detector)
        session = ScoringSession(detector, incremental=True)
        requests = [session.submit(row) for row in data]
        for request in filter(None, requests):
            batcher.enqueue(request)
        calls = []
        original = detector.score_windows_batch
        monkeypatch.setattr(
            detector, "score_windows_batch",
            lambda *args, **kwargs: calls.append(1) or original(*args,
                                                                **kwargs))
        results = batcher.drain()
        assert not calls, "pre-scored requests must not re-enter the gemm"
        assert len(results) == len(data) - detector.window + 1
        assert batcher.scored == len(results)
        reference = _run_session(detector, data, incremental=False)
        np.testing.assert_array_equal(session.result().scores,
                                      reference.result().scores)

    def test_drop_oldest_semantics_unchanged_by_prescoring(self, detectors):
        detector = detectors["VARADE"]
        data, _ = make_stream(30, seed=76)
        batcher = self._batcher(detector, max_queue=2,
                                backpressure="drop_oldest")
        session = ScoringSession(detector, incremental=True)
        for row in data:
            request = session.submit(row)
            if request is not None:
                batcher.enqueue(request)
        batcher.drain()
        submitted = len(data) - detector.window + 1
        assert session.samples_scored == 2
        assert session.samples_dropped == submitted - 2
        scores = session.result().scores
        assert np.isfinite(scores[-2:]).all()


class TestServiceToggle:
    def _serve(self, detector, data, config):
        async def main():
            async with AnomalyService(detector, config=config) as service:
                for row in data:
                    await service.push("s0", row)
                session = service.session("s0")
                await service.close_session("s0")
                return session

        return asyncio.run(main())

    def test_service_incremental_parity_and_default_on(self, detectors):
        detector = detectors["VARADE"]
        data, _ = make_stream(50, seed=77)
        on = self._serve(detector, data, ServiceConfig(
            max_batch=4, max_delay_ms=1.0, record_sessions=True))
        off = self._serve(detector, data, ServiceConfig(
            max_batch=4, max_delay_ms=1.0, record_sessions=True,
            incremental=False))
        assert on.incremental_active and not off.incremental_active
        np.testing.assert_array_equal(on.result().scores, off.result().scores)
        assert on.samples_scored == off.samples_scored > 0


# --------------------------------------------------------------------------- #
# Block ingestion: AnomalyService.push_block / ScoringSession.submit_many
# --------------------------------------------------------------------------- #
BLOCK_CONFIG = ServiceConfig(max_batch=8, max_delay_ms=1.0,
                             record_sessions=True, event_buffer=1 << 16)


def _blocks(data, size):
    return [data[start:start + size] for start in range(0, len(data), size)]


def _partition(data, sizes):
    """Cut ``data`` into consecutive blocks, cycling through ``sizes``."""
    blocks, start = [], 0
    while start < len(data):
        size = sizes[len(blocks) % len(sizes)]
        blocks.append(data[start:start + size])
        start += size
    return blocks


def _shifted_stream(n_samples, seed):
    """A stream whose second half drifts, so adaptation lanes fire."""
    data, _ = make_stream(n_samples, seed=seed)
    data[n_samples // 2:] *= 3.0
    return data


def _adaptive(detector, train_stream):
    scores = detector.score_stream(train_stream).valid_scores()
    return {
        "threshold": ThresholdCalibrator(quantile=0.75).calibrate(scores),
        "adaptation": AdaptationPolicy(reservoir_size=32, min_reservoir=8,
                                       confirm_samples=8, cooldown=16),
    }


def _empty_baseline():
    return GoldenBaseline(
        fingerprint="fp-test", detector="VARADE", streams=1,
        samples_scored=0, alarms=0, score_histogram=score_histogram(),
        latency_histogram=latency_histogram())


async def _subscribe(service):
    """Record every broadcast sample until the service stops."""
    seen = []

    async def consume():
        async for sample in service.events():
            seen.append(sample)

    task = asyncio.create_task(consume())
    await asyncio.sleep(0)
    return seen, task


def _serve_blocks(detector, blocks, *, push_rows=False, incremental=True,
                  max_samples=None, **service_kwargs):
    """Push ``blocks`` through one service session (``push_rows``: one
    :meth:`AnomalyService.push` per row instead); return the closed
    session and every broadcast sample."""
    config = replace(BLOCK_CONFIG, incremental=incremental)

    async def main():
        async with AnomalyService(detector, config=config,
                                  **service_kwargs) as service:
            seen, task = await _subscribe(service)
            await service.open_session("s0", max_samples=max_samples)
            for block in blocks:
                if push_rows:
                    for row in block:
                        await service.push("s0", row)
                else:
                    await service.push_block("s0", block)
            session = await service.close_session("s0")
        await task
        return session, seen

    return asyncio.run(main())


def _row_reference(detector, data, **kwargs):
    """Per-row ``push`` on the queued batch lane: the path every block
    partition must reproduce bit for bit."""
    return _serve_blocks(detector, [data], push_rows=True, incremental=False,
                         **kwargs)


def _assert_same_stream(got, want):
    (session, seen), (ref, ref_seen) = got, want
    result, expected = session.result(), ref.result()
    np.testing.assert_array_equal(result.scores, expected.scores)
    np.testing.assert_array_equal(result.alarms, expected.alarms)
    np.testing.assert_array_equal(result.threshold_trace,
                                  expected.threshold_trace)
    assert result.adaptation_events == expected.adaptation_events
    assert [(s.index, s.score, s.threshold, s.alarm) for s in seen] \
        == [(s.index, s.score, s.threshold, s.alarm) for s in ref_seen]


class TestBlockParity:
    @pytest.mark.parametrize("kind", ["float", "int8"])
    @pytest.mark.parametrize("size", [1, 3, 8, 64, 300])
    def test_blocks_match_per_row_push_and_score_stream(
            self, detectors, varade_int8, train_stream, kind, size):
        detector = detectors["VARADE"] if kind == "float" else varade_int8
        data = _shifted_stream(650, seed=80)
        kwargs = _adaptive(detector, train_stream)
        got = _serve_blocks(detector, _blocks(data, size), **kwargs)
        _assert_same_stream(got, _row_reference(detector, data, **kwargs))
        session, seen = got
        np.testing.assert_array_equal(session.result().scores,
                                      detector.score_stream(data).scores)
        assert session.adaptation_events
        assert session.samples_scored == len(data) - detector.window + 1
        # Every sample completed at submit: none waited in the queue.
        assert all(sample.queue_delay_s is None for sample in seen)

    def test_warmup_straddling_a_block(self, detectors):
        detector = detectors["VARADE"]
        window = detector.window
        data, _ = make_stream(40, seed=81)
        cuts = [data[:window - 3], data[window - 3:window + 4],
                data[window + 4:]]
        got = _serve_blocks(detector, cuts)
        _assert_same_stream(got, _row_reference(detector, data))
        assert all(sample.queue_delay_s is None for sample in got[1])

    def test_max_samples_running_out_mid_block(self, detectors,
                                               train_stream):
        detector = detectors["VARADE"]
        data = _shifted_stream(40, seed=82)
        kwargs = _adaptive(detector, train_stream)
        got = _serve_blocks(detector, _blocks(data, 8), max_samples=10,
                            **kwargs)
        _assert_same_stream(got, _row_reference(detector, data,
                                                max_samples=10, **kwargs))
        session = got[0]
        assert session.samples_pushed == len(data)
        assert session.samples_scored == 10
        assert np.isnan(session.result().scores[detector.window - 1 + 10:]) \
            .all()

    def test_one_service_mixes_incremental_and_batch_lane_sessions(
            self, detectors, train_stream):
        """A batch-lane session (imported from an ``incremental=False``
        worker) and an incremental one share a service and its queue."""
        detector = detectors["VARADE"]
        kwargs = _adaptive(detector, train_stream)
        streams = {"inc": _shifted_stream(200, seed=83),
                   "bat": _shifted_stream(200, seed=84)}
        batch_config = replace(BLOCK_CONFIG, incremental=False)

        async def main():
            async with AnomalyService(detector, config=batch_config,
                                      **kwargs) as other:
                await other.open_session("bat")
                blob = await other.export_session("bat")
            async with AnomalyService(detector, config=BLOCK_CONFIG,
                                      **kwargs) as service:
                seen, task = await _subscribe(service)
                await service.import_session(blob)
                await service.open_session("inc")
                lanes = {sid: service.session(sid).incremental_active
                         for sid in streams}
                for blocks in zip(*(_blocks(data, 8)
                                    for data in streams.values())):
                    for sid, block in zip(streams, blocks):
                        await service.push_block(sid, block)
                sessions = {sid: await service.close_session(sid)
                            for sid in streams}
            await task
            return lanes, sessions, seen

        lanes, sessions, seen = asyncio.run(main())
        assert lanes == {"inc": True, "bat": False}
        for sid, data in streams.items():
            got = (sessions[sid], [s for s in seen if s.stream_id == sid])
            _assert_same_stream(got, _row_reference(detector, data,
                                                    **kwargs))
        queued = {s.stream_id for s in seen if s.queue_delay_s is not None}
        assert queued == {"bat"}


class TestBlockInterleaving:
    def test_swap_between_blocks_scores_like_the_candidate(
            self, detectors, varade_int8, monkeypatch):
        detector = detectors["VARADE"]
        data, _ = make_stream(120, seed=85)
        split = 56
        enqueued = []
        enqueue = MicroBatcher.enqueue
        monkeypatch.setattr(MicroBatcher, "enqueue", lambda self, request:
                            enqueued.append(request) or enqueue(self, request))

        async def main():
            async with AnomalyService(detector,
                                      config=BLOCK_CONFIG) as service:
                for block in _blocks(data[:split], 8):
                    await service.push_block("s0", block)
                await service.swap_detector(varade_int8)
                for block in _blocks(data[split:], 8):
                    await service.push_block("s0", block)
                return await service.close_session("s0")

        session = asyncio.run(main())
        scores = session.result().scores
        np.testing.assert_array_equal(
            scores[:split], detector.score_stream(data).scores[:split])
        np.testing.assert_array_equal(
            scores[split:], varade_int8.score_stream(data).scores[split:])
        # The migrated session re-warms from its ring: nothing queues.
        assert session.incremental_active and not enqueued

    def test_weight_replacement_queues_then_returns_to_immediate(
            self, detectors, monkeypatch):
        """``load_state_dict`` restarts the scorer's warm-up: the next
        block's requests queue (the warm-up rows batch-scored under the new
        weights), and once they drain the lane completes at submit again --
        with every score in stream order."""
        detector = copy.deepcopy(detectors["VARADE"])
        data, _ = make_stream(160, seed=86)
        split = 64
        before = detector.score_stream(data).scores
        enqueued = []
        enqueue = MicroBatcher.enqueue
        monkeypatch.setattr(MicroBatcher, "enqueue", lambda self, request:
                            enqueued.append(request.index)
                            or enqueue(self, request))

        async def main():
            async with AnomalyService(detector,
                                      config=BLOCK_CONFIG) as service:
                seen, task = await _subscribe(service)
                for block in _blocks(data[:split], 8):
                    await service.push_block("s0", block)
                network = detector.network
                network.load_state_dict({
                    name: 1.1 * value
                    for name, value in network.state_dict().items()})
                for block in _blocks(data[split:], 8):
                    await service.push_block("s0", block)
                    while service.session("s0").outstanding:
                        await asyncio.sleep(0.001)
                session = await service.close_session("s0")
            await task
            return session, seen

        session, seen = asyncio.run(main())
        after = detector.score_stream(data).scores
        scores = session.result().scores
        assert not np.array_equal(before[split:], after[split:])
        np.testing.assert_array_equal(scores[:split], before[:split])
        np.testing.assert_array_equal(scores[split:], after[split:])
        assert enqueued == list(range(split, split + 8))
        indices = [sample.index for sample in seen]
        assert indices == sorted(indices)
        assert len(indices) == len(data) - detector.window + 1

    def test_rows_within_predicts_the_queue_across_a_weight_replacement(
            self, detectors):
        """``rows_within`` asks the scorer before the push, ``submit_many``
        reads it after; a restarted warm-up must look the same to both."""
        detector = copy.deepcopy(detectors["VARADE"])
        data, _ = make_stream(96, seed=89)
        session = ScoringSession(detector)
        batcher = MicroBatcher(detector, max_batch=64, max_delay_ms=1e4)
        queued_rows = []
        for index, block in enumerate(_blocks(data, 8)):
            if index == 5:
                network = detector.network
                network.load_state_dict({
                    name: 1.1 * value
                    for name, value in network.state_dict().items()})
            fits = session.rows_within(len(block), 0)
            _, queued = session.submit_many(block)
            assert (fits < len(block)) == bool(queued)
            queued_rows += [request.index for request in queued]
            for request in queued:
                batcher.enqueue(request)
            batcher.drain()
        # Only the block the restarted warm-up covers went to the queue.
        assert queued_rows == list(range(40, 48))
        np.testing.assert_array_equal(session.result().scores[40:],
                                      detector.score_stream(data).scores[40:])

    def test_canary_counts_exactly_the_shadowed_streams(self, detectors,
                                                        varade_int8):
        detector = detectors["VARADE"]
        controller = CanaryController(varade_int8, baseline=_empty_baseline(),
                                      fraction=0.5)
        streams = {f"stream-{index}": make_stream(40, seed=90 + index)[0]
                   for index in range(8)}
        shadowed = [sid for sid in streams if controller.is_shadowed(sid)]
        assert 0 < len(shadowed) < len(streams)

        async def main():
            async with AnomalyService(detector,
                                      config=BLOCK_CONFIG) as service:
                service.attach_canary(controller)
                for blocks in zip(*(_blocks(data, 8)
                                    for data in streams.values())):
                    for sid, block in zip(streams, blocks):
                        await service.push_block(sid, block)
                return {sid: await service.close_session(sid)
                        for sid in streams}

        sessions = asyncio.run(main())
        assert controller.samples == sum(sessions[sid].samples_scored
                                         for sid in shadowed) > 0
        for sid, data in streams.items():
            np.testing.assert_array_equal(sessions[sid].result().scores,
                                          detector.score_stream(data).scores)


@pytest.fixture(scope="module")
def partition_case(detectors, train_stream):
    detector = detectors["VARADE"]
    data = _shifted_stream(120, seed=87)
    kwargs = _adaptive(detector, train_stream)
    return detector, data, kwargs, _run_session(detector, data,
                                                incremental=False, **kwargs)


class TestBlockPartitionProperty:
    @settings(max_examples=60, deadline=None)
    @given(mode=st.sampled_from(["blocks", "push", "submit"]),
           sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12),
           immediate=st.lists(st.booleans(), min_size=1, max_size=12),
           drains=st.lists(st.booleans(), min_size=1, max_size=12))
    def test_any_partition_scores_identically(self, partition_case, mode,
                                              sizes, immediate, drains):
        """Any cut of a stream into blocks -- some held to the queue (as a
        canary does), drained at arbitrary points -- gives the per-row
        batch lane's scores, alarms, thresholds and adaptation events.  So
        do the one-row spellings: per-row ``push``, and per-row ``submit``
        into the batcher (drained at the same block boundaries)."""
        detector, data, kwargs, reference = partition_case
        session = ScoringSession(detector, **kwargs)
        batcher = MicroBatcher(detector, max_batch=4, max_delay_ms=1e4)
        for index, block in enumerate(_partition(data, sizes)):
            if mode == "push":
                for row in block:
                    session.push(row)
                continue
            if mode == "submit":
                queued = [request for request in map(session.submit, block)
                          if request is not None]
            else:
                hold = immediate[index % len(immediate)]
                # rows_within predicts, before the push, what submit_many
                # then decides: the block queues iff it cannot take them all.
                fits = session.rows_within(len(block), 0, immediate=hold)
                _, queued = session.submit_many(block, immediate=hold)
                assert (fits < len(block)) == bool(queued)
            for request in queued:
                batcher.enqueue(request)
            if drains[index % len(drains)]:
                batcher.drain()
        batcher.drain()
        result, expected = session.result(), reference.result()
        assert session.outstanding == 0
        np.testing.assert_array_equal(result.scores, expected.scores)
        np.testing.assert_array_equal(result.scores,
                                      detector.score_stream(data).scores)
        np.testing.assert_array_equal(result.alarms, expected.alarms)
        np.testing.assert_array_equal(result.threshold_trace,
                                      expected.threshold_trace)
        assert result.adaptation_events == expected.adaptation_events


class TestSteadyState:
    def test_warm_fleet_never_queues_or_calls_the_gemm(self, detectors,
                                                       monkeypatch):
        detector = detectors["VARADE"]
        streams = {f"s{index}": make_stream(96, seed=100 + index)[0]
                   for index in range(4)}
        calls = []

        async def main():
            async with AnomalyService(detector,
                                      config=BLOCK_CONFIG) as service:
                for sid, data in streams.items():      # warm every lane
                    await service.push_block(sid, data[:8])
                enqueue = MicroBatcher.enqueue
                gemm = detector.score_windows_batch
                monkeypatch.setattr(
                    MicroBatcher, "enqueue", lambda self, request:
                    calls.append("enqueue") or enqueue(self, request))
                monkeypatch.setattr(
                    detector, "score_windows_batch", lambda *args:
                    calls.append("gemm") or gemm(*args))
                for start in range(8, 96, 8):
                    for sid, data in streams.items():
                        await service.push_block(sid, data[start:start + 8])
                stats = service.stats()
                sessions = {sid: await service.close_session(sid)
                            for sid in streams}
            return stats, sessions

        stats, sessions = asyncio.run(main())
        assert not calls
        # Accounting: completed-at-submit samples are scored samples.
        windows = sum(len(data) - detector.window + 1
                      for data in streams.values())
        assert stats.samples_pushed == sum(map(len, streams.values()))
        assert stats.samples_scored == windows
        assert stats.samples_dropped == 0
        assert stats.queue_delay_histogram.count == 0
        assert stats.scoring_time_s > 0
        for sid, data in streams.items():
            np.testing.assert_array_equal(sessions[sid].result().scores,
                                          detector.score_stream(data).scores)
