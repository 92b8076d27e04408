"""AnomalyService behaviour: backpressure, event streams, telemetry."""

import asyncio

import numpy as np
import pytest

from repro.core import ThresholdCalibrator
from repro.serve import AnomalyService, QueueFullError, ServiceConfig
from repro.serve.session import SessionClosedError

from serve_helpers import make_stream


def _calibrated(detectors, train_stream, name="kNN", quantile=0.9):
    detector = detectors[name]
    scores = detector.score_stream(train_stream).valid_scores()
    return detector, ThresholdCalibrator(quantile=quantile).calibrate(scores)


class TestBackpressure:
    def test_block_waits_and_loses_nothing(self, detectors):
        """A pusher overrunning the queue blocks until the scheduler drains;
        every sample still gets scored exactly once."""
        detector = detectors["VARADE"]
        data, _ = make_stream(60, seed=21)

        async def main():
            config = ServiceConfig(max_batch=4, max_delay_ms=1.0, max_queue=2,
                                   backpressure="block", record_sessions=True)
            async with AnomalyService(detector, config=config) as service:
                for row in data:
                    await service.push("s0", row)
                session = service.session("s0")
                await service.close_session("s0")
                return session, service.stats()

        session, stats = asyncio.run(main())
        assert session.samples_scored == len(data) - detector.window + 1
        assert session.samples_dropped == 0
        assert stats.samples_dropped == 0

    def test_drop_oldest_sheds_but_keeps_newest(self, detectors):
        """With a tiny queue and no scheduler wake-ups between pushes, the
        oldest windows are shed and the freshest survive with NaN holes
        (on the queued lane: samples completed at submit never queue)."""
        detector = detectors["VARADE"]
        data, _ = make_stream(40, seed=22)

        async def main():
            config = ServiceConfig(max_batch=64, max_delay_ms=10_000.0,
                                   max_queue=2, backpressure="drop_oldest",
                                   record_sessions=True, incremental=False)
            service = AnomalyService(detector, config=config)
            await service.start()
            # Push everything in one tight loop: the huge max_delay keeps the
            # scheduler from flushing, so the queue bound does the work.
            for row in data:
                await service.push("s0", row)
            session = service.session("s0")
            await service.close_session("s0")   # drains the survivors
            await service.stop()
            return session

        session = asyncio.run(main())
        submitted = len(data) - detector.window + 1
        assert session.samples_dropped == submitted - 2
        assert session.samples_scored == 2
        scores = session.result().scores
        # The two surviving scores are the newest two windows.
        assert np.isfinite(scores[-2:]).all()
        assert np.isnan(scores[detector.window - 1:-2]).all()

    def test_reject_raises_and_stream_continues(self, detectors):
        """A refused sample is not ingested: nothing is dropped, the stream
        stays contiguous, and the producer may resend it."""
        detector = detectors["VARADE"]
        data, _ = make_stream(40, seed=23)

        async def main():
            config = ServiceConfig(max_batch=64, max_delay_ms=10_000.0,
                                   max_queue=2, backpressure="reject",
                                   record_sessions=True, incremental=False)
            service = AnomalyService(detector, config=config)
            await service.start()
            rejects = 0
            for row in data:
                try:
                    await service.push("s0", row)
                except QueueFullError as error:
                    assert "accepted 0 of 1 rows" in str(error)
                    rejects += 1
            session = service.session("s0")
            stats = service.stats()
            await service.close_session("s0")
            await service.stop()
            return session, stats, rejects

        session, stats, rejects = asyncio.run(main())
        accepted = detector.window + 1       # the window fill, then 2 queued
        assert rejects == len(data) - accepted
        assert session.samples_pushed == stats.samples_pushed == accepted
        assert session.samples_scored == 2
        assert session.samples_dropped == stats.samples_dropped == 0
        np.testing.assert_array_equal(
            session.result().scores,
            detector.score_stream(data[:accepted]).scores)

    def test_incremental_lane_is_never_shed(self, detectors):
        """Samples the incremental lane completes at submit take no queue
        slot, so neither shedding policy touches them."""
        detector = detectors["VARADE"]
        data, _ = make_stream(40, seed=23)

        async def main(policy):
            config = ServiceConfig(max_batch=64, max_delay_ms=10_000.0,
                                   max_queue=1, backpressure=policy,
                                   record_sessions=True)
            async with AnomalyService(detector, config=config) as service:
                await service.push_block("s0", data)
                session = service.session("s0")
                await service.close_session("s0")
                return session

        reference = detector.score_stream(data).scores
        for policy in ("drop_oldest", "reject"):
            session = asyncio.run(main(policy))
            assert session.samples_dropped == 0
            assert session.samples_scored == len(data) - detector.window + 1
            np.testing.assert_array_equal(session.result().scores, reference)


class TestEventStreams:
    def test_events_and_alarms_streams(self, detectors, train_stream):
        detector, threshold = _calibrated(detectors, train_stream)
        data, _ = make_stream(50, seed=24)
        data[30:33] += 30.0

        async def main():
            service = AnomalyService(
                detector, threshold=threshold,
                config=ServiceConfig(max_batch=8, max_delay_ms=1.0))
            await service.start()
            events, alarms = [], []

            async def consume_events():
                async for event in service.events():
                    events.append(event)

            async def consume_alarms():
                async for alarm in service.alarms():
                    alarms.append(alarm)

            tasks = [asyncio.create_task(consume_events()),
                     asyncio.create_task(consume_alarms())]
            await asyncio.sleep(0)          # let the subscribers register
            for row in data:
                await service.push("s0", row)
            await service.close_session("s0")
            await service.stop()
            await asyncio.gather(*tasks)
            return events, alarms

        events, alarms = asyncio.run(main())
        expected = len(data) - detector.window \
            + (1 if detector.scores_current_sample else 0)
        assert len(events) == expected
        assert all(alarm.alarm for alarm in alarms)
        assert {alarm.index for alarm in alarms} >= {30, 31, 32}
        assert len(alarms) == sum(event.alarm for event in events)
        # events arrive in per-session order
        indices = [event.index for event in events]
        assert indices == sorted(indices)

    def test_slow_consumer_drops_oldest_events_not_scoring(self, detectors):
        detector = detectors["VARADE"]
        data, _ = make_stream(60, seed=25)

        async def main():
            service = AnomalyService(
                detector,
                config=ServiceConfig(max_batch=8, max_delay_ms=1.0,
                                     event_buffer=4))
            await service.start()
            # Subscribe but do not consume until after the run.
            iterator = service.events().__aiter__()
            consumed = asyncio.create_task(iterator.__anext__())
            await asyncio.sleep(0)
            for row in data:
                await service.push("s0", row)
            await service.stop()
            received = [await consumed]
            try:
                while True:
                    received.append(await asyncio.wait_for(
                        iterator.__anext__(), timeout=1.0))
            except StopAsyncIteration:
                pass
            return received, service.stats()

        received, stats = asyncio.run(main())
        # Scoring never stalled; the slow consumer kept only the newest few.
        assert stats.samples_scored == len(data) - detector.window + 1
        assert len(received) <= 4
        if received:
            assert received[-1].index == len(data) - 1


class TestServiceGuards:
    def test_channel_mismatch_is_rejected(self, detectors):
        detector = detectors["VARADE"]

        async def main():
            async with AnomalyService(detector) as service:
                await service.push("a", np.zeros(3))
                with pytest.raises(ValueError, match="channels"):
                    await service.push("b", np.zeros(5))

        asyncio.run(main())

    def test_refused_block_ingests_nothing(self, detectors):
        """Channel count and a closed session are checked before any row
        of a block is ingested (and before an unknown stream auto-opens)."""
        detector = detectors["VARADE"]
        data, _ = make_stream(20, seed=27)

        async def main():
            async with AnomalyService(detector) as service:
                await service.push_block("a", data[:10])
                with pytest.raises(ValueError, match="channels"):
                    await service.push_block("b", np.zeros((4, 5)))
                assert "b" not in service.sessions
                session = service.session("a")
                session.close()
                with pytest.raises(SessionClosedError):
                    await service.push_block("a", data[10:])
                assert session.samples_pushed == 10
                assert service.stats().samples_pushed == 10

        asyncio.run(main())

    def test_push_requires_session_without_auto_open(self, detectors):
        detector = detectors["VARADE"]

        async def main():
            service = AnomalyService(detector, auto_open=False)
            await service.start()
            with pytest.raises(KeyError, match="auto_open"):
                await service.push("ghost", np.zeros(3))
            await service.stop()

        asyncio.run(main())

    def test_scoring_failure_fails_loudly_not_silently(self, detectors):
        """A poisoned batch (mis-shaped samples) must not wedge the service:
        blocked pushers wake, later calls raise with the original error."""
        detector = detectors["VARADE"]   # trained on 3 channels

        async def main():
            service = AnomalyService(
                detector,
                config=ServiceConfig(max_batch=4, max_delay_ms=0.5))
            await service.start()
            # 5-channel samples pass the cross-stream consistency check
            # (first push sets the width) but explode inside the detector.
            for index in range(detector.window + 4):
                try:
                    await service.push("bad", np.full(5, float(index)))
                except RuntimeError:
                    break
                await asyncio.sleep(0.002)   # let the scheduler flush
            with pytest.raises(RuntimeError, match="failed while scoring"):
                for _ in range(200):
                    await service.push("bad", np.full(5, 1.0))
                    await asyncio.sleep(0.002)
            with pytest.raises(RuntimeError, match="failed while scoring"):
                async for _ in service.events():
                    pass
            with pytest.raises(RuntimeError, match="cannot be restarted"):
                await service.start()
            await service.stop()   # still safe to call

        asyncio.run(main())

    def test_failing_stop_drain_unwedges_everyone(self, detectors):
        """A scoring error in stop()'s final drain must run the same _fail
        path as a scheduler crash: the error surfaces and nothing hangs."""
        detector = detectors["VARADE"]   # trained on 3 channels

        async def main():
            service = AnomalyService(
                detector,
                config=ServiceConfig(max_batch=1024, max_delay_ms=600_000.0))
            await service.start()
            for index in range(detector.window + 2):
                await service.push("bad", np.full(5, float(index)))
            with pytest.raises(Exception):
                await service.stop()           # drain hits the poisoned batch
            with pytest.raises(RuntimeError, match="failed while scoring"):
                await service.push("bad", np.full(5, 0.0))
            await service.stop()               # reap is still safe

        asyncio.run(main())

    def test_subscribe_after_stop_raises(self, detectors):
        detector = detectors["VARADE"]

        async def main():
            service = AnomalyService(detector)
            await service.start()
            await service.stop()
            with pytest.raises(RuntimeError, match="not running"):
                async for _ in service.alarms():
                    pass

        asyncio.run(main())

    def test_push_after_stop_raises(self, detectors):
        detector = detectors["VARADE"]

        async def main():
            service = AnomalyService(detector)
            await service.start()
            await service.stop()
            with pytest.raises(RuntimeError, match="not running"):
                await service.push("s0", np.zeros(3))

        asyncio.run(main())

    def test_stats_histograms_populate(self, detectors):
        """On the queued lane every scored window has a queue delay."""
        detector = detectors["VARADE"]
        data, _ = make_stream(50, seed=26)

        async def main():
            async with AnomalyService(
                    detector,
                    config=ServiceConfig(max_batch=8, max_delay_ms=1.0,
                                         incremental=False)) \
                    as service:
                for row in data:
                    await service.push("s0", row)
                    await service.push("s1", row)
                await asyncio.sleep(0.05)
                return service.stats()

        stats = asyncio.run(main())
        assert stats.samples_scored > 0
        assert stats.flushes > 0
        assert stats.queue_delay_histogram.count == stats.samples_scored
        assert stats.occupancy_histogram.count == stats.flushes
        assert np.isfinite(stats.queue_delay_p99_s)
        assert 1.0 <= stats.mean_batch_size <= 16.0

    def test_fresh_service_stats_are_finite_zeros(self, detectors):
        """Regression: zero-sample histograms used to report nan, which
        leaked into ServiceStats (and from there into the JSON TCP stats
        reply as a non-compliant token)."""
        detector = detectors["VARADE"]

        async def main():
            async with AnomalyService(detector) as service:
                return service.stats()

        stats = asyncio.run(main())
        assert stats.samples_pushed == 0
        assert stats.queue_delay_p99_s == 0.0
        assert stats.mean_batch_size == 0.0
        assert stats.queue_delay_histogram.summary() == {
            "count": 0.0, "mean": 0.0, "min": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
        }
