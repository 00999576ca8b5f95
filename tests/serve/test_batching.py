"""QueryBatcher units: coalescing, arrival-driven dispatch, shed, close.

``run_batch`` is injected, so these observe batching behaviour directly
without standing up the engine.  Each test runs a fresh event loop via
``asyncio.run`` — the batcher binds to the running loop lazily on first
submit.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.serve.batching import BatcherClosed, BatcherFull, QueryBatcher


def _echo_batch(payloads):
    return [payload * 2 for payload in payloads]


class TestCoalescing:
    def test_concurrent_submissions_coalesce(self):
        sizes = []

        def run_batch(payloads):
            sizes.append(len(payloads))
            return _echo_batch(payloads)

        async def scenario():
            batcher = QueryBatcher(run_batch, batch_max=4)
            results = await asyncio.gather(
                *(batcher.submit(n) for n in range(8))
            )
            await batcher.close()
            return results

        results = asyncio.run(scenario())
        assert results == [n * 2 for n in range(8)]
        # 8 concurrent jobs, batch_max 4: at least one full batch, never
        # more than 8 batches, and every job accounted for exactly once.
        assert sum(sizes) == 8
        assert max(sizes) <= 4
        assert len(sizes) < 8

    def test_batch_max_one_disables_coalescing(self):
        sizes = []

        def run_batch(payloads):
            sizes.append(len(payloads))
            return _echo_batch(payloads)

        async def scenario():
            batcher = QueryBatcher(run_batch, batch_max=1)
            results = await asyncio.gather(
                *(batcher.submit(n) for n in range(4))
            )
            await batcher.close()
            return results

        assert asyncio.run(scenario()) == [0, 2, 4, 6]
        assert sizes == [1, 1, 1, 1]

    def test_results_map_back_in_order(self):
        async def scenario():
            batcher = QueryBatcher(_echo_batch, batch_max=8)
            results = await asyncio.gather(
                *(batcher.submit(n) for n in (5, 1, 9, 3))
            )
            await batcher.close()
            return results

        assert asyncio.run(scenario()) == [10, 2, 18, 6]

    def test_stats_track_batches(self):
        async def scenario():
            batcher = QueryBatcher(_echo_batch, batch_max=4)
            await asyncio.gather(*(batcher.submit(n) for n in range(6)))
            stats = dict(batcher.stats)
            await batcher.close()
            return stats

        stats = asyncio.run(scenario())
        assert stats["queries"] == 6
        assert 2 <= stats["batches"] <= 6
        assert stats["max_batch"] <= 4
        assert stats["shed"] == 0


class TestArrivalDriven:
    def test_backlog_forms_the_next_batches(self):
        """Jobs queued behind an in-flight batch dispatch together as
        soon as it finishes, ``batch_max`` at a time."""
        entered = threading.Event()
        release = threading.Event()
        sizes = []

        def held_batch(payloads):
            sizes.append(len(payloads))
            entered.set()
            release.wait(timeout=30)
            return _echo_batch(payloads)

        async def scenario():
            batcher = QueryBatcher(held_batch, batch_max=4)
            first = asyncio.ensure_future(batcher.submit(0))
            await asyncio.get_running_loop().run_in_executor(
                None, entered.wait, 5
            )
            backlog = [
                asyncio.ensure_future(batcher.submit(n)) for n in range(1, 7)
            ]
            while batcher.pending < 6:
                await asyncio.sleep(0)
            release.set()
            results = await asyncio.gather(first, *backlog)
            await batcher.close()
            return results

        assert asyncio.run(scenario()) == [n * 2 for n in range(7)]
        assert sizes == [1, 4, 2]

    def test_lone_job_on_idle_batcher_dispatches_alone(self):
        sizes = []

        def run_batch(payloads):
            sizes.append(len(payloads))
            return _echo_batch(payloads)

        async def scenario():
            batcher = QueryBatcher(run_batch, batch_max=64)
            result = await batcher.submit(21)
            stats = dict(batcher.stats)
            await batcher.close()
            return result, stats

        result, stats = asyncio.run(scenario())
        assert result == 42
        assert sizes == [1]
        assert stats["batches"] == 1
        assert stats["max_batch"] == 1


class TestShedOnFull:
    def test_submissions_beyond_max_pending_shed(self):
        release = threading.Event()

        def slow_batch(payloads):
            release.wait(timeout=30)
            return _echo_batch(payloads)

        async def scenario():
            batcher = QueryBatcher(
                slow_batch, batch_max=1, max_pending=2
            )
            first = asyncio.ensure_future(batcher.submit(0))
            # Let the dispatcher take job 0 into the (blocked) batch.
            await asyncio.sleep(0.05)
            backlog = [
                asyncio.ensure_future(batcher.submit(n)) for n in (1, 2)
            ]
            await asyncio.sleep(0.05)
            with pytest.raises(BatcherFull):
                await batcher.submit(3)
            assert batcher.stats["shed"] == 1
            release.set()
            results = await asyncio.gather(first, *backlog)
            await batcher.close()
            return results

        assert asyncio.run(scenario()) == [0, 2, 4]


class TestCloseAndFailure:
    def test_submit_after_close_raises(self):
        async def scenario():
            batcher = QueryBatcher(_echo_batch)
            await batcher.close()
            with pytest.raises(BatcherClosed):
                await batcher.submit(1)

        asyncio.run(scenario())

    def test_close_fails_queued_and_inflight_jobs(self):
        entered = threading.Event()
        release = threading.Event()

        def slow_batch(payloads):
            entered.set()
            release.wait(timeout=30)
            return _echo_batch(payloads)

        async def scenario():
            batcher = QueryBatcher(
                slow_batch, batch_max=1, max_pending=4
            )
            inflight = asyncio.ensure_future(batcher.submit(0))
            await asyncio.get_running_loop().run_in_executor(
                None, entered.wait, 5
            )
            queued = asyncio.ensure_future(batcher.submit(1))
            await asyncio.sleep(0.02)
            await batcher.close()
            release.set()
            for future in (inflight, queued):
                with pytest.raises(BatcherClosed):
                    await future

        asyncio.run(scenario())

    def test_batch_exception_fails_only_that_batch(self):
        calls = []

        def flaky_batch(payloads):
            calls.append(list(payloads))
            if len(calls) == 1:
                raise RuntimeError("boom")
            return _echo_batch(payloads)

        async def scenario():
            batcher = QueryBatcher(flaky_batch, batch_max=8)
            with pytest.raises(RuntimeError, match="boom"):
                await batcher.submit(1)
            result = await batcher.submit(2)
            stats = dict(batcher.stats)
            await batcher.close()
            return result, stats

        result, stats = asyncio.run(scenario())
        assert result == 4
        assert stats["failed"] == 1

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            QueryBatcher(_echo_batch, batch_max=0)
        with pytest.raises(ValueError):
            QueryBatcher(_echo_batch, max_pending=0)
