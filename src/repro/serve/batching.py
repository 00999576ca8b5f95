"""Per-topology request batching with bounded-queue backpressure.

Batching is arrival-driven: an idle dispatcher hands whatever is
queued (up to ``batch_max`` jobs) to the injected ``run_batch``
callable on a worker thread at once, with no timer.  One batch is in
flight per batcher at a time, so queries that arrive meanwhile wait in
the queue and form the next batch.  A lone query therefore never waits
for company, and under load the backlog that builds during each batch
is what coalesces — the executor underneath sees ordered work in
chunks as large as the load makes them.

Backpressure is a bounded queue: when ``max_pending`` jobs are already
waiting, :meth:`QueryBatcher.submit` raises :class:`BatcherFull`
immediately (the server maps this to ``429``).  On close, queued and
future jobs fail with :class:`BatcherClosed` (mapped to ``503``).

``run_batch`` is injected — ``run_batch(payloads) -> results`` (one
result per payload, same order) — so unit tests can observe coalescing
without standing up the engine.
"""

from __future__ import annotations

import asyncio

__all__ = ["BatcherFull", "BatcherClosed", "QueryBatcher"]


class BatcherFull(RuntimeError):
    """The pending-query queue is at capacity; shed the request."""


class BatcherClosed(RuntimeError):
    """The batcher is draining/closed; no new work is accepted."""


class _Job:
    __slots__ = ("payload", "future")

    def __init__(self, payload, future: asyncio.Future) -> None:
        self.payload = payload
        self.future = future


class QueryBatcher:
    """Coalesce queued submissions into bounded, single-flight batches.

    Args:
        run_batch: Blocking callable executed on a worker thread with the
            list of batched payloads; must return one result per payload
            in order.  An exception fails every job in that batch (jobs
            in *other* batches are unaffected).
        batch_max: Largest batch handed to ``run_batch``; an idle
            dispatcher takes up to this many queued jobs at once.
        max_pending: Bound on jobs waiting to be batched; submissions
            beyond it shed with :class:`BatcherFull`.
    """

    def __init__(
        self,
        run_batch,
        *,
        batch_max: int = 8,
        max_pending: int = 64,
    ) -> None:
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._run_batch = run_batch
        self._batch_max = batch_max
        self._queue: asyncio.Queue[_Job] = asyncio.Queue(maxsize=max_pending)
        self._closed = False
        self._dispatcher: asyncio.Task | None = None
        self._inflight: list[_Job] = []
        self.stats = {
            "queries": 0,
            "batches": 0,
            "shed": 0,
            "failed": 0,
            "max_batch": 0,
        }

    @property
    def pending(self) -> int:
        return self._queue.qsize()

    async def submit(self, payload):
        """Enqueue one query; resolves to its result.

        Raises :class:`BatcherFull` when the queue is at capacity and
        :class:`BatcherClosed` when the batcher is shut down.
        """
        if self._closed:
            raise BatcherClosed("service is shutting down")
        if self._dispatcher is None:
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )
        job = _Job(payload, asyncio.get_running_loop().create_future())
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.stats["shed"] += 1
            raise BatcherFull(
                f"{self._queue.maxsize} queries already pending"
            ) from None
        self.stats["queries"] += 1
        return await job.future

    async def _collect_batch(self) -> list[_Job]:
        batch = [await self._queue.get()]
        while len(batch) < self._batch_max:
            try:
                batch.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                break
        return batch

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await self._collect_batch()
            # Jobs cancelled while queued (client gone) need no compute.
            batch = [job for job in batch if not job.future.done()]
            if not batch:
                continue
            self.stats["batches"] += 1
            self.stats["max_batch"] = max(
                self.stats["max_batch"], len(batch)
            )
            self._inflight = batch
            try:
                results = await loop.run_in_executor(
                    None,
                    self._run_batch,
                    [job.payload for job in batch],
                )
            except Exception as exc:
                self.stats["failed"] += len(batch)
                for job in batch:
                    if not job.future.done():
                        job.future.set_exception(exc)
                continue
            finally:
                self._inflight = []
            for job, result in zip(batch, results):
                if not job.future.done():
                    job.future.set_result(result)

    async def close(self) -> None:
        """Stop dispatching and fail everything still queued."""
        self._closed = True
        # A batch interrupted mid-dispatch keeps running on its worker
        # thread (threads cannot be cancelled), but its submitters must
        # not hang — fail them alongside everything still queued.  The
        # snapshot happens *before* the cancel: the dispatch loop's
        # ``finally`` clears ``_inflight`` while the cancellation
        # unwinds, which is earlier than this coroutine resumes.
        leftovers = list(self._inflight)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        leftovers.extend(self._inflight)
        self._inflight = []
        while True:
            try:
                leftovers.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                break
        for job in leftovers:
            if not job.future.done():
                job.future.set_exception(
                    BatcherClosed("service is shutting down")
                )
