"""The service harness shared by the endpoint integration tests.

The service runs in-process on a dedicated event-loop thread; the
blocking :class:`ServiceClient` talks to it over a real loopback socket,
so the whole HTTP/JSON/batching path is exercised.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.serve.client import ServiceClient
from repro.serve.server import TomographyService


class ServiceHarness:
    """A TomographyService on its own event-loop thread."""

    def __init__(self, **knobs) -> None:
        self.service = TomographyService(port=0, **knobs)
        self.loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.service.start())
        self._started.set()
        self.loop.run_forever()

    def __enter__(self) -> "ServiceHarness":
        self.thread.start()
        assert self._started.wait(timeout=30), "service failed to start"
        return self

    def __exit__(self, *exc_info) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(), self.loop
        )
        future.result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient(port=self.service.port, **kwargs)


@pytest.fixture(scope="session")
def service_harness():
    """The :class:`ServiceHarness` class, for tests that need their own
    service (custom knobs, or one they shut down)."""
    return ServiceHarness


@pytest.fixture(scope="module")
def harness():
    with ServiceHarness() as running:
        yield running


@pytest.fixture(scope="module")
def client(harness):
    with harness.client() as connected:
        yield connected
