"""Shared helpers for the distributed-backend test modules."""

import contextlib
import socket
import threading

import numpy as np

from repro.eval.dist import WorkerServer


@contextlib.contextmanager
def pipe():
    """A connected socket pair, closed on exit."""
    left, right = socket.socketpair()
    try:
        yield left, right
    finally:
        left.close()
        right.close()


@contextlib.contextmanager
def worker_fleet(count, /, **kwargs):
    """Run ``count`` in-thread workers; yields the server objects."""
    kwargs.setdefault("max_sessions", 1)
    servers = [WorkerServer(**kwargs) for _ in range(count)]
    threads = [
        threading.Thread(target=server.serve_forever, daemon=True)
        for server in servers
    ]
    for thread in threads:
        thread.start()
    try:
        yield servers
    finally:
        for server in servers:
            server.close()
        for thread in threads:
            thread.join(timeout=10)


def assert_identical(reference, candidate):
    """Per-trial error dicts equal bit for bit."""
    assert len(reference) == len(candidate)
    for errors_a, errors_b in zip(reference, candidate):
        assert set(errors_a) == set(errors_b)
        for name in errors_a:
            assert np.array_equal(errors_a[name], errors_b[name])
