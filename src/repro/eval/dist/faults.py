"""Deterministic chaos-injection plane for the distributed backend.

Fault tolerance that is only exercised by real outages is fault
tolerance that has never been tested.  This module injects the failure
shapes the coordinator claims to survive — dropped/corrupted/truncated
frames, refused connects, workers that stall, die or freeze at chunk
*k* — at well-defined choke points in :mod:`repro.eval.dist.protocol`
and :mod:`repro.eval.dist.worker`, so the chaos tests, the benchmark's
chaos leg, and the CI chaos-smoke job can prove the sweep stays
**bit-identical** under every fault class.

A :class:`FaultPlan` is parsed from a compact spec string::

    connect-refuse:n=2,frame-corrupt:type=result:nth=3,worker-kill:chunk=5

Entries are comma-separated; each entry is ``name[:key=value ...]``.
Supported faults (all counters are per-plan and thread-safe):

``connect-refuse:n=N``
    The worker server closes the first ``N`` accepted connections
    before reading a byte (a flaky listener; exercises the
    coordinator's connect retry/backoff).
``frame-drop[:type=T][:nth=K|:p=P]``
    Matching outbound frames are silently not sent.  The sender keeps
    running — the peer sees a hung-but-connected endpoint, which only
    heartbeats or the per-chunk deadline can detect.
``frame-corrupt[:type=T][:nth=K|:p=P]``
    The frame is sent with scrambled magic bytes; the receiver fails
    fast with a framing error and tears the session down (a detected,
    retriable fault).
``frame-truncate[:type=T][:nth=K|:p=P]``
    Only a prefix of the frame is sent, then the sender aborts the
    session — the peer sees a torn frame.
``frame-delay:seconds=S[:type=T][:nth=K|:p=P]``
    Sleep ``S`` seconds before sending (latency injection; results are
    delayed, never changed).
``worker-kill:chunk=K``
    The worker process hard-exits when chunk ordinal ``K`` (0-based
    count of chunk frames accepted this session) arrives.  Process
    faults only fire when the plan was installed with
    ``allow_process_faults=True`` (the worker CLI does); an in-process
    test plan degrades them to dropping the session.
``worker-sigstop:chunk=K``
    The worker process SIGSTOPs itself at chunk ordinal ``K`` — the
    canonical hung-but-connected worker.  Same process-fault gating.
``worker-freeze:chunk=K[:seconds=S]``
    An in-process SIGSTOP lookalike: the session thread stalls for
    ``S`` seconds (default 30) at chunk ordinal ``K`` *and* the
    session's heartbeat sender is suppressed for the duration, so the
    coordinator sees exactly the silence a stopped process produces.
``compute-stall:chunk=K[:seconds=S]``
    The session thread stalls for ``S`` seconds at chunk ordinal ``K``
    while heartbeats keep flowing — a live worker that will never
    answer, which only the per-chunk deadline catches.

Probabilistic faults (``p=``) draw from a plan-seeded RNG, so a chaos
run is reproducible; ``nth=`` faults (1-based) are exact.  The plan is
installed process-globally (:func:`install` / the :func:`installed`
context manager); the worker CLI installs from ``--chaos`` or the
``REPRO_CHAOS`` environment variable, which autolaunched fleets
inherit from the coordinator's environment.

Determinism note: every fault above is either *detected* (corrupt
frames fail framing) or *delays/kills* (drop, stall, refuse, kill,
stop) — none can silently alter a result payload, so a sweep that
completes under chaos completes bit-identically.
"""

from __future__ import annotations

import os
import random
import threading
import time

__all__ = [
    "CHAOS_ENV",
    "CHAOS_SEED_ENV",
    "FaultPlan",
    "FaultSpecError",
    "active_plan",
    "install",
    "installed",
    "plan_from_env",
    "uninstall",
]

#: Environment variable the worker CLI reads a fault spec from.
CHAOS_ENV = "REPRO_CHAOS"
#: Optional seed for the plan's probabilistic faults.
CHAOS_SEED_ENV = "REPRO_CHAOS_SEED"

#: Frame-level fault names (share the type/nth/p matching machinery).
_FRAME_FAULTS = ("frame-drop", "frame-corrupt", "frame-truncate",
                 "frame-delay")
#: Chunk-ordinal fault names (fire when chunk ordinal == ``chunk``).
_CHUNK_FAULTS = ("worker-kill", "worker-sigstop", "worker-freeze",
                 "compute-stall")
_KNOWN_FAULTS = _FRAME_FAULTS + _CHUNK_FAULTS + ("connect-refuse",)

#: Keys each fault accepts (anything else is a spec typo, not a knob).
_ALLOWED_PARAMS = {
    "frame-drop": {"type", "nth", "p"},
    "frame-corrupt": {"type", "nth", "p"},
    "frame-truncate": {"type", "nth", "p"},
    "frame-delay": {"type", "nth", "p", "seconds"},
    "connect-refuse": {"n"},
    "worker-kill": {"chunk"},
    "worker-sigstop": {"chunk"},
    "worker-freeze": {"chunk", "seconds"},
    "compute-stall": {"chunk", "seconds"},
}


class FaultSpecError(ValueError):
    """A chaos spec string could not be parsed."""


class _Fault:
    """One armed fault: static filter plus a fire counter."""

    def __init__(self, name: str, params: dict) -> None:
        self.name = name
        self.params = params
        self.matches = 0  # injection points that passed the filter
        self.fires = 0  # times the fault actually triggered

    def __repr__(self) -> str:  # diagnostics only
        params = ":".join(
            f"{key}={value}" for key, value in sorted(self.params.items())
        )
        return f"<fault {self.name}{':' + params if params else ''}>"


def _parse_value(name: str, key: str, text: str):
    if key == "type":
        return text
    try:
        if key in ("nth", "n", "chunk"):
            return int(text)
        return float(text)
    except ValueError:
        raise FaultSpecError(
            f"chaos fault {name!r}: {key}={text!r} is not a number"
        ) from None


class FaultPlan:
    """A parsed, thread-safe set of armed faults.

    ``allow_process_faults`` gates ``worker-kill``/``worker-sigstop``:
    only a plan installed by the worker CLI (a dedicated process) may
    kill or stop the process it runs in; an in-process plan degrades
    those faults to dropping the session.
    """

    def __init__(
        self,
        faults: list[_Fault],
        *,
        seed: int = 0,
        allow_process_faults: bool = False,
    ) -> None:
        self.faults = faults
        self.allow_process_faults = allow_process_faults
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    @classmethod
    def parse(
        cls,
        spec: str,
        *,
        seed: int = 0,
        allow_process_faults: bool = False,
    ) -> "FaultPlan":
        """Parse ``name[:key=value ...][,name...]`` into a plan."""
        faults: list[_Fault] = []
        for entry in str(spec).split(","):
            entry = entry.strip()
            if not entry:
                continue
            pieces = entry.split(":")
            name = pieces[0].strip()
            if name not in _KNOWN_FAULTS:
                raise FaultSpecError(
                    f"unknown chaos fault {name!r}; known: "
                    f"{', '.join(sorted(_KNOWN_FAULTS))}"
                )
            params: dict = {}
            for piece in pieces[1:]:
                key, sep, value = piece.partition("=")
                key = key.strip()
                if not sep or not key:
                    raise FaultSpecError(
                        f"chaos fault {name!r}: expected key=value, "
                        f"got {piece!r}"
                    )
                if key not in _ALLOWED_PARAMS[name]:
                    raise FaultSpecError(
                        f"chaos fault {name!r} does not take {key!r} "
                        f"(allowed: "
                        f"{', '.join(sorted(_ALLOWED_PARAMS[name]))})"
                    )
                params[key] = _parse_value(name, key, value.strip())
            if name in _CHUNK_FAULTS and "chunk" not in params:
                raise FaultSpecError(
                    f"chaos fault {name!r} requires chunk=K"
                )
            faults.append(_Fault(name, params))
        if not faults:
            raise FaultSpecError(f"empty chaos spec {spec!r}")
        return cls(
            faults, seed=seed, allow_process_faults=allow_process_faults
        )

    # -- matching core -------------------------------------------------
    def _should_fire(self, fault: _Fault) -> bool:
        """Counter/probability gate; caller already passed the filter.

        Caller holds ``self._lock``.
        """
        fault.matches += 1
        nth = fault.params.get("nth")
        if nth is not None:
            fire = fault.matches == nth
        elif "p" in fault.params:
            fire = self._rng.random() < float(fault.params["p"])
        else:
            limit = fault.params.get("n")
            fire = limit is None or fault.fires < limit
        if fire:
            fault.fires += 1
        return fire

    def _fire_first(self, names, predicate=None) -> _Fault | None:
        with self._lock:
            for fault in self.faults:
                if fault.name not in names:
                    continue
                if predicate is not None and not predicate(fault):
                    continue
                if self._should_fire(fault):
                    return fault
        return None

    # -- injection points ----------------------------------------------
    def frame_send_action(self, header: dict) -> str | None:
        """Consulted by the protocol layer before each outbound frame.

        Returns ``"drop"``, ``"corrupt"`` or ``"truncate"`` for the
        sender to act on; delay faults sleep here and return ``None``.
        """
        frame_type = header.get("type")

        def _matches(fault: _Fault) -> bool:
            wanted = fault.params.get("type")
            return wanted is None or wanted == frame_type

        fault = self._fire_first(_FRAME_FAULTS, _matches)
        if fault is None:
            return None
        if fault.name == "frame-delay":
            time.sleep(float(fault.params.get("seconds", 0.05)))
            return None
        return fault.name[len("frame-"):]

    def refuse_connect(self) -> bool:
        """Should the worker server drop this freshly accepted peer?"""
        return self._fire_first(("connect-refuse",)) is not None

    def chunk_fault(self, ordinal: int) -> tuple | None:
        """Consulted by the worker as chunk frame ``ordinal`` arrives.

        Returns ``("kill",)``, ``("sigstop",)``, ``("freeze",
        seconds)`` or ``("stall", seconds)`` — the worker executes the
        action (and applies the process-fault gating).
        """
        fault = self._fire_first(
            _CHUNK_FAULTS,
            lambda fault: int(fault.params["chunk"]) == ordinal,
        )
        if fault is None:
            return None
        if fault.name == "worker-kill":
            return ("kill",)
        if fault.name == "worker-sigstop":
            return ("sigstop",)
        seconds = float(fault.params.get("seconds", 30.0))
        if fault.name == "worker-freeze":
            return ("freeze", seconds)
        return ("stall", seconds)


# Process-global plan, consulted (when set) by the protocol/worker
# choke points.  One plan per process keeps the injection sites trivial;
# in-process tests scope frame faults by frame *type* (result/pong
# frames are worker sends, chunk/ping frames are coordinator sends).
_PLAN: FaultPlan | None = None


def install(plan: FaultPlan | None) -> None:
    """Install (or, with ``None``, clear) the process's fault plan."""
    global _PLAN
    _PLAN = plan


def uninstall() -> None:
    install(None)


def active_plan() -> FaultPlan | None:
    return _PLAN


class installed:
    """Context manager: install a plan, restore the old one on exit."""

    def __init__(self, plan: FaultPlan | None) -> None:
        self.plan = plan
        self._previous: FaultPlan | None = None

    def __enter__(self) -> FaultPlan | None:
        self._previous = active_plan()
        install(self.plan)
        return self.plan

    def __exit__(self, *exc_info) -> None:
        install(self._previous)


def plan_from_env(
    environ=None, *, allow_process_faults: bool = False
) -> FaultPlan | None:
    """Build a plan from ``REPRO_CHAOS`` (``None`` when unset/empty)."""
    environ = os.environ if environ is None else environ
    spec = environ.get(CHAOS_ENV, "").strip()
    if not spec:
        return None
    seed_text = environ.get(CHAOS_SEED_ENV, "").strip()
    seed = int(seed_text) if seed_text else 0
    return FaultPlan.parse(
        spec, seed=seed, allow_process_faults=allow_process_faults
    )
