"""Telemetry: metrics, tracing, and NDJSON event sinks (``REPRO_TELEMETRY``).

The subsystem is **off by default and zero-cost when off**: the single
entry point the instrumented code calls is :func:`telemetry`, which
returns ``None`` unless telemetry is enabled — so every hot-path guard is
one ``is not None`` check, no objects are built, no events buffered, and
instrumented components produce bitwise-identical outputs (the disabled-
overhead test in ``tests/obs/`` pins this).  Components that serve many
requests (the deploy :class:`~repro.deploy.server.Server`) resolve the
handle once at startup rather than per request.

Enabling:

* environment — ``REPRO_TELEMETRY=1`` (anything but ``0``/``false``/
  ``off``/``no``/empty) turns the process handle on;
* programmatic — :func:`configure_telemetry` (used by
  ``scripts/train_resume_smoke.py`` to attach a run-scoped NDJSON sink),
  or the :func:`telemetry_scope` context manager for tests and smokes.

A :class:`Telemetry` handle bundles the three pillars:
:class:`~repro.obs.metrics.MetricsRegistry` (counters / gauges /
fixed-memory streaming histograms), :class:`~repro.obs.trace.Tracer`
(lifecycle spans), and an optional :class:`~repro.obs.sink.NdjsonSink`
(one record per request/span under a run-scoped prefix, with a provenance
manifest).  See OBSERVABILITY.md for the knobs and the NDJSON schema.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Dict, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.provenance import (
    environment_block,
    git_sha,
    run_manifest,
    validate_manifest,
)
from repro.obs.sink import NdjsonSink, read_ndjson
from repro.obs.trace import Span, Tracer

_ENV_KNOB = "REPRO_TELEMETRY"
_FALSE_VALUES = ("", "0", "false", "off", "no")


class Telemetry:
    """One process-wide bundle of registry + tracer + optional sink."""

    def __init__(self, sink: Optional[NdjsonSink] = None) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(sink=sink)
        self._sink = sink

    @property
    def sink(self) -> Optional[NdjsonSink]:
        return self._sink

    def set_sink(self, sink: Optional[NdjsonSink]) -> None:
        self._sink = sink
        self.tracer.sink = sink

    def emit(self, record: Dict[str, object]) -> None:
        """Forward one event record to the sink, if one is attached."""
        sink = self._sink
        if sink is not None:
            sink.emit(record)

    def warn(self, message: str, **attrs: object) -> None:
        """Count one degraded-but-continuing condition and emit its record.

        Increments the ``telemetry.warnings`` counter and (when a sink is
        attached) emits a ``{"type": "warning", "message": ..., **attrs}``
        event — the channel for conditions worth surfacing without failing,
        e.g. loading a pre-checksum artifact whose integrity can't be
        verified.
        """
        self.registry.counter("telemetry.warnings").inc()
        record: Dict[str, object] = {"type": "warning", "message": message}
        record.update(attrs)
        self.emit(record)

    def close(self) -> None:
        sink = self._sink
        if sink is not None:
            sink.close()


def _env_enabled() -> bool:
    return os.environ.get(_ENV_KNOB, "0").strip().lower() not in _FALSE_VALUES


_lock = threading.Lock()
#: ``None`` -> follow the environment knob; a bool -> programmatic override.
_enabled: Optional[bool] = None
_telemetry: Optional[Telemetry] = None


def telemetry_enabled() -> bool:
    """Whether telemetry is on (env knob, unless programmatically overridden)."""
    override = _enabled
    return override if override is not None else _env_enabled()


def telemetry() -> Optional[Telemetry]:
    """The process :class:`Telemetry` handle, or ``None`` when disabled.

    This is THE hot-path gate: callers hold the result and guard with
    ``if handle is not None`` — when telemetry is off nothing is allocated
    and nothing is recorded.
    """
    if not telemetry_enabled():
        return None
    global _telemetry
    with _lock:
        if _telemetry is None:
            _telemetry = Telemetry()
        return _telemetry


def configure_telemetry(
    enabled: Optional[bool] = None, sink: Optional[NdjsonSink] = None
) -> Optional[Telemetry]:
    """Programmatically enable/disable telemetry and/or attach a sink.

    ``enabled=None`` leaves the on/off state as is (env knob or a previous
    override); passing a sink implies the handle exists, so call with
    ``enabled=True`` (or the env knob set) first or in the same call.
    Returns the active handle (``None`` when disabled).
    """
    global _enabled, _telemetry
    with _lock:
        if enabled is not None:
            _enabled = bool(enabled)
        if sink is not None:
            if _telemetry is None:
                _telemetry = Telemetry(sink=sink)
            else:
                _telemetry.set_sink(sink)
    return telemetry()


def reset_telemetry() -> None:
    """Drop the override and the handle (tests; closes any attached sink)."""
    global _enabled, _telemetry
    with _lock:
        if _telemetry is not None:
            _telemetry.close()
        _enabled = None
        _telemetry = None


@contextmanager
def telemetry_scope(enabled: bool = True, sink: Optional[NdjsonSink] = None):
    """Temporarily force telemetry on/off (with an optional fresh sink).

    Yields the scope's :class:`Telemetry` handle (``None`` when disabled);
    the previous state — including any prior handle with its metrics and
    spans — is restored on exit.  The scope's sink is closed on exit.
    """
    global _enabled, _telemetry
    with _lock:
        saved_enabled, saved_telemetry = _enabled, _telemetry
        _enabled = bool(enabled)
        _telemetry = Telemetry(sink=sink) if enabled else None
        handle = _telemetry
    try:
        yield handle
    finally:
        with _lock:
            if handle is not None:
                handle.close()
            _enabled, _telemetry = saved_enabled, saved_telemetry


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NdjsonSink",
    "Span",
    "Telemetry",
    "Tracer",
    "configure_telemetry",
    "environment_block",
    "git_sha",
    "read_ndjson",
    "reset_telemetry",
    "run_manifest",
    "telemetry",
    "telemetry_enabled",
    "telemetry_scope",
    "validate_manifest",
]
