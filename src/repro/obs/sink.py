"""NDJSON event sink with run-scoped directories and provenance manifests.

One :class:`NdjsonSink` owns one run directory (``<root>/<run_id>/``)
holding ``events.ndjson`` — one JSON object per line, append-only — and a
``manifest.json`` written by :meth:`write_manifest` with the full
provenance block (git SHA, numpy version, knob settings, cpu_count; see
:mod:`repro.obs.provenance`).  Emission is thread-safe and line-atomic:
a record is serialized outside the lock and written as one ``write`` call,
so concurrent writers never interleave partial lines.

The sink is deliberately dumb — no buffering beyond the OS, no rotation —
because consumers (``scripts/loadgen.py``, the soak report) read whole
runs after the fact; :func:`read_ndjson` is the matching reader.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Optional

from repro.obs.provenance import run_manifest


class NdjsonSink:
    """Append-only newline-delimited JSON writer for one run."""

    def __init__(
        self,
        root: str,
        run_id: Optional[str] = None,
        filename: str = "events.ndjson",
    ) -> None:
        if run_id is None:
            run_id = f"run-{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}"
        self.run_id = run_id
        self.run_dir = os.path.join(root, run_id)
        os.makedirs(self.run_dir, exist_ok=True)
        self.events_path = os.path.join(self.run_dir, filename)
        self._lock = threading.Lock()
        self._handle = None
        self._emitted = 0

    # -- events ---------------------------------------------------------
    def emit(self, record: Dict[str, object]) -> None:
        """Write one event record as a single NDJSON line."""
        if "ts_unix" not in record:
            record = {**record, "ts_unix": time.time()}
        line = json.dumps(record, separators=(",", ":"), sort_keys=False,
                          default=_json_fallback) + "\n"
        with self._lock:
            if self._handle is None:
                self._handle = open(self.events_path, "a")
            self._handle.write(line)
            self._emitted += 1

    @property
    def emitted(self) -> int:
        with self._lock:
            return self._emitted

    def flush(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "NdjsonSink":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- manifest -------------------------------------------------------
    def write_manifest(
        self, label: Optional[str] = None, params: Optional[Dict[str, object]] = None
    ) -> str:
        """Write ``manifest.json`` for this run; returns its path."""
        manifest = run_manifest(label if label is not None else self.run_id, params)
        path = os.path.join(self.run_dir, "manifest.json")
        with open(path, "w") as handle:
            json.dump(manifest, handle, indent=2, default=_json_fallback)
            handle.write("\n")
        return path


def _json_fallback(value):
    """Serialize numpy scalars/arrays that ride along in attr dicts."""
    if hasattr(value, "item") and getattr(value, "size", 2) == 1:
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    return repr(value)


def read_ndjson(path: str) -> List[Dict[str, object]]:
    """Parse an NDJSON file back into a list of records (skips blank lines)."""
    records: List[Dict[str, object]] = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{line_number}: malformed NDJSON line") from error
    return records
