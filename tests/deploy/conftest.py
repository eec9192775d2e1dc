"""Shared helpers for the deployment subsystem tests."""

from __future__ import annotations

import pytest

# Re-exported so every deploy test imports the one canonical construction
# (shared with scripts/serve_smoke.py and scripts/telemetry_gate.py).
from repro.deploy.testing import frozen_mixed_model  # noqa: F401


@pytest.fixture
def artifact_path(tmp_path):
    return str(tmp_path / "model.npz")
