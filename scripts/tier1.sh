#!/usr/bin/env bash
# Tier-1 fast path: the full unit test suite (no paper-reproduction benches)
# plus the deployment serve smoke.  The benches live in benchmarks/ and are
# run separately because they train models; this script is what CI and
# pre-commit hooks should gate on.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python -m pytest tests -q "$@"

# Serve smoke: artifact -> session -> server round trip (seconds, no
# training), including three chaos legs: two deterministic ones
# (REPRO_FAULTS env knob and a programmatic FaultPlan) that pin
# crash-restart bitwise parity, poison quarantine, and exact shed/expiry
# counts, and a seeded open-loop one (poison, crash and stall under Poisson
# arrivals) whose client-side ServerOverloaded / DeadlineExceeded /
# RequestQuarantined tallies must equal the server's counters.
python scripts/serve_smoke.py

# Train-resume smoke: crash-safe training round trip (seconds, quick
# resnet20 CSQ on synthetic data).  Kills the run at injected steps via
# REPRO_FAULTS="preempt@N", auto-resumes from the newest checkpoint, and
# asserts final weights and histories are bitwise identical to an
# uninterrupted run; a corrupt-checkpoint leg must skip the torn file
# with a telemetry warning and fall back to the previous valid one.
python scripts/train_resume_smoke.py
