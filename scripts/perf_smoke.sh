#!/usr/bin/env bash
# Perf smoke gate: run the op-level microbenches at tiny scale and fail when
# any case is >1.5x slower than the committed BENCH_perf.json baseline.
#
# Committed baselines are wall-clock numbers from one machine: on very
# different or heavily loaded hardware, regenerate the baseline locally (or
# raise PERF_SMOKE_THRESHOLD) rather than trusting the absolute gate; for a
# hardware-independent comparison use the PYTHONPATH-swap base-vs-candidate
# flow in PERFORMANCE.md.
#
# The committed baseline stores both quick- and tiny-scale sections; this
# script compares against the tiny section (BENCH_perf_tiny.json alongside
# the quick-scale BENCH_perf.json).  Refresh baselines after intentional
# perf changes with:
#   PYTHONPATH=src python -m benchmarks.perf.run \
#       --suite all --label baseline
#   PYTHONPATH=src python -m benchmarks.perf.run \
#       --suite ops --suite csq --suite infer --scale tiny \
#       --label baseline-tiny --warmup 3 --iters 21 \
#       --output BENCH_perf_tiny.json
# (The tiny baseline uses more iterations than the smoke run: sub-ms cases
# on the shared host throw occasional 5x outlier samples, and a 7-sample
# mean polluted by one would silently loosen this gate.)
#
# The inference-runtime suite ("infer") is gated here alongside the op-level
# microbenches.  The "serve" suite is recorded in the quick-scale baseline
# for reference but not gated: its timings include thread scheduling and the
# micro-batching wait window, which makes a wall-clock threshold flaky.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="BENCH_perf_tiny.json"
THRESHOLD="${PERF_SMOKE_THRESHOLD:-1.5}"
# Per-case relative tolerance before a delta counts at all (see
# perf_compare.py --noise-threshold): deltas within +/- this fraction are
# reported unchanged and never trip the gate.
NOISE="${PERF_SMOKE_NOISE:-0.05}"
CANDIDATE="$(mktemp /tmp/perf_smoke.XXXXXX.json)"
trap 'rm -f "$CANDIDATE"' EXIT

if [[ ! -f "$BASELINE" ]]; then
    echo "Missing $BASELINE — run the baseline refresh commands in this script's header" >&2
    exit 2
fi

# The integer-activation inference cases (infer/act4_*, infer/act8_*) must be
# part of the gated baseline: perf_compare only checks cases present in BOTH
# files, so a baseline that silently lost them would stop gating the
# activation-quantized serving path.
python - "$BASELINE" <<'EOF'
import json, sys
results = json.load(open(sys.argv[1]))["results"]
act = {r["name"] for r in results if r["suite"] == "infer" and r["name"].startswith("act")}
missing = {"act4_session_resnet20", "act8_session_resnet20"} - act
if missing:
    raise SystemExit(f"Baseline lacks gated integer-activation cases: {sorted(missing)}")
EOF

# The correctness sanity blocks run first: the absolute timing gate below
# can trip on a host unlike the baseline's, and they must run regardless.

# Integer-GEMM sanity: float32 BLAS on code matrices whose gemm_bound is
# below 2**24 must equal the int64 reference bit-for-bit, at 1 and 2 BLAS
# threads (not timed, not gated) — the certification every int8/int16-tagged
# plan layer relies on.  OpenBLAS reads its thread count when it loads, so
# each count runs in its own process.
echo "Running int-GEMM exactness sanity check..."
for threads in 1 2; do
OPENBLAS_NUM_THREADS=$threads PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - <<'EOF'
import os
import numpy as np
from repro.runtime import parallel_gemm
from repro.runtime.intgemm import F32_EXACT_BOUND, gemm_bound

rng = np.random.default_rng(0)
w = rng.integers(-2, 2, size=(24, 576), dtype=np.int64)   # 2-bit codes
x = rng.integers(0, 16, size=(576, 700), dtype=np.int64)  # 4-bit codes
assert gemm_bound(576, -2, 1, 0, 15) < F32_EXACT_BOUND

threads = os.environ["OPENBLAS_NUM_THREADS"]
got = parallel_gemm(w.astype(np.float32), x.astype(np.float32))
assert np.array_equal(got.astype(np.int64), np.matmul(w, x)), \
    f"f32 GEMM diverged from the int64 reference at {threads} BLAS thread(s)"
print(f"int-GEMM: f32 parallel_gemm == int64 matmul (exact) at {threads} BLAS thread(s) OK")
EOF
done

# Two-thread sanity: conv forward/backward must produce bitwise-identical
# results at 1 and 2 BLAS threads (not timed, not gated).  Each count runs
# in its own process and prints a digest of its bytes.
echo "Running 2-thread parity sanity check..."
digests=()
for threads in 1 2; do
digests+=("$(OPENBLAS_NUM_THREADS=$threads PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - <<'EOF'
import hashlib
import numpy as np
from repro.autograd import ops
from repro.autograd.tensor import Tensor

rng = np.random.default_rng(0)
x = Tensor(rng.standard_normal((8, 6, 10, 10)).astype(np.float32), requires_grad=True)
w = Tensor(rng.standard_normal((12, 6, 3, 3)).astype(np.float32), requires_grad=True)
out = ops.conv2d(x, w, stride=1, padding=1)
out.sum().backward()
digest = hashlib.sha1()
for array in (out.data, x.grad, w.grad):
    digest.update(np.ascontiguousarray(array).tobytes())
print(digest.hexdigest())
EOF
)")
done
if [[ "${digests[0]}" != "${digests[1]}" ]]; then
    echo "conv fwd/bwd diverged between 1 and 2 BLAS threads: ${digests[*]}" >&2
    exit 1
fi
echo "2-thread conv fwd/bwd parity: bitwise equal"

# The absolute timing gate: its status is kept and returned at the end, so
# the telemetry gate after it still runs when it trips.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m benchmarks.perf.run \
    --suite ops --suite csq --suite infer \
    --scale tiny --warmup 2 --iters 7 \
    --label smoke --output "$CANDIDATE"

timing_status=0
python scripts/perf_compare.py "$BASELINE" "$CANDIDATE" \
    --fail-threshold "$THRESHOLD" --noise-threshold "$NOISE" || timing_status=$?

# Telemetry overhead gate: the same serving work with telemetry off and
# on must stay within 5% (span bookkeeping + histogram stats, no sink).
# Interleaved off/on samples in ONE process (scripts/telemetry_gate.py):
# this host drifts >5% between back-to-back processes, so a two-process
# comparison at a 5% threshold is a coin flip even on min-of-samples —
# interleaving makes both modes sample the same host conditions.  The
# disabled path is additionally pinned bitwise by
# tests/obs/test_disabled_overhead.py.  Raise TELEMETRY_SMOKE_THRESHOLD
# only with a written justification — this gate enforces the "zero-cost
# when disabled, cheap when enabled" claim in OBSERVABILITY.md.
echo "Running telemetry on/off overhead gate..."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python scripts/telemetry_gate.py

exit "$timing_status"
