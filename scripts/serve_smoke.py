#!/usr/bin/env python3
"""Serve smoke test: artifact → session → server round trip in seconds.

Run by ``scripts/tier1.sh`` after the unit suite.  No training: a frozen
mixed-precision resnet20 (deterministic masks) is exported, reloaded,
executed by the :class:`InferenceSession`, and served through the threaded
:class:`Server`; served logits must match both the session and the
materialized float model's eval path.  A second, activation-quantized
(``act_bits=4``) resnet20 exercises the integer-activation plan: it must
serve *without* the ``float_activations`` escape hatch and match the frozen
CSQ training-graph eval within quantization tolerance.  A registry-driven
scheme sweep additionally exports and serves one artifact per quantization
scheme (``KNOWN_SCHEMES``: CSQ plus every baseline quantizer) with
served-vs-session parity, and a mixed-shape leg interleaves 12x12 and 16x16
requests, which must still coalesce into one forward pass per input shape.
Three chaos legs inject seeded faults (crash, poison, stall, bit flip):
crash recovery must be bitwise, shedding and expiry exact on a
deterministic schedule, and under open-loop load every typed error a
client sees must match the server's counters.  Exits non-zero on any
mismatch.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import obs  # noqa: E402
from repro.autograd.tensor import Tensor, no_grad  # noqa: E402
from repro.csq.convert import materialize_quantized  # noqa: E402
from repro.deploy import (  # noqa: E402
    DeadlineExceeded,
    FaultPlan,
    InferenceSession,
    RequestQuarantined,
    Server,
    ServerError,
    ServerOverloaded,
    load_artifact,
    save_artifact,
)
from repro.deploy import KNOWN_SCHEMES  # noqa: E402
from repro.deploy.testing import frozen_mixed_model, frozen_scheme_model  # noqa: E402
from repro.utils import seed_everything  # noqa: E402


def _await_stalled_worker(server: Server, timeout: float = 5.0) -> bool:
    deadline = time.perf_counter() + timeout
    while server._queue.qsize() > 0:
        if time.perf_counter() >= deadline:
            return False
        time.sleep(1e-3)
    return True


def chaos_env_leg(session: InferenceSession) -> str:
    """Seeded chaos soak via the REPRO_FAULTS knob (the tier-1 recovery gate).

    One worker, ``max_batch=1`` (solo batches are the configuration where
    bitwise parity is guaranteed — batch size changes BLAS accumulation
    order), ten sequential requests, four injected failures: a slow step, a
    worker crash, a persistent poison, and a payload bit-flip.  The server
    must restart the crashed worker, quarantine the poison, and return a
    bit-identical result for every other request.  Returns an error string,
    or "" on success.
    """
    rng = np.random.default_rng(2)
    images = [rng.standard_normal((3, 10, 10)).astype(np.float32) for _ in range(10)]
    refs = [session.run(x[None])[0] for x in images]
    poison_index, flip_index = 5, 7
    saved = os.environ.get("REPRO_FAULTS")
    os.environ["REPRO_FAULTS"] = "seed=0;crash@2;slow@0:100;poison@5;flip@7:22"
    try:
        with Server(session, max_batch=1, max_wait_ms=0.0) as server:
            plan = server._faults
            results = {}
            quarantined = []
            for index, x in enumerate(images):
                try:
                    results[index] = server.predict(x, timeout=10.0)
                except RequestQuarantined:
                    quarantined.append(index)
            stats = server.stats.snapshot()
        if quarantined != [poison_index]:
            return f"chaos(env): quarantined requests {quarantined}, expected [{poison_index}]"
        if stats["restarts"] != 1:
            return f"chaos(env): {stats['restarts']:.0f} worker restarts, expected 1"
        if stats["quarantined"] != 1:
            return f"chaos(env): quarantined count {stats['quarantined']:.0f}, expected 1"
        counts = plan.counts()
        if counts["crash"] != 1 or counts["flip"] != 1 or counts["poison"] < 1 or counts["slow"] != 1:
            return f"chaos(env): fault plan not consumed as scheduled: {counts}"
        if results[flip_index].tobytes() == refs[flip_index].tobytes():
            return "chaos(env): bit-flipped payload served the unflipped result"
        for index, ref in enumerate(refs):
            if index in (poison_index, flip_index):
                continue
            if results[index].tobytes() != ref.tobytes():
                return (
                    f"chaos(env): request {index} not bitwise identical to its "
                    f"solo reference after recovery"
                )
    finally:
        if saved is None:
            os.environ.pop("REPRO_FAULTS", None)
        else:
            os.environ["REPRO_FAULTS"] = saved
    return ""


def chaos_deterministic_leg(session: InferenceSession) -> str:
    """Programmatic FaultPlan: shed + expiry counts are exact, not statistical.

    A 250 ms stall pins the single worker, so with ``queue_limit=3`` exactly
    3 of 8 follow-up submits are admitted and 5 shed with
    :class:`ServerOverloaded`; the admitted 3 carry 60 ms deadlines and
    expire at dequeue — the GEMM count proves no expired request computed.
    Returns an error string, or "" on success.
    """
    rng = np.random.default_rng(3)
    images = [rng.standard_normal((3, 10, 10)).astype(np.float32) for _ in range(9)]
    plan = FaultPlan(seed=0).slow_at(0, ms=250)
    server = Server(session, max_batch=1, max_wait_ms=0.0,
                    queue_limit=3, faults=plan)
    with server:
        stalled = server.submit(images[0])
        if not _await_stalled_worker(server):
            return "chaos(det): worker never dequeued the stalling request"
        calls_before = session.stats["calls"]
        admitted, shed = [], 0
        for x in images[1:]:
            try:
                admitted.append(server.submit(x, deadline_ms=60))
            except ServerOverloaded:
                shed += 1
        stalled.result(timeout=10.0)
        expired = 0
        for future in admitted:
            try:
                future.result(timeout=10.0)
            except DeadlineExceeded:
                expired += 1
        stats = server.stats.snapshot()
    if (len(admitted), shed) != (3, 5):
        return f"chaos(det): {len(admitted)} admitted / {shed} shed, expected 3 / 5"
    if expired != 3 or stats["expired"] != 3:
        return f"chaos(det): {expired} expired ({stats['expired']:.0f} counted), expected 3"
    if stats["rejected"] != 5:
        return f"chaos(det): rejected count {stats['rejected']:.0f}, expected 5"
    calls_delta = session.stats["calls"] - calls_before
    if calls_delta != 1:
        return (
            f"chaos(det): {calls_delta} forward passes after the stall, expected 1 "
            f"— an expired request consumed GEMM time"
        )
    return ""


def chaos_open_loop_leg(session: InferenceSession) -> str:
    """Seeded faults under open-loop load: typed errors match server counters.

    Poisson arrivals at 80 req/s for 0.6 s against a micro-batching server
    (``max_batch`` 8, ``queue_limit`` 4, 400 ms deadlines, cache off) with a
    persistent poison at admission 2, a worker crash at 12 and a 600 ms
    stall at 20.  The fault indices are spaced so the poison, crash and
    stall batches never coalesce, and the first two land before the stall
    so their requests cannot expire first.  Exact shed and expiry counts
    depend on arrival timing, so the leg asserts what does not: exactly one
    request quarantined, at least one restart, shed and expiry, and every
    ``ServerOverloaded`` / ``DeadlineExceeded`` / ``RequestQuarantined`` the
    client saw equals the server's ``rejected`` / ``expired`` /
    ``quarantined`` count.  Returns an error string, or "" on success.
    """
    rng = np.random.default_rng(0)
    arrivals = np.cumsum(rng.exponential(1.0 / 80.0, size=96))
    arrivals = arrivals[arrivals < 0.6]
    plan = FaultPlan(seed=0).poison_at(2).crash_at(12).slow_at(20, ms=600.0)
    tally = {ServerOverloaded: 0, DeadlineExceeded: 0, RequestQuarantined: 0}
    futures = []
    server = Server(session, max_batch=8, max_wait_ms=1.0, cache_size=0,
                    queue_limit=4, default_deadline_ms=400.0, faults=plan)
    with server:
        start = time.perf_counter()
        for offset in arrivals:
            delay = offset - (time.perf_counter() - start)
            if delay > 0:
                time.sleep(delay)
            x = rng.standard_normal((3, 10, 10)).astype(np.float32)
            try:
                futures.append(server.submit(x))
            except ServerError as error:  # shed at admission
                tally[type(error)] = tally.get(type(error), 0) + 1
        for future in futures:
            try:
                future.result(timeout=30.0)
            except ServerError as error:
                tally[type(error)] = tally.get(type(error), 0) + 1
        stats = server.stats.snapshot()
    for error, key in ((ServerOverloaded, "rejected"), (DeadlineExceeded, "expired"),
                       (RequestQuarantined, "quarantined")):
        if tally[error] != stats[key]:
            return (f"chaos(open loop): client saw {tally[error]} {error.__name__} "
                    f"but the server counted {key}={stats[key]:.0f}")
    if stats["quarantined"] != 1:
        return f"chaos(open loop): {stats['quarantined']:.0f} quarantined, expected exactly 1"
    for key in ("restarts", "rejected", "expired"):
        if stats[key] < 1:
            return f"chaos(open loop): no {key} under the injected crash and stall"
    other = {e.__name__: n for e, n in tally.items() if e not in
             (ServerOverloaded, DeadlineExceeded, RequestQuarantined)}
    if other:
        return f"chaos(open loop): unexpected errors {other}"
    return ""


def mixed_shape_leg(session: InferenceSession) -> str:
    """Interleaved 12x12 / 16x16 requests coalesce per input shape.

    Sixteen requests alternate between two input shapes.  Each shape must
    still batch (fewer forward passes than requests) and every served
    result must match that shape's own stacked ``session.run``.  Returns an
    error string, or "" on success.
    """
    rng = np.random.default_rng(5)
    by_shape = {
        side: rng.standard_normal((8, 3, side, side)).astype(np.float32)
        for side in (12, 16)
    }
    refs = {side: session.run(images) for side, images in by_shape.items()}
    order = [(side, index) for index in range(8) for side in (12, 16)]
    with Server(session, max_batch=8, max_wait_ms=50.0) as server:
        served = server.predict_many([by_shape[side][i] for side, i in order])
        stats = server.stats.snapshot()
    for (side, index), got in zip(order, served):
        err = float(np.abs(got - refs[side][index]).max())
        if err > 1e-6:
            return f"mixed-shape leg: {side}x{side} request {index} differs by {err:.2e}"
    if not stats["batches"] < stats["served"]:
        return (
            f"mixed-shape leg: {stats['served']:.0f} requests took "
            f"{stats['batches']:.0f} forward passes; shapes did not coalesce"
        )
    return ""


def scheme_matrix_leg() -> str:
    """Registry-driven scheme sweep: one artifact per quantization scheme.

    Every scheme id the deploy registry knows (``KNOWN_SCHEMES``) freezes a
    deterministic ``simple_convnet``, exports, reloads, and serves through
    the threaded :class:`Server`; the manifest must record the scheme, the
    session must match the frozen eval graph within 1e-5, and served logits
    must match the session.  Returns an error string, or "" on success.
    """
    kwargs = {"num_classes": 10, "width": 4}
    shape = (4, 3, 10, 10)
    rng = np.random.default_rng(4)
    images = rng.standard_normal(shape).astype(np.float32)
    with tempfile.TemporaryDirectory(prefix="repro_serve_smoke_schemes_") as tmp:
        for scheme in KNOWN_SCHEMES:
            model = frozen_scheme_model(
                scheme, "simple_convnet", seed=5, calibration_shape=shape, **kwargs
            )
            with no_grad():
                reference = model(Tensor(images)).data
            path = os.path.join(tmp, f"{scheme}.npz")
            save_artifact(model, path, arch="simple_convnet", arch_kwargs=kwargs)
            session = InferenceSession(load_artifact(path))
            if session.scheme_id != scheme:
                return (
                    f"scheme leg: {scheme} artifact loaded with "
                    f"scheme_id={session.scheme_id!r}"
                )
            session_logits = session.run(images)
            err = float(np.abs(session_logits - reference).max())
            if err > 1e-5:
                return f"scheme leg: {scheme} session vs eval graph differ by {err:.2e}"
            with Server(session, max_batch=4, max_wait_ms=1.0) as server:
                served = np.stack(server.predict_many(list(images)))
            err = float(np.abs(served - session_logits).max())
            if err > 1e-6:
                return f"scheme leg: {scheme} served logits differ from session by {err:.2e}"
    return ""


def main() -> int:
    seed_everything(0)
    kwargs = {"num_classes": 10, "width_mult": 0.2}
    model = frozen_mixed_model(
        "resnet20", precisions=(2, 3, 4, 5), randomize_bn=False, **kwargs
    )

    with tempfile.TemporaryDirectory(prefix="repro_serve_smoke_") as tmp:
        path = os.path.join(tmp, "resnet20.npz")
        save_artifact(model, path, arch="resnet20", arch_kwargs=kwargs)
        session = InferenceSession(load_artifact(path))

        rng = np.random.default_rng(0)
        images = rng.standard_normal((8, 3, 12, 12)).astype(np.float32)
        session_logits = session.run(images)

        float_model = materialize_quantized(model)
        float_model.eval()
        with no_grad():
            eval_logits = float_model(Tensor(images)).data
        err = float(np.abs(session_logits - eval_logits).max())
        if err > 1e-5:
            print(f"serve smoke FAILED: session vs eval-stack logits differ by {err:.2e}")
            return 1

        with Server(session, max_batch=8, max_wait_ms=1.0, cache_size=16) as server:
            served = np.stack(server.predict_many(list(images)))
            stats = server.stats.snapshot()
        err = float(np.abs(served - session_logits).max())
        if err > 1e-6:
            print(f"serve smoke FAILED: served logits differ from session by {err:.2e}")
            return 1
        if stats["served"] < len(images):
            print(f"serve smoke FAILED: server answered {stats['served']} of {len(images)}")
            return 1
        failure = mixed_shape_leg(session)
        if failure:
            print(f"serve smoke FAILED: {failure}")
            return 1

    # --- chaos legs: seeded faults, recovery + parity + exact shedding ---
    # A small convnet whose logits are visibly sensitive to a one-bit input
    # flip (this frozen resnet20's are not: a whole-channel +1.0 moves its
    # logits by ~1e-7, below float32 resolution, so a flipped payload could
    # serve bit-identical results and void the corruption assertion).
    chaos_model = frozen_mixed_model("simple_convnet", num_classes=10, width=8)
    with tempfile.TemporaryDirectory(prefix="repro_serve_smoke_chaos_") as tmp:
        path = os.path.join(tmp, "convnet.npz")
        save_artifact(chaos_model, path, arch="simple_convnet",
                      arch_kwargs={"num_classes": 10, "width": 8})
        chaos_session = InferenceSession(load_artifact(path))
        for leg in (chaos_env_leg, chaos_deterministic_leg, chaos_open_loop_leg):
            failure = leg(chaos_session)
            if failure:
                print(f"serve smoke FAILED: {failure}")
                return 1

    # --- cross-scheme leg: every registered quantizer serves ------------
    failure = scheme_matrix_leg()
    if failure:
        print(f"serve smoke FAILED: {failure}")
        return 1

    # --- integer-activation leg: act_bits=4 resnet20 -------------------
    act_model = frozen_mixed_model(
        "resnet20", precisions=(2, 3, 4, 5), randomize_bn=False, act_bits=4,
        calibration_shape=(8, 3, 12, 12), **kwargs
    )
    act_model.eval()
    with tempfile.TemporaryDirectory(prefix="repro_serve_smoke_act_") as tmp:
        path = os.path.join(tmp, "resnet20_act4.npz")
        save_artifact(act_model, path, arch="resnet20", arch_kwargs=kwargs)
        act_session = InferenceSession(load_artifact(path))  # no escape hatch
        if act_session.activation_mode != "integer":
            print(
                f"serve smoke FAILED: act4 artifact compiled "
                f"{act_session.activation_mode!r} activations, expected 'integer'"
            )
            return 1
        # The integer kernel path must actually be selected (not just the
        # integer activation grid): every GEMM layer's summary tag must be
        # an integer kernel, visible in the session summary operators read.
        act_summary = act_session.summary()
        if "gemm=int8" not in act_summary or "+aq4+int8" not in act_summary:
            print(
                "serve smoke FAILED: act4 session did not select the integer "
                "GEMM kernels; summary:\n" + act_summary
            )
            return 1
        rng = np.random.default_rng(1)
        images = rng.standard_normal((8, 3, 12, 12)).astype(np.float32)
        act_logits = act_session.run(images)
        with no_grad():
            frozen_logits = act_model(Tensor(images)).data
        act_err = float(np.abs(act_logits - frozen_logits).max())
        # Quantization tolerance: the only permitted divergence from the
        # frozen training graph is float32 reassociation, orders of
        # magnitude below one activation grid step (~6.7e-2 at 4 bits).
        if act_err > 1e-4:
            print(f"serve smoke FAILED: act4 session vs frozen CSQ eval differ by {act_err:.2e}")
            return 1
        # Serve the act4 leg with the per-step profiler + telemetry on: the
        # trace must carry one plan.step span per plan step per executed
        # batch, nested under that batch's server.batch span, with kernel
        # tags agreeing with the summary operators read.
        act_session.set_profiling(True)
        with obs.telemetry_scope(enabled=True) as telemetry:
            with Server(act_session, max_batch=8, max_wait_ms=1.0) as server:
                act_served = np.stack(server.predict_many(list(images)))
            batch_spans = telemetry.tracer.finished("server.batch")
            step_spans = telemetry.tracer.finished("plan.step")
        act_session.set_profiling(False)
        served_err = float(np.abs(act_served - act_logits).max())
        if served_err > 1e-6:
            print(f"serve smoke FAILED: act4 served logits differ from session by {served_err:.2e}")
            return 1
        if not batch_spans:
            print("serve smoke FAILED: act4 serving produced no server.batch spans")
            return 1
        expected_steps = len(act_session.plan) * len(batch_spans)
        if len(step_spans) != expected_steps:
            print(
                f"serve smoke FAILED: act4 trace has {len(step_spans)} plan.step "
                f"spans, expected {len(act_session.plan)} per batch x "
                f"{len(batch_spans)} batches = {expected_steps}"
            )
            return 1
        batch_ids = {span.span_id for span in batch_spans}
        orphans = [s for s in step_spans if s.parent_id not in batch_ids]
        if orphans:
            print(f"serve smoke FAILED: {len(orphans)} plan.step spans not nested "
                  f"under a server.batch span")
            return 1
        plan_order = [step.name for step in act_session.plan]
        for batch_span in batch_spans:
            traced_order = [
                s.attrs["step"] for s in step_spans if s.parent_id == batch_span.span_id
            ]
            if traced_order != plan_order:
                print(
                    f"serve smoke FAILED: batch {batch_span.span_id} traced step "
                    f"order {traced_order} != plan order {plan_order}"
                )
                return 1
        summary_tags = set(
            act_summary.split("gemm=", 1)[1].split(")", 1)[0].split("/")
        )
        span_tags = set()
        for span in step_spans:
            span_tags.update(span.attrs["kernels"].values())
        if span_tags != summary_tags:
            print(
                f"serve smoke FAILED: trace kernel tags {sorted(span_tags)} do not "
                f"match summary gemm tags {sorted(summary_tags)}"
            )
            return 1

    print(
        f"serve smoke OK: parity {err:.1e}, act4 parity {act_err:.1e}, "
        f"{int(stats['served'])} requests in {int(stats['batches'])} batches "
        f"(mean batch {stats['mean_batch_size']:.1f}); act4 trace: "
        f"{len(step_spans)} plan.step spans across {len(batch_spans)} batches, "
        f"kernels {'/'.join(sorted(span_tags))}; schemes: "
        f"{len(KNOWN_SCHEMES)} quantizers served; mixed 12/16 shapes "
        f"coalesced per shape; chaos: crash recovered "
        f"bitwise, poison quarantined, 5 shed / 3 expired exactly, open-loop "
        f"typed errors match server counters"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
