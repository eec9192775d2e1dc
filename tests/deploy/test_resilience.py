"""Failure paths of the serving tier: shedding, deadlines, crashes, integrity.

Every scenario here is driven by a seeded :class:`FaultPlan`, so the
"chaos" is a deterministic schedule: the same requests shed, expire,
crash, or quarantine on every run.  Bitwise assertions use
``max_batch=1`` — batch size changes BLAS accumulation order, so solo
serving against solo references is the configuration where bit equality
is actually guaranteed.
"""

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.deploy import (
    ArtifactCorrupt,
    DeadlineExceeded,
    FaultPlan,
    InferenceSession,
    RequestQuarantined,
    Server,
    ServerOverloaded,
    ServerStats,
    ServerStopped,
    load_artifact,
    save_artifact,
)
from tests.deploy.conftest import frozen_mixed_model


@pytest.fixture
def session(artifact_path):
    model = frozen_mixed_model("simple_convnet", num_classes=10, width=8)
    save_artifact(model, artifact_path, arch="simple_convnet",
                  arch_kwargs={"num_classes": 10, "width": 8})
    return InferenceSession(load_artifact(artifact_path))


def _examples(rng, n):
    return [rng.standard_normal((3, 10, 10)).astype(np.float32) for _ in range(n)]


def _await_stalled_worker(server, timeout=2.0):
    """Block until the worker has dequeued the stalling request."""
    deadline = time.perf_counter() + timeout
    while server._queue.qsize() > 0:
        if time.perf_counter() >= deadline:
            raise AssertionError("worker never dequeued the stalling request")
        time.sleep(1e-3)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_queue_overflow_sheds_with_typed_error(session, rng):
    examples = _examples(rng, 9)
    faults = FaultPlan(seed=0).slow_at(0, ms=400)
    server = Server(session, max_batch=1, max_wait_ms=0.0,
                    queue_limit=3, faults=faults)
    with server:
        stalled = server.submit(examples[0])
        _await_stalled_worker(server)
        admitted, shed = [], 0
        for x in examples[1:]:
            try:
                admitted.append(server.submit(x))
            except ServerOverloaded:
                shed += 1
        # The stalled worker holds request 0, so exactly queue_limit more
        # requests fit; the rest shed at admission with the typed error.
        assert len(admitted) == 3
        assert shed == 5
        stalled.result(timeout=5.0)
        for future in admitted:
            future.result(timeout=5.0)
        stats = server.stats.snapshot()
    assert stats["rejected"] == 5
    assert stats["served"] == 4  # shed requests never reached the model


def test_overflow_rejection_counts_in_obs_metrics(session, rng):
    examples = _examples(rng, 6)
    faults = FaultPlan(seed=0).slow_at(0, ms=300)
    with obs.telemetry_scope(enabled=True) as handle:
        server = Server(session, max_batch=1, max_wait_ms=0.0,
                        queue_limit=1, faults=faults)
        with server:
            server.submit(examples[0])
            _await_stalled_worker(server)
            server.submit(examples[1])  # fills the queue
            shed = 0
            for x in examples[2:]:
                with pytest.raises(ServerOverloaded):
                    server.submit(x)
                shed += 1
        assert handle.registry.counter("server.rejected").value == shed


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
def test_expired_requests_drop_before_compute(session, rng):
    examples = _examples(rng, 4)
    faults = FaultPlan(seed=0).slow_at(0, ms=300)
    server = Server(session, max_batch=1, max_wait_ms=0.0, faults=faults)
    with server:
        stalled = server.submit(examples[0])
        _await_stalled_worker(server)
        calls_before = session.stats["calls"]
        doomed = [server.submit(x, deadline_ms=50) for x in examples[1:]]
        stalled.result(timeout=5.0)
        for future in doomed:
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=5.0)
        stats = server.stats.snapshot()
    # The orphaned-work guarantee: no GEMM ran for any expired request.
    assert session.stats["calls"] == calls_before + 1
    assert stats["expired"] == 3
    assert stats["served"] == 1


def test_predict_timeout_doubles_as_server_deadline(session, rng):
    examples = _examples(rng, 2)
    faults = FaultPlan(seed=0).slow_at(0, ms=300)
    server = Server(session, max_batch=1, max_wait_ms=0.0, faults=faults)
    with server:
        stalled = server.submit(examples[0])
        _await_stalled_worker(server)
        calls_before = session.stats["calls"]
        # The client gives up after 50 ms; the unified server-side deadline
        # means the request dies in queue instead of executing into the void.
        with pytest.raises(Exception):
            server.predict(examples[1], timeout=0.05)
        stalled.result(timeout=5.0)
        assert server.drain(timeout=5.0)
    assert session.stats["calls"] == calls_before + 1


def test_deadline_validation(session):
    with Server(session) as server:
        with pytest.raises(ValueError, match="deadline_ms"):
            server.submit(np.zeros((3, 10, 10), dtype=np.float32), deadline_ms=0)
    with pytest.raises(ValueError, match="default_deadline_ms"):
        Server(session, default_deadline_ms=-5)
    with pytest.raises(ValueError, match="queue_limit"):
        Server(session, queue_limit=0)


# ----------------------------------------------------------------------
# Poison isolation and quarantine
# ----------------------------------------------------------------------
def test_poison_fails_exactly_one_future(session, rng):
    examples = _examples(rng, 6)
    refs = [session.run(x[None])[0] for x in examples]
    faults = FaultPlan(seed=0).poison_at(2)  # persistent: every attempt fails
    server = Server(session, max_batch=8, max_wait_ms=50.0, faults=faults)
    with server:
        futures = [server.submit(x) for x in examples]
        failed = []
        for index, future in enumerate(futures):
            try:
                got = future.result(timeout=10.0)
                # Retried members execute solo, so solo references are exact.
                assert got.tobytes() == refs[index].tobytes()
            except RequestQuarantined:
                failed.append(index)
        stats = server.stats.snapshot()
    # The regression this pins: a failed batch used to set the same
    # exception on every waiter.  Now exactly the poison future fails.
    assert failed == [2]
    assert stats["quarantined"] == 1
    assert stats["retries"] >= 1


def test_one_shot_poison_survives_via_solo_retry(session, rng):
    examples = _examples(rng, 3)
    refs = [session.run(x[None])[0] for x in examples]
    faults = FaultPlan(seed=0).poison_at(1, times=1)
    server = Server(session, max_batch=4, max_wait_ms=50.0, faults=faults)
    with server:
        futures = [server.submit(x) for x in examples]
        for ref, future in zip(refs, futures):
            assert future.result(timeout=10.0).tobytes() == ref.tobytes()
        stats = server.stats.snapshot()
    assert stats["quarantined"] == 0
    assert stats["retries"] >= 1
    assert faults.counts()["poison"] == 1


def test_quarantined_payload_rejected_at_admission(session, rng):
    poison = _examples(rng, 1)[0]
    faults = FaultPlan(seed=0).poison_at(0)
    server = Server(session, max_batch=1, max_wait_ms=0.0, faults=faults)
    with server:
        with pytest.raises(RequestQuarantined):
            server.submit(poison).result(timeout=10.0)
        # The byte-identical payload is now refused at the door, before it
        # can consume another two executions.
        with pytest.raises(RequestQuarantined):
            server.submit(poison)
        # A different payload still serves fine.
        other = _examples(np.random.default_rng(1), 1)[0]
        server.submit(other).result(timeout=10.0)
        stats = server.stats.snapshot()
    assert stats["quarantined"] == 1
    assert stats["rejected"] == 1


# ----------------------------------------------------------------------
# Crash-safe serve loop
# ----------------------------------------------------------------------
def test_worker_crash_restart_is_bitwise_transparent(session, rng):
    examples = _examples(rng, 6)
    refs = [session.run(x[None])[0] for x in examples]
    faults = FaultPlan(seed=0).crash_at(2)
    server = Server(session, max_batch=1, max_wait_ms=0.0, faults=faults)
    with server:
        for x, ref in zip(examples, refs):
            got = server.predict(x, timeout=10.0)
            # Recovery must be invisible in the numbers: the restarted
            # loop serves bit-identical results.
            assert got.tobytes() == ref.tobytes()
        stats = server.stats.snapshot()
    # The restarted loop kept serving on the original session object: six
    # reference calls plus six served batches (the crash fired before its
    # collection ran).
    assert server.session is session
    assert session.stats["calls"] == 12
    assert stats["restarts"] == 1
    assert stats["retries"] == 1  # the crash victim was requeued and served
    assert stats["served"] == 6
    assert faults.counts()["crash"] == 1


def test_crash_salvages_every_shape_group_of_a_collection(session, rng):
    """A crash in a two-shape collection requeues and serves both groups."""
    small = _examples(rng, 3)
    large = [rng.standard_normal((3, 12, 12)).astype(np.float32) for _ in range(3)]
    examples = [x for pair in zip(small, large) for x in pair]

    def serve(faults):
        # No shape fills max_batch, so the whole window is one collection
        # holding both groups; the crash fires before either one runs.
        server = Server(session, max_batch=8, max_wait_ms=200.0, faults=faults)
        with server:
            futures = [server.submit(x) for x in examples]
            results = [f.result(timeout=10.0) for f in futures]
            return results, server.stats.snapshot()

    want, clean_stats = serve(None)
    faults = FaultPlan(seed=0).crash_at(3)
    got, stats = serve(faults)
    assert clean_stats["batch_size_dist"] == {3: 2}
    assert stats["restarts"] == 1
    assert stats["retries"] == len(examples)  # both groups were requeued
    assert stats["served"] == len(examples)
    assert stats["batch_size_dist"] == {3: 2}
    assert faults.counts()["crash"] == 1
    for ref, result in zip(want, got):
        assert result.tobytes() == ref.tobytes()


def test_crash_restart_reported_in_obs_metrics(session, rng):
    examples = _examples(rng, 3)
    faults = FaultPlan(seed=0).crash_at(0)
    with obs.telemetry_scope(enabled=True) as handle:
        server = Server(session, max_batch=1, max_wait_ms=0.0, faults=faults)
        with server:
            for x in examples:
                server.predict(x, timeout=10.0)
        assert handle.registry.counter("server.restarts").value == 1


def test_server_restarts_cleanly_after_chaos(session, rng):
    """A chaos-scarred server stops and restarts like a fresh one."""
    examples = _examples(rng, 2)
    faults = FaultPlan(seed=0).crash_at(0)
    server = Server(session, max_batch=1, max_wait_ms=0.0, faults=faults)
    with server:
        server.predict(examples[0], timeout=10.0)
    with server:  # second lifecycle: no faults left, plain serving
        server.predict(examples[1], timeout=10.0)
        assert server.stats.snapshot()["restarts"] == 0  # reset per start()


# ----------------------------------------------------------------------
# Drain vs stop
# ----------------------------------------------------------------------
def test_drain_flushes_queued_work_then_stops(session, rng):
    examples = _examples(rng, 5)
    faults = FaultPlan(seed=0).slow_at(0, ms=150)
    server = Server(session, max_batch=1, max_wait_ms=0.0, faults=faults)
    server.start()
    futures = [server.submit(x) for x in examples]
    assert server.drain(timeout=10.0) is True
    # Every admitted request was served, none failed with "stopped".
    for future in futures:
        assert future.result(timeout=0) is not None
    with pytest.raises(RuntimeError, match="not running"):
        server.submit(examples[0])


def test_drain_refuses_new_admissions(session, rng):
    examples = _examples(rng, 3)
    faults = FaultPlan(seed=0).slow_at(0, ms=300)
    server = Server(session, max_batch=1, max_wait_ms=0.0, faults=faults)
    server.start()
    try:
        server.submit(examples[0])
        _await_stalled_worker(server)
        import threading
        drainer = threading.Thread(target=server.drain, daemon=True)
        drainer.start()
        time.sleep(0.05)  # drain has closed admissions; worker still stalled
        with pytest.raises(ServerStopped, match="draining"):
            server.submit(examples[1])
        drainer.join(timeout=10.0)
    finally:
        server.stop()


def test_stop_fails_what_drain_would_have_served(session, rng):
    examples = _examples(rng, 4)
    faults = FaultPlan(seed=0).slow_at(0, ms=500)
    server = Server(session, max_batch=1, max_wait_ms=0.0, faults=faults)
    server.start()
    stalled = server.submit(examples[0])
    _await_stalled_worker(server)
    queued = [server.submit(x) for x in examples[1:]]
    # Fast shutdown: the worker is mid-stall, so the join times out and the
    # still-queued requests are failed instead of flushed.
    server.stop(timeout=0.05)
    for future in queued:
        with pytest.raises(ServerStopped, match="stopped before"):
            future.result(timeout=5.0)
    # The in-flight request still completes once the stall ends.
    assert stalled.result(timeout=5.0) is not None


# ----------------------------------------------------------------------
# Artifact integrity
# ----------------------------------------------------------------------
def _repack(path, mutate):
    """Re-save an artifact's members after ``mutate(arrays)`` edited them.

    Flipping raw file bytes would trip the zip container's own CRC before
    our check ever ran; repacking with the *original* manifest (and its now
    stale checksums) exercises exactly the manifest-level verification.
    """
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name].copy() for name in archive.files}
    mutate(arrays)
    np.savez(path, **arrays)


def test_bitflipped_blob_raises_artifact_corrupt(artifact_path):
    model = frozen_mixed_model("simple_convnet", num_classes=10, width=8)
    save_artifact(model, artifact_path, arch="simple_convnet",
                  arch_kwargs={"num_classes": 10, "width": 8})

    def flip_float_bit(arrays):
        blob = arrays["floats"]
        assert blob.size > 0
        blob.view(np.uint32)[0] ^= np.uint32(1)

    _repack(artifact_path, flip_float_bit)
    with pytest.raises(ArtifactCorrupt, match="floats"):
        load_artifact(artifact_path)


def test_corrupt_weight_codes_detected(artifact_path):
    model = frozen_mixed_model("simple_convnet", num_classes=10, width=8)
    artifact = save_artifact(model, artifact_path, arch="simple_convnet",
                             arch_kwargs={"num_classes": 10, "width": 8})
    layer = next(iter(artifact.quantized))

    def flip_code_bit(arrays):
        arrays[f"q::{layer}"][0] ^= np.uint8(1)

    _repack(artifact_path, flip_code_bit)
    with pytest.raises(ArtifactCorrupt, match="q::"):
        load_artifact(artifact_path)


def test_checksumless_artifact_loads_with_warning(artifact_path, rng):
    model = frozen_mixed_model("simple_convnet", num_classes=10, width=8)
    save_artifact(model, artifact_path, arch="simple_convnet",
                  arch_kwargs={"num_classes": 10, "width": 8})

    def strip_checksums(arrays):
        manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
        del manifest["checksums"]
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )

    _repack(artifact_path, strip_checksums)
    # Back-compat: pre-checksum artifacts still load and serve...
    artifact = load_artifact(artifact_path)
    session = InferenceSession(artifact)
    session.run(rng.standard_normal((1, 3, 10, 10)).astype(np.float32))
    # ...and with telemetry on, the unverified load is surfaced as a warning.
    with obs.telemetry_scope(enabled=True) as handle:
        load_artifact(artifact_path)
        assert handle.registry.counter("telemetry.warnings").value == 1


def test_saved_manifest_carries_checksums_for_every_blob(artifact_path):
    model = frozen_mixed_model("simple_convnet", num_classes=10, width=8)
    artifact = save_artifact(model, artifact_path, arch="simple_convnet",
                             arch_kwargs={"num_classes": 10, "width": 8})
    checksums = artifact.manifest["checksums"]
    with np.load(artifact_path, allow_pickle=False) as archive:
        members = set(archive.files)
    assert set(checksums) == members - {"manifest"}
    assert all(isinstance(v, int) for v in checksums.values())


# ----------------------------------------------------------------------
# Stats plumbing
# ----------------------------------------------------------------------
def test_snapshot_reports_resilience_counters():
    snapshot = ServerStats().snapshot()
    for key in ("rejected", "expired", "restarts", "retries", "quarantined"):
        assert snapshot[key] == 0.0


def test_reset_zeroes_resilience_counters():
    stats = ServerStats()
    stats.record_rejected()
    stats.record_expired()
    stats.record_restart()
    stats.record_retries(2)
    stats.record_quarantined()
    snapshot = stats.snapshot()
    assert (snapshot["rejected"], snapshot["expired"], snapshot["restarts"],
            snapshot["retries"], snapshot["quarantined"]) == (1, 1, 1, 2, 1)
    stats.reset()
    snapshot = stats.snapshot()
    for key in ("rejected", "expired", "restarts", "retries", "quarantined"):
        assert snapshot[key] == 0.0
