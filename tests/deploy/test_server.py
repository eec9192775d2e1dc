"""Serving engine: micro-batching, caching, stats, lifecycle."""

import threading

import numpy as np
import pytest

from repro import obs
from repro.deploy import (
    FaultPlan,
    InferenceSession,
    RequestQuarantined,
    Server,
    load_artifact,
    save_artifact,
)
from repro.obs.sink import NdjsonSink, read_ndjson
from tests.deploy.conftest import frozen_mixed_model


@pytest.fixture
def session(artifact_path):
    model = frozen_mixed_model("simple_convnet", num_classes=10, width=8)
    save_artifact(model, artifact_path, arch="simple_convnet",
                  arch_kwargs={"num_classes": 10, "width": 8})
    return InferenceSession(load_artifact(artifact_path))


def _examples(rng, n):
    return [rng.standard_normal((3, 10, 10)).astype(np.float32) for _ in range(n)]


def test_served_results_match_session(session, rng):
    examples = _examples(rng, 6)
    want = session.run(np.stack(examples))
    with Server(session, max_batch=4, max_wait_ms=1.0) as server:
        got = np.stack(server.predict_many(examples))
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_microbatching_coalesces_requests(session, rng):
    examples = _examples(rng, 16)
    with Server(session, max_batch=16, max_wait_ms=50.0) as server:
        # Submit everything before the worker's wait window closes, from many
        # client threads, then gather.
        futures = []
        lock = threading.Lock()

        def client(x):
            f = server.submit(x)
            with lock:
                futures.append(f)

        threads = [threading.Thread(target=client, args=(x,)) for x in examples]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for f in futures:
            f.result(timeout=10.0)
        stats = server.stats.snapshot()
    assert stats["requests"] == 16
    assert stats["served"] == 16
    # Coalescing must actually happen: far fewer forward passes than requests.
    assert stats["batches"] < 16
    assert stats["mean_batch_size"] > 1.0


def test_max_batch_respected(session, rng):
    examples = _examples(rng, 9)
    with Server(session, max_batch=4, max_wait_ms=20.0) as server:
        server.predict_many(examples)
        stats = server.stats.snapshot()
    assert stats["mean_batch_size"] <= 4.0


def test_cache_hits_identical_requests(session, rng):
    example = _examples(rng, 1)[0]
    with Server(session, max_batch=4, max_wait_ms=0.0, cache_size=8) as server:
        first = server.predict(example)
        second = server.predict(example)
        stats = server.stats.snapshot()
    np.testing.assert_array_equal(first, second)
    assert stats["cache_hits"] == 1
    # Only the first request reached the model.
    assert stats["served"] == 1


def test_cache_evicts_lru(session, rng):
    examples = _examples(rng, 3)
    with Server(session, max_batch=1, max_wait_ms=0.0, cache_size=2) as server:
        for x in examples:  # fills cache with [1, 2] after evicting 0
            server.predict(x)
        server.predict(examples[0])  # evicted: must be recomputed
        stats = server.stats.snapshot()
    assert stats["cache_hits"] == 0
    assert stats["served"] == 4


def test_stats_latency_fields(session, rng):
    with Server(session, max_batch=2, max_wait_ms=0.0) as server:
        server.predict_many(_examples(rng, 4))
        stats = server.stats.snapshot()
    for key in ("latency_mean_ms", "latency_p50_ms", "latency_p95_ms", "throughput_rps"):
        assert stats[key] > 0.0


def test_submit_after_stop_raises(session, rng):
    server = Server(session).start()
    server.stop()
    with pytest.raises(RuntimeError, match="not running"):
        server.submit(_examples(rng, 1)[0])


def test_stop_fails_unserved_requests(session, rng):
    """Requests the worker never reached resolve with an error, not a hang."""
    server = Server(session, max_batch=2, max_wait_ms=0.0)
    # Enqueue without a running worker, then stop: the drain must fail them.
    server._running = True
    futures = [server.submit(x) for x in _examples(rng, 3)]
    server.stop()
    for future in futures:
        with pytest.raises(RuntimeError, match="stopped before"):
            future.result(timeout=1.0)


def test_bad_input_propagates_exception(session):
    with Server(session, max_wait_ms=0.0) as server:
        future = server.submit(np.zeros((1, 1, 1), dtype=np.float32))  # wrong geometry
        with pytest.raises(Exception):
            future.result(timeout=10.0)


def test_malformed_request_does_not_poison_batch(session, rng):
    """A wrong-shaped request in a coalesced batch fails alone."""
    good = _examples(rng, 3)
    with Server(session, max_batch=8, max_wait_ms=100.0) as server:
        futures = [server.submit(x) for x in good]
        bad = server.submit(np.zeros((2, 2, 2), dtype=np.float32))
        results = [f.result(timeout=10.0) for f in futures]
        with pytest.raises(Exception):
            bad.result(timeout=10.0)
    want = session.run(np.stack(good))
    np.testing.assert_allclose(np.stack(results), want, atol=1e-6)


def test_cache_hit_on_stopped_server_raises(session, rng):
    example = _examples(rng, 1)[0]
    server = Server(session, max_wait_ms=0.0, cache_size=8).start()
    server.predict(example)
    server.stop()
    with pytest.raises(RuntimeError, match="not running"):
        server.submit(example)


def test_constructor_validation(session):
    with pytest.raises(ValueError):
        Server(session, max_batch=0)
    with pytest.raises(ValueError):
        Server(session, max_wait_ms=-1.0)


def test_constructor_accepts_only_one_worker(session):
    Server(session, workers=1)
    for workers in (0, 2):
        with pytest.raises(ValueError, match="multi-worker serving was removed"):
            Server(session, workers=workers)


def test_serve_loop_survives_stop_start_cycles(session, rng):
    example = _examples(rng, 1)[0]
    want = session.run(example[None])[0]
    server = Server(session, max_batch=4, max_wait_ms=0.0)
    for _ in range(3):
        server.start()
        assert server.predict(example).tobytes() == want.tobytes()
        server.stop()
    with pytest.raises(RuntimeError):
        server.predict(example)


def test_stop_fails_pending_requests(session, rng):
    server = Server(session, max_batch=4, max_wait_ms=0.0)
    server.start()
    server.stop()
    # Requests sneaked into the queue after shutdown must be failed, not hung.
    with pytest.raises(RuntimeError):
        server.predict(_examples(rng, 1)[0])


def test_shutdown_leaves_no_serving_threads(session, rng):
    """Neither the serve loop, its restarted generation nor the supervisor leak."""
    before = {t.name for t in threading.enumerate()}
    server = Server(session, faults=FaultPlan(seed=0).crash_at(0)).start()
    server.predict(_examples(rng, 1)[0], timeout=10.0)
    assert server.stats.snapshot()["restarts"] == 1
    server.stop()
    lingering = {
        t.name for t in threading.enumerate()
        if t.name.startswith("repro-server")
    } - before
    assert not lingering, f"serving threads leaked: {lingering}"


def test_stats_p99_and_queue_service_split(session, rng):
    """Latency carries p99; queue wait and service time are reported apart."""
    with Server(session, max_batch=2, max_wait_ms=0.0) as server:
        server.predict_many(_examples(rng, 6))
        stats = server.stats.snapshot()
    assert stats["latency_p50_ms"] <= stats["latency_p95_ms"] <= stats["latency_p99_ms"]
    for prefix in ("queue_wait", "service"):
        p50 = stats[f"{prefix}_p50_ms"]
        p95 = stats[f"{prefix}_p95_ms"]
        p99 = stats[f"{prefix}_p99_ms"]
        assert 0.0 <= p50 <= p95 <= p99
    # Latency decomposes as queue wait + service: each component's p99 is
    # bounded by the end-to-end p99 (histogram resolution gives slack).
    assert stats["service_p99_ms"] <= stats["latency_p99_ms"] * 1.1


def test_stats_cache_hit_rate_and_queue_depth(session, rng):
    example = _examples(rng, 1)[0]
    with Server(session, max_batch=4, max_wait_ms=0.0, cache_size=8) as server:
        server.predict(example)
        server.predict(example)
        server.predict(example)
        stats = server.stats.snapshot()
    assert stats["cache_hit_rate"] == pytest.approx(2.0 / 3.0)
    # Nothing pending once predicts returned.
    assert stats["queue_depth"] == 0.0


def test_stats_batch_size_distribution(session, rng):
    examples = _examples(rng, 5)
    with Server(session, max_batch=1, max_wait_ms=0.0) as server:
        server.predict_many(examples)
        stats = server.stats.snapshot()
    # max_batch=1 forces singleton batches: the distribution is {1: 5}.
    assert stats["batch_size_dist"] == {1: 5}
    assert sum(stats["batch_size_dist"].values()) == stats["batches"]


def test_stats_fixed_memory(session, rng):
    """The stats object does not grow with request count (streaming hists)."""
    stats = server_stats = None
    with Server(session, max_batch=4, max_wait_ms=0.0) as server:
        server.predict(_examples(rng, 1)[0])
        server_stats = server.stats
        buckets_before = server_stats._latency._counts.size
        server.predict_many(_examples(rng, 12))
        assert server_stats._latency._counts.size == buckets_before
        stats = server_stats.snapshot()
    assert stats["served"] == 13


def test_clear_cache_forces_recompute(session, rng):
    example = _examples(rng, 1)[0]
    with Server(session, max_batch=4, max_wait_ms=0.0, cache_size=8) as server:
        server.predict(example)
        server.predict(example)  # hit
        server.clear_cache()
        server.predict(example)  # cold again: recomputed
        stats = server.stats.snapshot()
    assert stats["cache_hits"] == 1
    assert stats["served"] == 2


def test_request_ids_are_sequential(session, rng):
    with Server(session, max_batch=4, max_wait_ms=0.0) as server:
        server.predict_many(_examples(rng, 3))
        assert server.stats.requests == 3


# ----------------------------------------------------------------------
# Shape-keyed micro-batching
# ----------------------------------------------------------------------
class ShapeRecordingSession:
    """Duck-typed session: records each forward pass's batch shape.

    ``run`` is row-independent and exact (a reshape and a scale), so a
    batched result is bitwise equal to the same row served alone.  Inputs
    without 3 channels fail, standing in for a malformed request.
    """

    def __init__(self):
        self.calls = []
        self._lock = threading.Lock()

    def run(self, batch):
        with self._lock:
            self.calls.append(batch.shape)
        if batch.shape[1] != 3:
            raise ValueError(f"expected 3 input channels, got {batch.shape[1]}")
        return 2.0 * batch.reshape(len(batch), -1)[:, :4]


def _shaped(rng, side, n):
    return [rng.standard_normal((3, side, side)).astype(np.float32) for _ in range(n)]


def _interleave(first, second):
    return [x for pair in zip(first, second) for x in pair]


def test_mixed_shapes_coalesce_per_shape():
    """Interleaved shapes within one window run as one pass per shape."""
    rng = np.random.default_rng(0)
    examples = _interleave(_shaped(rng, 12, 8), _shaped(rng, 16, 8))
    session = ShapeRecordingSession()
    # No shape fills max_batch, so the whole window is one collection.
    with Server(session, max_batch=16, max_wait_ms=300.0) as server:
        results = server.predict_many(examples)
        stats = server.stats.snapshot()
    assert session.calls == [(8, 3, 12, 12), (8, 3, 16, 16)]
    assert stats["batch_size_dist"] == {8: 2}
    for x, got in zip(examples, results):
        assert got.tobytes() == session.run(x[None])[0].tobytes()


def test_first_full_shape_ends_the_collection():
    """max_batch caps each pass; collection stops when any shape fills it."""
    rng = np.random.default_rng(1)
    examples = _interleave(_shaped(rng, 12, 8), _shaped(rng, 16, 8))
    session = ShapeRecordingSession()
    with Server(session, max_batch=8, max_wait_ms=500.0) as server:
        results = server.predict_many(examples)
    # The 15th request fills the 12x12 group, ending the first collection
    # with 7 16x16 rows beside it; the 16th request starts the next one.
    assert session.calls[:2] == [(8, 3, 12, 12), (7, 3, 16, 16)]
    assert session.calls[2:] == [(1, 3, 16, 16)]
    for x, got in zip(examples, results):
        assert got.tobytes() == session.run(x[None])[0].tobytes()


def test_wrong_shape_fails_alone_among_two_good_shapes():
    rng = np.random.default_rng(2)
    good = _interleave(_shaped(rng, 12, 3), _shaped(rng, 16, 3))
    session = ShapeRecordingSession()
    with Server(session, max_batch=8, max_wait_ms=300.0) as server:
        futures = [server.submit(x) for x in good[:3]]
        bad = server.submit(np.zeros((2, 2, 2), dtype=np.float32))
        futures += [server.submit(x) for x in good[3:]]
        results = [f.result(timeout=10.0) for f in futures]
        with pytest.raises(RequestQuarantined):
            bad.result(timeout=10.0)
        stats = server.stats.snapshot()
    # The good shapes still ran as one pass each; only the odd shape's own
    # group failed, then failed again on its solo retry.
    good_calls = [shape for shape in session.calls if shape[1] == 3]
    assert good_calls == [(3, 3, 12, 12), (3, 3, 16, 16)]
    assert stats["quarantined"] == 1
    assert stats["retries"] == 1
    for x, got in zip(good, results):
        assert got.tobytes() == session.run(x[None])[0].tobytes()


def test_zero_wait_backlog_of_many_shapes_resolves_everything():
    rng = np.random.default_rng(3)
    sides = [8, 9, 10, 11, 12, 13]
    examples = [x for _ in range(5) for side in sides for x in _shaped(rng, side, 1)]
    session = ShapeRecordingSession()
    # Stall the first request so the rest pile up behind it as a backlog.
    faults = FaultPlan(seed=0).slow_at(0, ms=200)
    with Server(session, max_batch=3, max_wait_ms=0.0, faults=faults) as server:
        futures = [server.submit(x) for x in examples]
        results = [f.result(timeout=10.0) for f in futures]
        stats = server.stats.snapshot()
    assert stats["served"] == len(examples)
    assert max(shape[0] for shape in session.calls) <= 3
    assert stats["batches"] == len(session.calls)
    # The backlog coalesced: fewer passes than requests.
    assert len(session.calls) < len(examples)
    for x, got in zip(examples, results):
        assert got.tobytes() == session.run(x[None])[0].tobytes()


def test_batch_records_carry_their_shape(tmp_path):
    """Per-shape fill is visible from NDJSON: each batch record names its shape."""
    rng = np.random.default_rng(4)
    examples = _interleave(_shaped(rng, 12, 4), _shaped(rng, 16, 4))
    sink = NdjsonSink(str(tmp_path / "events"), run_id="shapes")
    with obs.telemetry_scope(enabled=True, sink=sink):
        with Server(ShapeRecordingSession(), max_batch=8, max_wait_ms=300.0) as server:
            server.predict_many(examples)
    events = read_ndjson(sink.events_path)
    batches = [(r["shape"], r["size"]) for r in events if r["type"] == "batch"]
    assert batches == [([3, 12, 12], 4), ([3, 16, 16], 4)]
    requests = [r for r in events if r["type"] == "request"]
    assert len(requests) == len(examples)
    assert all(r["batch"] == 4 for r in requests)
    assert sorted(r["shape"][1] for r in requests) == [12] * 4 + [16] * 4
