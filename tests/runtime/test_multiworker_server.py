"""Multi-worker serving: correctness, shared stats, clean shutdown."""

import os
import tempfile

import numpy as np
import pytest

from repro.deploy import InferenceSession, Server, save_artifact
from repro.deploy.testing import frozen_mixed_model


@pytest.fixture(scope="module")
def session():
    model = frozen_mixed_model("simple_convnet", num_classes=10, width=8)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.npz")
        save_artifact(model, path, arch="simple_convnet",
                      arch_kwargs={"num_classes": 10, "width": 8})
        yield InferenceSession(path)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_clone_is_independent_but_equivalent(session, rng):
    clone = session.clone()
    assert clone is not session
    assert not any(mine is theirs for mine, theirs in zip(clone.plan, session.plan))
    batch = rng.standard_normal((5, 3, 10, 10)).astype(np.float32)
    np.testing.assert_allclose(clone.run(batch), session.run(batch), atol=1e-6)


def test_multiworker_results_match_direct_session(session, rng):
    examples = [rng.standard_normal((3, 10, 10)).astype(np.float32) for _ in range(24)]
    want = session.run(np.stack(examples))
    with Server(session, max_batch=4, max_wait_ms=1.0, workers=4) as server:
        got = np.stack(server.predict_many(examples))
    np.testing.assert_allclose(got, want, atol=1e-5)


def test_all_workers_contribute_under_load(session, rng):
    from concurrent.futures import ThreadPoolExecutor

    examples = [rng.standard_normal((3, 10, 10)).astype(np.float32) for _ in range(64)]
    with Server(session, max_batch=2, max_wait_ms=0.0, workers=4) as server:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(server.predict, examples))
        stats = server.stats.snapshot()
    assert len(results) == 64
    assert stats["served"] == 64.0
    assert stats["batches"] >= 1


def test_workers_survive_stop_start_cycles(session, rng):
    example = rng.standard_normal((3, 10, 10)).astype(np.float32)
    server = Server(session, max_batch=4, max_wait_ms=0.0, workers=3)
    for _ in range(3):
        server.start()
        out = server.predict(example)
        assert out.shape == (10,)
        server.stop()
    with pytest.raises(RuntimeError):
        server.predict(example)


def test_stop_fails_pending_requests_across_workers(session, rng):
    server = Server(session, max_batch=4, max_wait_ms=0.0, workers=2)
    server.start()
    server.stop()
    # Requests sneaked into the queue after shutdown must be failed, not hung.
    with pytest.raises(RuntimeError):
        server.predict(rng.standard_normal((3, 10, 10)).astype(np.float32))


def test_worker_count_validation(session):
    with pytest.raises(ValueError, match="workers"):
        Server(session, workers=0)


def test_workers_need_clonable_session():
    class Plain:
        def run(self, batch):
            return np.zeros((len(batch), 2), np.float32)

    with pytest.raises(ValueError, match="clone"):
        Server(Plain(), workers=2)
    Server(Plain(), workers=1)  # single worker stays duck-typed


def test_shutdown_leaves_no_worker_threads(session, rng):
    import threading

    before = {t.name for t in threading.enumerate()}
    server = Server(session, workers=4).start()
    server.predict(rng.standard_normal((3, 10, 10)).astype(np.float32))
    server.stop()
    lingering = {
        t.name for t in threading.enumerate()
        if t.name.startswith("repro-server")
    } - before
    assert not lingering, f"worker threads leaked: {lingering}"
