"""Scratch memory: warm steps retain nothing, freed state fails loudly.

Training and serving scratch (im2col columns, padding, BN and CSQ
intermediates, activation codes) is plain NumPy memory owned by the call
or backward closure that uses it.  The steady-state tests hold both hot
loops to that contract with ``tracemalloc``, which traces NumPy's data
buffers: once warm, repeated calls must not leave traced memory above its
pre-call level.
"""

import gc
import os
import tempfile
import tracemalloc

import numpy as np
import pytest

#: Headroom for interpreter bookkeeping (frame and dict churn); a single
#: leaked scratch array of either loop below is several times larger.
_SLACK_BYTES = 16 * 1024


def _retained_bytes(call, warmup: int = 3, repeats: int = 5) -> int:
    """Largest traced-memory excess over the pre-call level across ``repeats`` calls.

    Tracing starts before the warm-up, so state the calls replace (updated
    parameters, fresh ``.grad`` buffers) is traced on both sides.
    """
    tracemalloc.start()
    try:
        for _ in range(warmup):
            call()
        gc.collect()
        baseline = tracemalloc.get_traced_memory()[0]
        excess = 0
        for _ in range(repeats):
            call()
            gc.collect()
            excess = max(excess, tracemalloc.get_traced_memory()[0] - baseline)
    finally:
        tracemalloc.stop()
    return excess


class TestSteadyState:
    def test_no_growth_after_warm_train_step(self):
        """A warmed-up CSQ train step frees all of its scratch."""
        from repro.csq.convert import convert_to_csq
        from repro.models import create_model
        from repro.nn import functional as F
        from repro.optim import SGD
        from repro.autograd.tensor import Tensor
        from repro.utils import seed_everything

        seed_everything(0)
        model = create_model("simple_convnet", num_classes=10, width=8)
        model, state = convert_to_csq(model, num_bits=4, act_bits=3)
        state.set_temperature(5.0)
        optimizer = SGD(model.parameters(), lr=0.01)
        rng = np.random.default_rng(0)
        images = rng.standard_normal((8, 3, 10, 10)).astype(np.float32)
        labels = rng.integers(0, 10, size=8)
        model.train()

        def step():
            logits = model(Tensor(images))
            loss = F.cross_entropy(logits, labels)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

        assert _retained_bytes(step) <= _SLACK_BYTES

    def test_inference_session_runs_warm(self):
        """A compiled plan keeps nothing between calls, from its first call on."""
        from repro.deploy import InferenceSession, save_artifact
        from repro.deploy.testing import frozen_mixed_model

        model = frozen_mixed_model("simple_convnet", num_classes=10, width=8)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.npz")
            save_artifact(model, path, arch="simple_convnet",
                          arch_kwargs={"num_classes": 10, "width": 8})
            session = InferenceSession(path)
        batch = np.random.default_rng(0).standard_normal((16, 3, 10, 10)).astype(np.float32)
        first_conv = next(step for step in session.plan if hasattr(step, "kernel"))
        # One conv output is far above the slack, so any buffer a step kept
        # from a call would show.
        assert first_conv.out_channels * batch.shape[0] * 10 * 10 * 4 > 2 * _SLACK_BYTES
        # The returned logits are the caller's; drop them inside the call.
        # No warm-up: the baseline is taken before the session's first run.
        assert _retained_bytes(lambda: session.run(batch), warmup=0) <= _SLACK_BYTES


class TestReleasedStateGuards:
    def test_conv2d_double_backward_raises_clearly(self):
        from repro.autograd import ops
        from repro.autograd.tensor import Tensor

        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        loss = ops.conv2d(x, w, stride=1, padding=1).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="backward called twice"):
            loss.backward()

    def test_batch_norm_double_backward_raises_clearly(self):
        from repro.autograd import ops
        from repro.autograd.tensor import Tensor

        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((8, 4)).astype(np.float32), requires_grad=True)
        g = Tensor(np.ones(4, np.float32), requires_grad=True)
        b = Tensor(np.zeros(4, np.float32), requires_grad=True)
        out, _, _ = ops.batch_norm(x, g, b, axes=(0,))
        loss = out.sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="backward called twice"):
            loss.backward()
