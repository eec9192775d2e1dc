"""Inference-runtime and serving-engine benchmarks.

Two suites:

* ``infer`` — batched forward of a frozen mixed-precision resnet20 through
  the deployment :class:`~repro.deploy.session.InferenceSession` versus two
  training-stack eval references on the same weights and batch:
  ``eval_stack_csq_frozen`` (the frozen CSQ model itself, as
  ``CSQTrainer.evaluate`` and every table bench run it today — it
  reconstructs the Eq. 5 weights on every forward) and
  ``eval_stack_resnet20_batched`` (the ``materialize_quantized`` float model
  under ``no_grad`` — the strongest autograd-stack baseline).  The
  ``act{4,8}_*`` cases run the same geometry with quantized activations
  (the paper's A-Bits column served on the integer grid);
  ``session_resnet20_batched`` is the ``act_bits=32`` member of that family.
  The ``*_mobilenet_batched`` pair covers the depthwise/grouped-conv hot
  path (MobileNet-style blocks compile to the per-group GEMM kernel)
  against the same materialized-float eval reference.
* ``serve`` — the threaded :class:`~repro.deploy.server.Server`: single-stream
  request latency and multi-client micro-batched throughput, plus
  ``*_act{4,8}`` variants of the concurrent burst over integer-activation
  sessions.

Both are registered with the suite/label/JSON harness so
``scripts/perf_compare.py`` can gate regressions against the committed
baselines (see ``scripts/perf_smoke.sh``).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import List

import numpy as np

from benchmarks.perf.harness import BenchCase, register_suite

_INFER_SCALES = {
    # Mirrors the train bench geometry (resnet20 at reduced width) so the
    # infer/eval comparison runs on the same model class the tables use.
    "quick": {"batch": 64, "image": 12, "width": 0.2, "clients": 8, "requests": 24},
    "tiny": {"batch": 16, "image": 8, "width": 0.2, "clients": 4, "requests": 8},
}


def _frozen_artifact_setup(cfg, keep_csq_model: bool = False, act_bits: int = 32):
    """Build a frozen mixed-precision CSQ resnet20 and export its artifact.

    Returns ``(session, reference_model, images)`` — the deployment runtime,
    a training-stack eval reference (the frozen CSQ model itself when
    ``keep_csq_model``, else the materialized float model) and one batch.
    ``act_bits < 32`` builds an activation-quantized model (calibrated
    observers) whose session runs the integer-activation plan.
    """
    from repro.csq.convert import materialize_quantized
    from repro.deploy import InferenceSession, save_artifact
    from repro.deploy.testing import frozen_mixed_model
    from repro.utils import seed_everything

    seed_everything(0)
    kwargs = {"num_classes": 10, "width_mult": cfg["width"]}
    # Deterministic mixed precisions (2..5 bits cycling) — the bench measures
    # the runtime, not the search.
    model = frozen_mixed_model(
        "resnet20", precisions=(2, 3, 4, 5), randomize_bn=False,
        act_bits=act_bits,
        calibration_shape=(
            (cfg["batch"], 3, cfg["image"], cfg["image"]) if act_bits < 32 else None
        ),
        **kwargs,
    )

    tmpdir = tempfile.mkdtemp(prefix="repro_serve_bench_")
    try:
        path = os.path.join(tmpdir, "resnet20.npz")
        save_artifact(model, path, arch="resnet20", arch_kwargs=kwargs)
        # Load back from disk so the bench covers the real artifact path;
        # codes live in memory afterwards, so the file can go.
        session = InferenceSession(path)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    reference = model if keep_csq_model else materialize_quantized(model)
    reference.eval()

    rng = np.random.default_rng(0)
    images = rng.standard_normal(
        (cfg["batch"], 3, cfg["image"], cfg["image"])
    ).astype(np.float32)
    return session, reference, images


def _mobilenet_artifact_setup(cfg):
    """Frozen CSQ ``mobilenet_tiny`` and its artifact — the grouped-conv case.

    Depthwise convolutions compile to the per-group GEMM kernel
    (:class:`~repro.deploy.plan.GroupedGemmKernel`), a different hot path
    than the dense resnet20 geometry; the eval reference is the
    materialized float model like ``eval_stack_resnet20_batched``.
    """
    from repro.csq.convert import materialize_quantized
    from repro.deploy import InferenceSession, save_artifact
    from repro.deploy.testing import frozen_mixed_model
    from repro.utils import seed_everything

    seed_everything(0)
    kwargs = {"num_classes": 10, "in_channels": 3}
    model = frozen_mixed_model(
        "mobilenet_tiny", precisions=(2, 3, 4, 5), randomize_bn=False, **kwargs
    )

    tmpdir = tempfile.mkdtemp(prefix="repro_serve_bench_")
    try:
        path = os.path.join(tmpdir, "mobilenet_tiny.npz")
        save_artifact(model, path, arch="mobilenet_tiny", arch_kwargs=kwargs)
        session = InferenceSession(path)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    reference = materialize_quantized(model)
    reference.eval()

    rng = np.random.default_rng(0)
    images = rng.standard_normal(
        (cfg["batch"], 3, cfg["image"], cfg["image"])
    ).astype(np.float32)
    return session, reference, images


@register_suite("infer")
def build_infer_suite(scale: str) -> List[BenchCase]:
    if scale not in _INFER_SCALES:
        raise KeyError(f"Unknown perf scale {scale!r}; choose from {sorted(_INFER_SCALES)}")
    cfg = _INFER_SCALES[scale]

    def session_setup():
        session, _, images = _frozen_artifact_setup(cfg)
        return session, images

    def session_fn(state):
        session, images = state
        return session.run(images)

    def make_act_case(bits: int) -> BenchCase:
        # Same geometry/weights as session_resnet20_batched (the act_bits=32
        # member of the family) — only the activation grid differs, so the
        # act4/act8/32 labels read as one column sweep.
        def act_setup():
            session, _, images = _frozen_artifact_setup(cfg, act_bits=bits)
            assert session.activation_mode == "integer"
            return session, images

        return BenchCase(f"act{bits}_session_resnet20", act_setup, session_fn,
                         float(cfg["batch"]), "image")

    def eval_stack_setup():
        from repro.autograd.tensor import Tensor, no_grad

        _, float_model, images = _frozen_artifact_setup(cfg)

        def step():
            with no_grad():
                return float_model(Tensor(images)).data

        return step

    def eval_stack_fn(step):
        return step()

    def csq_eval_setup():
        from repro.autograd.tensor import Tensor, no_grad

        _, csq_model, images = _frozen_artifact_setup(cfg, keep_csq_model=True)

        def step():
            with no_grad():
                return csq_model(Tensor(images)).data

        return step

    def csq_eval_fn(step):
        return step()

    def mobilenet_session_setup():
        session, _, images = _mobilenet_artifact_setup(cfg)
        return session, images

    def mobilenet_eval_setup():
        from repro.autograd.tensor import Tensor, no_grad

        _, float_model, images = _mobilenet_artifact_setup(cfg)

        def step():
            with no_grad():
                return float_model(Tensor(images)).data

        return step

    images_per_call = float(cfg["batch"])
    return [
        BenchCase("session_resnet20_batched", session_setup, session_fn,
                  images_per_call, "image"),
        make_act_case(4),
        make_act_case(8),
        BenchCase("eval_stack_resnet20_batched", eval_stack_setup, eval_stack_fn,
                  images_per_call, "image"),
        BenchCase("eval_stack_csq_frozen", csq_eval_setup, csq_eval_fn,
                  images_per_call, "image"),
        BenchCase("session_mobilenet_batched", mobilenet_session_setup, session_fn,
                  images_per_call, "image"),
        BenchCase("eval_stack_mobilenet_batched", mobilenet_eval_setup, eval_stack_fn,
                  images_per_call, "image"),
    ]


@register_suite("serve")
def build_serve_suite(scale: str) -> List[BenchCase]:
    if scale not in _INFER_SCALES:
        raise KeyError(f"Unknown perf scale {scale!r}; choose from {sorted(_INFER_SCALES)}")
    cfg = _INFER_SCALES[scale]

    def single_stream_setup():
        from repro.deploy import Server

        session, _, images = _frozen_artifact_setup(cfg)
        server = Server(session, max_batch=cfg["batch"], max_wait_ms=0.0)
        server.start()
        return server, images[0]

    def single_stream_fn(state):
        server, example = state
        return server.predict(example)

    def single_stream_teardown(state):
        state[0].stop()

    def make_concurrent_case(name: str, max_batch: int, act_bits: int = 32) -> BenchCase:
        def concurrent_setup():
            from concurrent.futures import ThreadPoolExecutor

            from repro.deploy import Server

            session, _, images = _frozen_artifact_setup(cfg, act_bits=act_bits)
            server = Server(session, max_batch=max_batch, max_wait_ms=2.0)
            server.start()
            pool = ThreadPoolExecutor(max_workers=cfg["clients"])
            examples = [images[i % len(images)] for i in range(cfg["requests"])]

            def burst():
                return list(pool.map(server.predict, examples))

            return burst, server, pool

        def concurrent_fn(state):
            return state[0]()

        def concurrent_teardown(state):
            _, server, pool = state
            pool.shutdown(wait=True)
            server.stop()

        return BenchCase(name, concurrent_setup, concurrent_fn,
                         float(cfg["requests"]), "request", teardown=concurrent_teardown)

    # Small micro-batches plus a real wait window: the batching regime of a
    # lightly loaded server, next to the full-batch burst above.
    micro_batch = max(2, cfg["batch"] // 8)
    return [
        BenchCase("server_single_stream", single_stream_setup, single_stream_fn,
                  1.0, "request", teardown=single_stream_teardown),
        make_concurrent_case("server_concurrent_burst", cfg["batch"]),
        # A-Bits sweep of the burst case: integer-activation sessions behind
        # the same server knobs (the plain burst is the act_bits=32 member).
        make_concurrent_case("server_concurrent_burst_act4", cfg["batch"], act_bits=4),
        make_concurrent_case("server_concurrent_burst_act8", cfg["batch"], act_bits=8),
        make_concurrent_case("server_microbatch_w1", micro_batch),
    ]
