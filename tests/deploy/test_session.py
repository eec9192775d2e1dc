"""InferenceSession round-trip parity with the training-stack eval path."""

import sys
import threading

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, no_grad
from repro.csq.convert import materialize_quantized
from repro.deploy import InferenceSession, load_artifact, save_artifact
from repro.deploy.plan import PlanError, compile_plan
from repro.deploy.testing import frozen_scheme_model
from tests.deploy.conftest import frozen_mixed_model

# (arch, arch_kwargs, input shape) — every model family the registry serves.
_CASES = [
    ("resnet20", {"num_classes": 10, "width_mult": 0.25}, (4, 3, 12, 12)),
    ("vgg11_bn", {"num_classes": 10, "width_mult": 0.125}, (2, 3, 32, 32)),
    ("resnet18", {"num_classes": 10, "width_mult": 0.125, "small_input": True}, (2, 3, 16, 16)),
    ("resnet50", {"num_classes": 10, "width_mult": 0.125, "small_input": True}, (2, 3, 16, 16)),
    ("simple_convnet", {"num_classes": 10, "width": 8}, (4, 3, 10, 10)),
    ("tiny_mlp", {}, (4, 16)),
]


def _session_and_reference(arch, arch_kwargs, artifact_path, precisions=(2, 3, 4, 5, 8)):
    model = frozen_mixed_model(arch, precisions=precisions, **arch_kwargs)
    save_artifact(model, artifact_path, arch=arch, arch_kwargs=arch_kwargs)
    session = InferenceSession(load_artifact(artifact_path))
    reference = materialize_quantized(model)
    reference.eval()
    return session, reference


@pytest.mark.parametrize("arch,arch_kwargs,shape", _CASES,
                         ids=[case[0] for case in _CASES])
def test_session_matches_materialized_logits(arch, arch_kwargs, shape, artifact_path, rng):
    """state_dict → artifact → session reproduces the float path within 1e-5."""
    session, reference = _session_and_reference(arch, arch_kwargs, artifact_path)
    x = rng.standard_normal(shape).astype(np.float32)
    got = session.run(x)
    with no_grad():
        want = reference(Tensor(x)).data
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, atol=1e-5, rtol=1e-5)


def test_session_from_path(artifact_path, rng):
    model = frozen_mixed_model("simple_convnet", num_classes=10, width=8)
    save_artifact(model, artifact_path, arch="simple_convnet",
                  arch_kwargs={"num_classes": 10, "width": 8})
    session = InferenceSession(artifact_path)  # load directly from disk
    x = rng.standard_normal((2, 3, 10, 10)).astype(np.float32)
    assert session.run(x).shape == (2, 10)


def test_batch_invariance(artifact_path, rng):
    """Row i of a batched run equals the single-example run of row i."""
    session, _ = _session_and_reference(
        "resnet20", {"num_classes": 10, "width_mult": 0.25}, artifact_path
    )
    x = rng.standard_normal((5, 3, 12, 12)).astype(np.float32)
    batched = session.run(x)
    for i in range(len(x)):
        single = session.run(x[i:i + 1])
        np.testing.assert_allclose(single[0], batched[i], atol=1e-5, rtol=1e-5)


def test_predict_and_evaluate(artifact_path, rng):
    session, reference = _session_and_reference(
        "simple_convnet", {"num_classes": 10, "width": 8}, artifact_path
    )
    x = rng.standard_normal((6, 3, 10, 10)).astype(np.float32)
    with no_grad():
        want = reference(Tensor(x)).data.argmax(axis=-1)
    np.testing.assert_array_equal(session.predict(x), want)
    labels = want.copy()
    labels[0] = (labels[0] + 1) % 10  # force one miss
    metrics = session.evaluate([(x, labels)])
    assert metrics["accuracy"] == pytest.approx(5 / 6)


def test_session_counts_work(artifact_path, rng):
    session, _ = _session_and_reference(
        "tiny_mlp", {}, artifact_path, precisions=(3,)
    )
    session.run(rng.standard_normal((4, 16)).astype(np.float32))
    session.run(rng.standard_normal((2, 16)).astype(np.float32))
    assert session.stats == {"calls": 2, "examples": 6}


# (scheme, arch, arch_kwargs, act_bits): the three plan families of the
# offline evaluation benchmark — an int8 integer-activation plan, grouped
# GEMMs, and a palette-dequantized (LQ-Nets) attention plan.
_CONCURRENT_CASES = [
    ("csq", "resnet20", {"num_classes": 10, "width_mult": 0.2}, 4),
    ("csq", "mobilenet_tiny", {"num_classes": 10}, 32),
    ("lqnets", "tiny_attention", {"num_classes": 10}, 32),
]


@pytest.mark.parametrize("scheme, arch, arch_kwargs, act_bits", _CONCURRENT_CASES,
                         ids=[case[1] for case in _CONCURRENT_CASES])
def test_concurrent_runs_match_serial_runs(scheme, arch, arch_kwargs, act_bits,
                                           artifact_path, rng):
    """Two threads sharing one session get exactly the serial results."""
    model = frozen_scheme_model(scheme, arch, act_bits=act_bits,
                                calibration_shape=(8, 3, 12, 12), **arch_kwargs)
    save_artifact(model, artifact_path, arch=arch, arch_kwargs=arch_kwargs)
    artifact = load_artifact(artifact_path)
    session = InferenceSession(artifact)
    kernels = set(session.gemm_kernels.values())
    if act_bits < 32:
        assert "int8" in kernels and kernels <= {"int8", "int16"}
    elif arch == "mobilenet_tiny":
        assert "+g" in session.summary()
    else:
        assert session.scheme_id == "lqnets"
    # Different batch sizes per thread: a buffer shared between calls
    # would hand one thread's rows to the other.
    batches = [rng.standard_normal((n, 3, 12, 12)).astype(np.float32) for n in (8, 3)]
    serial = [InferenceSession(artifact).run(x) for x in batches]
    barrier = threading.Barrier(len(batches))
    mismatches = []

    def worker(index):
        barrier.wait()
        for _ in range(50):
            got = session.run(batches[index])
            if got.tobytes() != serial[index].tobytes():
                mismatches.append(index)

    _run_threads([lambda i=i: worker(i) for i in range(len(batches))])
    assert not mismatches
    assert session.stats == {"calls": 100, "examples": 50 * (8 + 3)}


def test_stats_count_every_concurrent_run(artifact_path, rng):
    """More threads than cores, switching often: no call is lost from ``stats``."""
    session, _ = _session_and_reference("tiny_mlp", {}, artifact_path, precisions=(3,))
    x = rng.standard_normal((2, 16)).astype(np.float32)

    def worker():
        for _ in range(200):
            session.run(x)

    _run_threads([worker] * 4)
    assert session.stats == {"calls": 800, "examples": 1600}


def _run_threads(targets, timeout=60.0):
    """Run ``targets`` on concurrent threads with a short switch interval."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target) for target in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_summary_mentions_fused_steps(artifact_path):
    session, _ = _session_and_reference(
        "simple_convnet", {"num_classes": 10, "width": 8}, artifact_path
    )
    summary = session.summary()
    assert "conv[conv1]+bn+relu" in summary  # conv, BN and ReLU fused into one step
    assert "linear[fc]" in summary


def test_activation_quantized_artifact_serves_integer_grid(artifact_path, rng):
    """act_bits < 32 artifacts with ranges compile the integer plan automatically."""
    model = frozen_mixed_model(
        "simple_convnet", act_bits=4, calibration_shape=(4, 3, 10, 10),
        num_classes=10, width=8,
    )
    save_artifact(model, artifact_path, arch="simple_convnet",
                  arch_kwargs={"num_classes": 10, "width": 8})
    session = InferenceSession(artifact_path)  # no escape hatch needed
    assert session.activation_mode == "integer"
    assert "+aq4" in session.summary()
    x = rng.standard_normal((2, 3, 10, 10)).astype(np.float32)
    assert session.run(x).shape == (2, 10)
    # The documented float_activations override still compiles float steps —
    # an explicit divergence from the validated model, never the default.
    override = InferenceSession(artifact_path, float_activations=True)
    assert override.activation_mode == "float"
    assert "+aq" not in override.summary()
    assert override.run(x).shape == (2, 10)


def test_linear_batchnorm1d_folds_correctly(rng):
    """Linear → BatchNorm1d → ReLU compiles to one fused step with correct math."""
    from repro import nn
    from repro.autograd.tensor import Tensor, no_grad

    model = nn.Sequential(nn.Linear(6, 5), nn.BatchNorm1d(5), nn.ReLU())
    bn = model[1]
    bn.running_mean.data = rng.standard_normal(5).astype(np.float32)
    bn.running_var.data = (np.abs(rng.standard_normal(5)) + 0.5).astype(np.float32)
    model.eval()
    steps = compile_plan(model, {})
    assert len(steps) == 1
    assert steps[0].describe() == "linear[0]+bn+relu"
    x = rng.standard_normal((3, 6)).astype(np.float32)
    with no_grad():
        want = model(Tensor(x)).data
    out = x.copy()
    for step in steps:
        out = step(out)
    np.testing.assert_allclose(out, want, atol=1e-5, rtol=1e-5)


def test_unknown_module_raises_plan_error():
    from repro import nn

    class Strange(nn.Module):
        def forward(self, x):  # pragma: no cover - never executed
            return x

    with pytest.raises(PlanError, match="register_plan_handler"):
        compile_plan(Strange(), {})


def test_profiler_off_by_default_and_toggleable(artifact_path, rng):
    session, _ = _session_and_reference(
        "simple_convnet", {"num_classes": 10, "width": 8}, artifact_path
    )
    x = rng.standard_normal((2, 3, 10, 10)).astype(np.float32)
    session.run(x)
    assert not session.profile_enabled
    assert session.last_profile is None

    session.set_profiling(True)
    session.run(x)
    profile = session.last_profile
    assert profile is not None
    assert len(profile) == len(session.plan)
    for entry, step in zip(profile, session.plan):
        assert entry["step"] == step.name
        assert entry["describe"] == step.describe()
        assert entry["ms"] >= 0.0
        assert entry["batch"] == 2
    # Per-entry kernel tags union to exactly the session's GEMM kernel map.
    merged = {}
    for entry in profile:
        merged.update(entry["kernels"])
    assert merged == session.gemm_kernels


def test_profiled_run_matches_unprofiled(artifact_path, rng):
    session, _ = _session_and_reference(
        "simple_convnet", {"num_classes": 10, "width": 8}, artifact_path
    )
    x = rng.standard_normal((3, 3, 10, 10)).astype(np.float32)
    want = session.run(x)
    session.set_profiling(True)
    got = session.run(x)
    assert want.tobytes() == got.tobytes()


def _profile_rows(entries):
    for entry in entries:
        yield entry
        yield from _profile_rows(entry.get("children", []))


def test_profile_names_every_resnet20_conv(artifact_path, rng):
    """Composite entries carry per-sub-step rows: all 21 resnet20 convs show.

    The top level stays one entry per plan step (13 for resnet20, where
    residual blocks hide their convs); each residual entry's ``children``
    list its main and shortcut steps with their own describe line, kernel
    tags and time.
    """
    session, _ = _session_and_reference(
        "resnet20", {"num_classes": 10, "width_mult": 0.25}, artifact_path
    )
    session.set_profiling(True)
    x = rng.standard_normal((2, 3, 12, 12)).astype(np.float32)
    want = session.run(x)
    profile = session.last_profile
    assert len(profile) == len(session.plan) == 13
    convs = {}
    for row in _profile_rows(profile):
        assert row["ms"] >= 0.0
        if row["describe"].startswith("conv["):
            convs[row["step"]] = row
    expected = {name for name, module in session.artifact.build_model().named_modules()
                if type(module).__name__ == "Conv2d"}
    assert len(expected) == 21
    assert set(convs) == expected
    for name, row in convs.items():
        assert row["kernels"] == {name: session.gemm_kernels[name]}
    for entry, step in zip(profile, session.plan):
        if entry["describe"].startswith("residual["):
            children = [child["step"] for child in entry["children"]]
            assert children == [sub.name for sub in step.main + step.shortcut]
            # A block's time covers its sub-steps'.
            assert entry["ms"] >= sum(child["ms"] for child in entry["children"])
        else:
            assert "children" not in entry
    session.set_profiling(False)
    assert session.run(x).tobytes() == want.tobytes()


def test_profile_children_of_attention_and_mixer_blocks(rng, tmp_path):
    """Attention and mixer entries list their nested linears as children."""
    for arch, kwargs in (
        ("tiny_attention", {"num_classes": 5, "dim": 8, "patch_size": 4}),
        ("tiny_mixer", {"num_classes": 5, "dim": 8, "patch_size": 4, "image_size": 8}),
    ):
        model = frozen_scheme_model("csq", arch, seed=3, **kwargs)
        path = str(tmp_path / f"{arch}.npz")
        save_artifact(model, path, arch=arch, arch_kwargs=kwargs)
        session = InferenceSession(path, profile=True)
        session.run(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        composites = [
            (entry, step) for entry, step in zip(session.last_profile, session.plan)
            if "children" in entry
        ]
        assert composites, arch
        for entry, step in composites:
            # Children come in call order, which is the order of ``inner``.
            assert [child["step"] for child in entry["children"]] == [
                sub.name for sub in step.inner
            ]
            assert all(child["kernels"] for child in entry["children"])
