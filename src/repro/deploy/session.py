"""Autograd-free integer inference runtime.

An :class:`InferenceSession` owns a loaded artifact and a compiled flat
layer plan (see :mod:`repro.deploy.plan`).  ``run`` takes an NCHW (or NF)
float32 batch and returns logits; nothing on the hot path allocates a
``Tensor``, records a graph node, or touches the training stack — the only
per-layer work is (for activation-quantized layers) the snap of the input
onto its integer grid, the conv's input gather (one strided tap view of a
padded channel-major buffer for stride-1 convs at every batch size, or
im2col for strided dense convs and small depthwise ones), one GEMM against
the integer weight matrix, and the folded output affine.

Artifacts whose manifest carries frozen activation clip ranges
(``act_bits < 32``, format version >= 2) compile to the integer-activation
plan automatically: each quantized layer replays the exact training-time
grid ``round(clip(x / r, 0, 1) * (2**a - 1))``, so serving matches the
frozen CSQ model the artifact was validated as — no opt-in needed.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.deploy.artifact import Artifact, ArtifactError, load_artifact
from repro.deploy.plan import (
    CompositeStep,
    Step,
    compile_plan,
    plan_summary,
    step_kernel_tags,
)


class InferenceSession:
    """Executes a deployment artifact in the integer domain.

    Parameters
    ----------
    artifact:
        An :class:`~repro.deploy.artifact.Artifact` or a path to one.
        Codes are unpacked and the plan compiled once, here; ``run`` is
        pure NumPy afterwards.

    float_activations:
        Explicit override: compile the plan with float32 activations even
        when the artifact carries frozen activation ranges.  Served numbers
        then diverge from the validated ``act_bits < 32`` model (activations
        skip their quantization grid), which is occasionally useful to
        isolate how much accuracy the activation grid costs — never the
        default.  The flag is also the only way to load a *version-1*
        artifact of an activation-quantized model: those manifests predate
        the range fields, the grid cannot be reconstructed, and loading one
        without the override raises (re-export the model for faithful
        integer-activation serving).

    profile:
        Opt-in per-step profiler (also :meth:`set_profiling`): ``run``
        times every plan step — wall time plus the compile-time GEMM
        kernel tags, and per sub-step for residual, attention and mixer
        blocks — into :attr:`last_profile`, and records ``plan.step`` trace
        spans when telemetry is on.  Off by default; the unprofiled ``run``
        path is unchanged.

    ``run`` is safe to call from several threads at once: the compiled
    plan is a pure function of its input (every step allocates what it
    writes and only reads its operands), and :attr:`stats` counts every
    call exactly.  With the profiler on, :attr:`last_profile` holds the
    profile of whichever call finished last.
    """

    def __init__(
        self,
        artifact: Union[Artifact, str],
        float_activations: bool = False,
        profile: bool = False,
    ) -> None:
        if not isinstance(artifact, Artifact):
            artifact = load_artifact(artifact)
        self.artifact = artifact
        # Ranged layers serve on their integer activation grid; rangeless
        # act_bits < 32 layers (version-1 manifests) cannot.
        rangeless = sorted(
            name
            for name, rec in artifact.quantized.items()
            if rec.act_bits < 32 and rec.act_range is None
        )
        if rangeless and not float_activations:
            raise ArtifactError(
                f"Artifact layers {rangeless} were trained with quantized "
                f"activations (act_bits < 32) but carry no frozen clip range — "
                f"a format-version-1 manifest predating the activation-range "
                f"fields — so the training-time activation grid cannot be "
                f"replayed and served outputs would differ from the validated "
                f"model.  Re-export the model to a current artifact for "
                f"faithful integer-activation serving, or pass "
                f"float_activations=True to explicitly accept float32 "
                f"activation semantics."
            )
        # The skeleton provides structure and the BatchNorm constants the
        # plan folds; its (dequantized) weights are not used on the hot path.
        skeleton = artifact.build_model()
        weights = {}
        modules = dict(skeleton.named_modules())
        for name, record in artifact.quantized.items():
            weights[id(modules[name])] = record
        self.plan: List[Step] = compile_plan(
            skeleton, weights, float_activations=float_activations
        )
        self._calls = 0
        self._examples = 0
        self._stats_lock = threading.Lock()
        #: Opt-in per-step profiler (see :meth:`set_profiling`): when on,
        #: ``run`` times every plan step and keeps the result in
        #: :attr:`last_profile`; with telemetry enabled it additionally
        #: records one ``plan.step`` trace span per step.
        self.profile_enabled = bool(profile)
        self.last_profile: Optional[List[Dict[str, object]]] = None
        #: ``id(step) -> (describe(), kernel tags)``, filled as steps are
        #: first profiled: a compiled step's labels never change.
        self._profile_labels: Dict[int, Tuple[str, Dict[str, str]]] = {}

    def set_profiling(self, enabled: bool = True) -> None:
        """Toggle the per-step profiler.

        Off (the default) keeps ``run`` on its unchanged hot path; on, each
        plan step is individually timed — wall time plus the compile-time
        kernel tags from :func:`~repro.deploy.plan.step_kernel_tags` — into
        :attr:`last_profile`, and ``plan.step`` spans are emitted when
        telemetry is enabled (``REPRO_TELEMETRY=1``).
        """
        self.profile_enabled = bool(enabled)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def arch(self) -> str:
        return self.artifact.arch

    @property
    def scheme_id(self) -> str:
        return self.artifact.scheme_id

    @property
    def precision_map(self) -> Dict[str, int]:
        return self.artifact.precision_map

    @property
    def activation_mode(self) -> str:
        """``"integer"`` when any plan step quantizes its input, else ``"float"``."""

        def quantizes(steps) -> bool:
            for step in steps:
                if getattr(step, "act_quant", None) is not None:
                    return True
                if hasattr(step, "main") and (
                    quantizes(step.main) or quantizes(step.shortcut)
                ):
                    return True
            return False

        return "integer" if quantizes(self.plan) else "float"

    @property
    def gemm_kernels(self) -> Dict[str, str]:
        """``layer name -> kernel tag`` for every GEMM step of the plan.

        Tags come from the compile-time certification
        (:func:`repro.runtime.intgemm.kernel_tag`): ``int8``/``int16`` where
        the float32 GEMM of integer codes is an exact integer GEMM, ``f32``
        elsewhere.  Integer tags also appear per layer in :meth:`summary`
        (e.g. ``conv[conv1]+aq4+int8+bn+relu``).
        """

        kernels: Dict[str, str] = {}
        for step in self.plan:
            kernels.update(step_kernel_tags(step))
        return kernels

    def summary(self) -> str:
        tags = sorted(set(self.gemm_kernels.values()))
        header = (
            f"InferenceSession(arch={self.arch!r}, scheme={self.scheme_id!r}, "
            f"avg_precision={self.artifact.scheme().average_precision:.2f}, "
            f"steps={len(self.plan)}, activations={self.activation_mode}, "
            f"gemm={'/'.join(tags) if tags else 'none'})"
        )
        return header + "\n" + plan_summary(self.plan)

    @property
    def stats(self) -> Dict[str, int]:
        return {"calls": self._calls, "examples": self._examples}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, x: np.ndarray) -> np.ndarray:
        """Run the plan over a batch; returns the logits as float32."""
        out = np.ascontiguousarray(x, dtype=np.float32)
        batch = out.shape[0]
        if self.profile_enabled:
            out = self._run_steps_profiled(out, batch)
        else:
            for step in self.plan:
                out = step(out)
        with self._stats_lock:
            self._calls += 1
            self._examples += batch
        return np.ascontiguousarray(out)

    def _run_steps_profiled(self, out: np.ndarray, batch: int) -> np.ndarray:
        """The profiled step loop: per-step wall time + kernel tags.

        Each step's timing, :meth:`~repro.deploy.plan.Step.describe` line,
        and GEMM kernel tags land in :attr:`last_profile` (one entry per
        top-level plan step, mirroring :func:`plan_summary` order).  The
        entry of a composite step (a residual, attention or mixer block)
        also carries ``children``: one entry per sub-step it ran, in call
        order, so every conv and linear layer has its own row.  With
        telemetry enabled a ``plan.step`` span is recorded per top-level
        step, nesting under whatever span the caller holds open (the
        server's ``server.batch``).
        """
        handle = obs.telemetry()
        tracer = handle.tracer if handle is not None else None
        profile: List[Dict[str, object]] = []
        for step in self.plan:
            started = time.perf_counter()
            out, entry = _profiled_call(step, out, batch, self._profile_labels)
            ended = time.perf_counter()
            profile.append(entry)
            if tracer is not None:
                tracer.record(
                    "plan.step",
                    started,
                    ended,
                    step=step.name,
                    describe=entry["describe"],
                    kernels=entry["kernels"],
                    batch=batch,
                )
        self.last_profile = profile
        return out

    __call__ = run

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions (argmax over logits) for a batch."""
        return self.run(x).argmax(axis=-1)

    def evaluate(self, loader: Iterable[Tuple[np.ndarray, np.ndarray]]) -> Dict[str, float]:
        """Accuracy over an iterable of ``(images, labels)`` batches."""
        correct = 0
        total = 0
        for images, labels in loader:
            prediction = self.predict(np.asarray(images))
            correct += int((prediction == np.asarray(labels)).sum())
            total += len(labels)
        return {"accuracy": correct / total if total else float("nan")}


def _profiled_call(
    step: Step,
    x: np.ndarray,
    batch: int,
    labels: Dict[int, Tuple[str, Dict[str, str]]],
) -> Tuple[np.ndarray, Dict[str, object]]:
    """Run ``step`` on ``x``, timing it and (for a composite) each sub-step."""
    children: List[Dict[str, object]] = []

    def call(sub_step: Step, value: np.ndarray) -> np.ndarray:
        value, entry = _profiled_call(sub_step, value, batch, labels)
        children.append(entry)
        return value

    composite = isinstance(step, CompositeStep)
    started = time.perf_counter()
    out = step(x, call) if composite else step(x)
    ended = time.perf_counter()
    label = labels.get(id(step))
    if label is None:
        label = labels[id(step)] = (step.describe(), step_kernel_tags(step))
    entry: Dict[str, object] = {
        "step": step.name,
        "describe": label[0],
        "kernels": dict(label[1]),
        "ms": 1e3 * (ended - started),
        "batch": batch,
    }
    if composite:
        entry["children"] = children
    return out, entry
