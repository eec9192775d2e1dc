"""The benchmark's four workloads, driven through the library's public API.

Every workload has the same shape:

* ``__init__`` makes the inputs from the seed (untimed: they stand in for
  data a user already has);
* ``setup`` is what a user pays before the first useful result (data
  generation and CSQ conversion; or export, save, load, compile and a
  warm-up batch).  It is repeated and its median reported as ``setup_s``;
* ``run`` is the timed region.  With a :class:`~perfbench.trace.Tracer`
  and the traced pass's :class:`~contextlib.ExitStack` it also wraps its
  own instances (the model's ``forward``, each session's ``run``);
* ``check`` verifies the outputs outside the timed region.  Checks take the
  outputs as plain arrays so the self-test can perturb them.

``run`` returns a :class:`RunResult` whose ``e2e`` values are the
end-to-end metrics and whose ``layer`` values are per-layer readings that
do not come from spans (server statistics, generator lateness, quality).
"""

from __future__ import annotations

import os
import re
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.openloop import RungResult, arrival_offsets, quantile, run_rung, segments
from perfbench.trace import timed, wrap

#: Parity tolerance between a served result and its reference (max |diff|).
PARITY_TOL = 1e-5
#: Serving SLO for ``serve.max_rps_at_slo``: p95 latency from the due
#: time, in ms.  p95 is the highest percentile with at least ten samples
#: beyond it at every rung (375 requests at 100 req/s).
SLO_MS = 25.0
SLO_QUANTILE = 0.95
#: A rung keeps up when it completes at least this share of its offered rate.
MIN_ACHIEVED = 0.95

SIZES = {
    # Sized on a 2-core x86 host so each timed region takes ~15 s.
    "full": {
        "train_size": 1000, "test_size": 500, "epochs": 12, "finetune_epochs": 3,
        "eval_images": 512, "rung_seconds": None, "warmup_requests": 64,
    },
    # The self-test's minimal size: every code path, seconds in total.
    "tiny": {
        "train_size": 100, "test_size": 50, "epochs": 1, "finetune_epochs": 1,
        "eval_images": 64, "rung_seconds": 0.3, "warmup_requests": 8,
    },
}

IMAGE_SIZE = 12
RESNET_KWARGS = {"num_classes": 10, "width_mult": 0.2}
STEP_KINDS = (
    "conv", "linear", "affine", "relu", "maxpool", "avgpool", "global_avgpool",
    "flatten", "residual", "tokens", "mean_tokens", "attention", "token_mix",
    "channel_mix",
)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class RunResult:
    #: Wall time of the timed region (the ledger's end-to-end time).
    run_s: float
    #: Time the measured work took, which the tracing overhead compares:
    #: ``run_s``, except on serve_* where the open-loop schedule fixes the
    #: run time and this is the time spent inside ``session.run``.
    work_s: float
    #: Operations attempted / failed inside the timed region.
    attempted: int
    failed: int
    #: End-to-end metric name -> (value, sample count).
    e2e: Dict[str, Tuple[float, int]]
    #: Per-layer readings that do not come from spans.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Readable lines for the summary (one per ladder rung).
    notes: List[str] = field(default_factory=list)
    #: Outputs the checks compare (arrays keyed by what they are).
    outputs: Dict[str, object] = field(default_factory=dict)


def max_abs_diff(got: np.ndarray, want: np.ndarray) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return float("inf")
    return float(np.max(np.abs(got - want))) if got.size else 0.0


def parity_tol(want) -> float:
    """``PARITY_TOL``, scaled up for logits larger than 1 in magnitude.

    float32 keeps about seven significant digits, so two evaluation orders
    of a trained model whose logits reach 30 differ by a few 1e-6 per
    logit: an absolute 1e-5 would flag rounding, not a wrong result.
    """
    scale = float(np.max(np.abs(want))) if np.size(want) else 0.0
    return PARITY_TOL * max(1.0, scale)


def parity_check(name: str, got: np.ndarray, want: np.ndarray) -> Check:
    diff, tol = max_abs_diff(got, want), parity_tol(want)
    return Check(name, diff <= tol, f"max|diff|={diff:.3g} (tol {tol:.3g})")


def latency_readings(latencies_ms: List[float], what: str) -> Tuple[Dict[str, float], str]:
    """Median and p95 latency as per-layer readings, and a note with the sample count."""
    p50, p95 = quantile(latencies_ms, 0.50), quantile(latencies_ms, SLO_QUANTILE)
    note = f"{what} latency p50 {p50:.3f} ms, p95 {p95:.3f} ms (n={len(latencies_ms)})"
    return {"latency_p50_ms": p50, "latency_p95_ms": p95}, note


def median_rate(work: float, durations_s: List[float]) -> Tuple[float, int]:
    """Work per second of the median interval: a burst of host noise that
    slows a few intervals does not move it."""
    return work / float(np.median(durations_s)), len(durations_s)


def frozen_logits(model, images: np.ndarray, batch: int = 128) -> np.ndarray:
    """Eval-graph logits of a frozen model (the reference a session must match)."""
    from repro.autograd.tensor import Tensor, no_grad

    model.eval()
    with no_grad():
        return np.concatenate(
            [model(Tensor(images[i:i + batch])).data for i in range(0, len(images), batch)]
        )


def step_kind(describe: str) -> str:
    """``conv[layer1.0.conv1]+aq4+int8`` -> ``conv``; unknown kinds -> ``other``."""
    kind = re.match(r"[a-z_]*", describe).group().rstrip("_")
    return kind if kind in STEP_KINDS else "other"


class SessionProbe:
    """Wraps ``session.run`` for a traced pass: span, rows per call, step kinds.

    Per-step times come from the session's own profiler
    (``InferenceSession.set_profiling``), which resolves top-level plan
    steps only: a residual block is one ``residual`` row.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.calls = 0
        self.rows = 0
        self.kind_ms: Dict[str, float] = {}
        self.kernels: Dict[str, int] = {}

    def attach(self, stack: ExitStack, session) -> None:
        session.set_profiling(True)
        wrap(stack, session, "run", self._make(session))

    def _make(self, session):
        def make(run):
            def traced_run(x):
                with self.tracer.span("deploy.session.run"):
                    out = run(x)
                self.calls += 1
                self.rows += len(x)
                for entry in session.last_profile:
                    kind = step_kind(entry["describe"])
                    self.kind_ms[kind] = self.kind_ms.get(kind, 0.0) + entry["ms"]
                    for tag in entry["kernels"].values():
                        self.kernels[tag] = self.kernels.get(tag, 0) + 1
                return out

            return traced_run

        return make

    def kernel_note(self) -> str:
        tags = ", ".join(f"{tag} x{count}" for tag, count in sorted(self.kernels.items()))
        return f"kernel tags over profiled steps: {tags or 'none'}"

    def readings(self) -> Dict[str, float]:
        layer = {"deploy.session.rows_per_call": self.rows / self.calls if self.calls else 0.0}
        for kind in STEP_KINDS + ("other",):
            layer[f"deploy.step.{kind}_ms"] = self.kind_ms.get(kind, 0.0)
        return layer


class Workload:
    """Base: a workload whose set-up state needs no release."""

    name = ""

    def teardown(self, state) -> None:
        pass


# ---------------------------------------------------------------------------
# csq_search
# ---------------------------------------------------------------------------
class CSQSearch(Workload):
    """Algorithm 1 plus finetuning on CSQ resnet20, checkpointing every epoch."""

    name = "csq_search"

    def __init__(self, seed: int, size: str, workdir: str, seconds: float) -> None:
        self.seed = seed
        self.size = SIZES[size]
        self.workdir = workdir

    def config(self):
        from repro.csq.trainer import CSQConfig

        return CSQConfig(
            epochs=self.size["epochs"],
            finetune_epochs=self.size["finetune_epochs"],
            lr=0.03,
            rep_lr_scale=4.0,
            mask_lr_scale=0.5,
            weight_decay=0.0,
            target_bits=3.0,
        )

    def setup(self, tracer):
        from repro.csq.trainer import CSQTrainer
        from repro.data.dataloader import DataLoader
        from repro.data.synthetic import SyntheticConfig, SyntheticImageClassification
        from repro.models import create_model
        from repro.utils import seed_everything

        data_config = SyntheticConfig(
            num_classes=10, image_size=IMAGE_SIZE, train_size=self.size["train_size"],
            test_size=self.size["test_size"], noise=0.5, seed=self.seed,
        )
        with tracer.span("data.generate"):
            train = SyntheticImageClassification(data_config, train=True)
            test = SyntheticImageClassification(data_config, train=False)
        seed_everything(self.seed)
        with tracer.span("csq.convert"):
            model = create_model("resnet20", **RESNET_KWARGS)
            trainer = CSQTrainer(
                model,
                DataLoader(train, batch_size=50, shuffle=True, seed=self.seed),
                DataLoader(test, batch_size=100),
                self.config(),
                checkpoint_dir=tempfile.mkdtemp(prefix="ckpt-", dir=self.workdir),
                resume="never",
                keep=2,
            )
        return {"trainer": trainer, "test": test, "images": len(train)}

    def run(self, state, tracer, stack: Optional[ExitStack]) -> RunResult:
        import repro.csq.trainer as trainer_module

        trainer = state["trainer"]
        step_ms: List[float] = []
        batches = trainer_module.iter_batches

        def timed_batches(loader, prefetch):
            # A step runs from asking for its batch to asking for the next.
            iterator = iter(batches(loader, prefetch))
            while True:
                started = time.perf_counter()
                with tracer.span("data.wait"):
                    batch = next(iterator, None)
                if batch is None:
                    return
                yield batch
                step_ms.append(1e3 * (time.perf_counter() - started))

        with ExitStack() as own:
            wrap(own, trainer_module, "iter_batches", lambda _: timed_batches)
            if stack is not None:
                wrap(stack, trainer.model, "forward",
                     timed(tracer, "nn.forward", skip_inside="training.evaluate"))
            started = time.perf_counter()
            trainer.train()
            search_s = time.perf_counter() - started

        # The whole search: CSQ and finetune epochs with their evaluations
        # and checkpoints, and the freezes between and after the phases.
        epochs = trainer.config.epochs + trainer.config.finetune_epochs
        layer, note = latency_readings(step_ms, "training step")
        layer["csq.search_s"] = search_s
        return RunResult(
            run_s=search_s, work_s=search_s, attempted=len(step_ms), failed=0,
            e2e={"throughput_per_s": (epochs * state["images"] / search_s, epochs)},
            layer=layer, notes=[note],
        )

    def finish(self, state, result: RunResult) -> None:
        """Export the found scheme and collect what the checks compare."""
        from repro.deploy import InferenceSession, load_artifact, save_artifact

        trainer = state["trainer"]
        images = state["test"].as_arrays()[0]
        path = os.path.join(self.workdir, "searched.npz")
        artifact = save_artifact(trainer.model, path, arch="resnet20", arch_kwargs=RESNET_KWARGS)
        session = InferenceSession(load_artifact(path))
        bits = trainer.average_precision()
        result.outputs.update(
            precisions=trainer.layer_precisions(),
            num_bits=trainer.config.num_bits,
            served=session.run(images),
            reference=frozen_logits(trainer.model, images),
        )
        result.layer.update({
            "csq.test_acc": trainer.evaluate()["accuracy"],
            "csq.avg_bits": bits,
            "csq.budget_gap_bits": abs(bits - trainer.config.target_bits),
            "deploy.artifact_kib": artifact.packed_payload_bits() / 8 / 1024,
        })

    @staticmethod
    def check(outputs) -> List[Check]:
        precisions = outputs["precisions"]
        bad = {
            name: p for name, p in precisions.items()
            if not (float(p).is_integer() and 0 <= p <= outputs["num_bits"])
        }
        return [
            Check(
                "layer precisions are integers in [0, num_bits]", not bad and bool(precisions),
                f"{len(precisions)} layers, out of range: {bad}",
            ),
            parity_check("searched model serves like the frozen model",
                         outputs["served"], outputs["reference"]),
        ]


# ---------------------------------------------------------------------------
# Shared by offline_eval and the serve workloads
# ---------------------------------------------------------------------------
#: (label, scheme, arch, arch kwargs, activation bits)
EVAL_MODELS = (
    ("resnet20_act4", "csq", "resnet20", RESNET_KWARGS, 4),
    ("mobilenet_tiny", "csq", "mobilenet_tiny", {"num_classes": 10}, 32),
    ("tiny_attention_lqnets", "lqnets", "tiny_attention", {"num_classes": 10}, 32),
)


def build_frozen(spec, seed: int):
    from repro.deploy.testing import frozen_scheme_model

    _, scheme, arch, kwargs, act_bits = spec
    return frozen_scheme_model(
        scheme, arch, seed=seed, act_bits=act_bits,
        calibration_shape=(8, 3, IMAGE_SIZE, IMAGE_SIZE), **kwargs,
    )


def deploy(spec, model, workdir: str, tracer):
    """Export + save, load and compile one frozen model; returns the session."""
    from repro.deploy import InferenceSession, load_artifact, save_artifact

    label, _, arch, kwargs, _ = spec
    path = os.path.join(workdir, f"{label}.npz")
    with tracer.span("deploy.artifact.save"):
        saved = save_artifact(model, path, arch=arch, arch_kwargs=kwargs)
    with tracer.span("deploy.artifact.load"):
        artifact = load_artifact(path)
    with tracer.span("deploy.session.compile"):
        session = InferenceSession(artifact)
    return session, saved.packed_payload_bits() / 8 / 1024


# ---------------------------------------------------------------------------
# offline_eval
# ---------------------------------------------------------------------------
class OfflineEval(Workload):
    """Three frozen artifacts evaluated in batches of 64 by ``InferenceSession``."""

    name = "offline_eval"
    batch = 64

    def __init__(self, seed: int, size: str, workdir: str, seconds: float) -> None:
        from repro.data.synthetic import SyntheticConfig, SyntheticImageClassification

        self.workdir = workdir
        self.seconds = seconds
        self.models = [(spec, build_frozen(spec, seed)) for spec in EVAL_MODELS]
        config = SyntheticConfig(
            num_classes=10, image_size=IMAGE_SIZE, train_size=1,
            test_size=SIZES[size]["eval_images"], noise=0.5, seed=seed,
        )
        self.images, self.labels = SyntheticImageClassification(config, train=False).as_arrays()
        #: Passes over the test set made by the untraced run; the traced run
        #: repeats exactly that much work so the two times compare.
        self.passes: Optional[int] = None

    def setup(self, tracer):
        sessions = []
        kib = 0.0
        for spec, model in self.models:
            session, packed_kib = deploy(spec, model, self.workdir, tracer)
            session.run(self.images[:self.batch])  # warm-up: buffers and lazy codes
            sessions.append((spec[0], session))
            kib += packed_kib
        return {"sessions": sessions, "kib": kib}

    def run(self, state, tracer, stack: Optional[ExitStack]) -> RunResult:
        sessions = state["sessions"]
        probe = None
        if stack is not None:
            probe = SessionProbe(tracer)
            for _, session in sessions:
                probe.attach(stack, session)
        batches = [self.images[i:i + self.batch] for i in range(0, len(self.images), self.batch)]
        latencies: List[float] = []
        passes_s: List[float] = []
        started = time.perf_counter()
        deadline = started + self.seconds
        while (len(passes_s) < self.passes) if self.passes is not None else (
            time.perf_counter() < deadline
        ):
            pass_started = time.perf_counter()
            for _, session in sessions:
                for images in batches:
                    t0 = time.perf_counter()
                    session.run(images)
                    latencies.append(1e3 * (time.perf_counter() - t0))
            passes_s.append(time.perf_counter() - pass_started)
        run_s = time.perf_counter() - started
        if self.passes is None:
            self.passes = len(passes_s)
        e2e = {"throughput_per_s": median_rate(len(sessions) * len(self.images), passes_s)}
        layer, note = latency_readings(latencies, f"session.run of {self.batch} images")
        layer["deploy.artifact_kib"] = state["kib"]
        notes = [note]
        if probe is not None:
            layer.update(probe.readings())
            notes.append(probe.kernel_note())
        return RunResult(run_s=run_s, work_s=run_s, attempted=len(latencies), failed=0, e2e=e2e,
                         layer=layer, notes=notes)

    def finish(self, state, result: RunResult) -> None:
        for (label, session), (_, model) in zip(state["sessions"], self.models):
            result.outputs[label] = {
                "served": session.run(self.images),
                "reference": frozen_logits(model, self.images),
                "labels": self.labels,
            }

    @staticmethod
    def check(outputs) -> List[Check]:
        checks = []
        for label, out in outputs.items():
            checks.append(parity_check(f"{label} session matches its eval graph",
                                       out["served"], out["reference"]))
            served_acc = float(np.mean(np.argmax(out["served"], -1) == out["labels"]))
            ref_acc = float(np.mean(np.argmax(out["reference"], -1) == out["labels"]))
            checks.append(Check(f"{label} accuracy identical", served_acc == ref_acc,
                                f"served {served_acc:.4f} vs eval graph {ref_acc:.4f}"))
        return checks


# ---------------------------------------------------------------------------
# serve_steady / serve_mixed
# ---------------------------------------------------------------------------
class Serve(Workload):
    """Open-loop Poisson ladder against ``Server(workers=1)`` on resnet20 act4.

    The last rung of each ladder offers well above the server's capacity,
    so its achieved rate (completions over first due time to last
    completion) is the capacity itself: ``throughput_per_s``.
    """

    name = "serve"
    ladder: Tuple[float, ...] = ()
    mixed = False
    MAX_BATCH = 8
    #: Every ``SAMPLE_EVERY``-th request's response is kept for the parity check.
    SAMPLE_EVERY = 25
    #: Each rung is sent as this many segments, interleaved with the other
    #: rungs' in ladder order, so each rate is sampled across the whole run.
    SEGMENTS = 3

    def __init__(self, seed: int, size: str, workdir: str, seconds: float) -> None:
        self.workdir = workdir
        self.size = SIZES[size]
        self.spec = EVAL_MODELS[0]
        self.model = build_frozen(self.spec, seed)
        rung_s = self.size["rung_seconds"] or seconds / len(self.ladder)
        rng = np.random.default_rng(seed)
        #: Per rung: (rate, inputs); ``plan`` lists the segments in send order.
        self.schedule = []
        rung_segments = []
        for rate in self.ladder:
            offsets = arrival_offsets(rng, rate, rung_s)
            self.schedule.append((rate, self.make_inputs(rng, len(offsets))))
            rung_segments.append(list(segments(offsets, rung_s, self.SEGMENTS)))
        self.plan = [
            (rung, *parts[part])
            for part in range(self.SEGMENTS)
            for rung, parts in enumerate(rung_segments)
            if len(parts[part][0])
        ]
        self.warmup = self.make_inputs(rng, self.size["warmup_requests"])

    def make_inputs(self, rng: np.random.Generator, count: int) -> List[np.ndarray]:
        inputs: List[np.ndarray] = []
        for index in range(count):
            size = 16 if self.mixed and index % 2 else IMAGE_SIZE
            if self.mixed and index >= 32 and rng.random() < 1 / 3:
                # Repeat a recent input of the same size: the LRU cache's case.
                inputs.append(inputs[index - 2 * int(rng.integers(1, 16))])
            else:
                inputs.append(rng.standard_normal((3, size, size)).astype(np.float32))
        return inputs

    def setup(self, tracer):
        from repro.deploy import Server

        session, kib = deploy(self.spec, self.model, self.workdir, tracer)
        # Warm the session at every batch size the server can form, directly:
        # through the server, the warm-up time would be mostly thread
        # wake-ups, which swing with the host's load from run to run.
        by_shape: Dict[Tuple[int, ...], List[np.ndarray]] = {}
        for x in self.warmup:
            by_shape.setdefault(x.shape, []).append(x)
        for inputs in by_shape.values():
            for rows in range(1, self.MAX_BATCH + 1):
                session.run(np.stack(inputs[:rows]))
        server = Server(session, max_batch=self.MAX_BATCH, max_wait_ms=2.0, cache_size=256,
                        workers=1)
        with tracer.span("deploy.server.start"):
            server.start()
        return {"server": server, "session": session, "kib": kib}

    def teardown(self, state) -> None:
        state["server"].stop()

    def run(self, state, tracer, stack: Optional[ExitStack]) -> RunResult:
        server, session = state["server"], state["session"]
        probe = None
        if stack is not None:
            probe = SessionProbe(tracer)
            probe.attach(stack, session)
        server.stats.reset()
        parts: List[List[RungResult]] = [[] for _ in self.schedule]
        busy_s: List[float] = []

        def busy(run):
            # Outermost wrapper, so a traced pass's spans count as busy time.
            def timed_run(x):
                t0 = time.perf_counter()
                try:
                    return run(x)
                finally:
                    busy_s.append(time.perf_counter() - t0)

            return timed_run

        with ExitStack() as own:
            wrap(own, session, "run", busy)
            started = time.perf_counter()
            for rung, indices, offsets in self.plan:
                rate, inputs = self.schedule[rung]
                parts[rung].append(
                    run_rung(server, inputs, indices, offsets, rate, self.SAMPLE_EVERY))
            run_s = time.perf_counter() - started
            stats = server.stats.snapshot()
            server.stop()
        rungs = [RungResult.merge(p) for p in parts]

        meets = [r.meets_slo(SLO_MS, SLO_QUANTILE, MIN_ACHIEVED) for r in rungs]
        passing = [r for r, ok in zip(rungs, meets) if ok]
        low, high, overload = rungs[0], rungs[-2], rungs[-1]
        e2e = {"throughput_per_s": (overload.achieved_rps, overload.sent - overload.failed)}
        late = [ms for r in rungs for ms in r.late_ms]
        layer, _ = latency_readings(low.latencies_ms, "lowest rung")
        layer.update({
            "serve.max_rps_at_slo": passing[-1].achieved_rps if passing else 0.0,
            "serve.latency_p50_ms.high": high.p(0.50),
            "serve.latency_p95_ms.high": high.p(SLO_QUANTILE),
            "deploy.server.queue_wait_p50_ms": stats.get("queue_wait_p50_ms", 0.0),
            "deploy.server.queue_wait_p99_ms": stats.get("queue_wait_p99_ms", 0.0),
            "deploy.server.service_p99_ms": stats.get("service_p99_ms", 0.0),
            "deploy.server.mean_batch": stats["mean_batch_size"],
            "deploy.server.cache_hit_rate": stats["cache_hit_rate"],
            "deploy.server.rejected": stats["rejected"],
            "deploy.server.expired": stats["expired"],
            "loadgen.sent": float(len(late)),
            "loadgen.late_ms_p50": quantile(late, 0.50),
            "loadgen.late_ms_p99": quantile(late, 0.99),
            "deploy.artifact_kib": state["kib"],
        })
        notes = [
            f"rung {r.rate:g} req/s: sent {r.sent}, failed {r.failed}, "
            f"p50 {r.p(0.50):.2f} ms, p95 {r.p(SLO_QUANTILE):.2f} ms, "
            f"achieved {r.achieved_rps:.1f} req/s, "
            f"{'meets' if ok else 'misses'} the SLO"
            for r, ok in zip(rungs, meets)
        ]
        if probe is not None:
            layer.update(probe.readings())
            notes.append(probe.kernel_note())
        samples = {
            (rung_index, index): response
            for rung_index, rung in enumerate(rungs)
            for index, response in rung.samples.items()
        }
        return RunResult(
            run_s=run_s,
            work_s=sum(busy_s),
            attempted=sum(r.sent for r in rungs),
            failed=sum(r.failed for r in rungs),
            e2e=e2e,
            layer=layer,
            notes=notes,
            outputs={"samples": samples},
        )

    def finish(self, state, result: RunResult) -> None:
        session = state["session"]
        samples = result.outputs.pop("samples")
        served, reference = [], []
        for (rung_index, index), response in sorted(samples.items(), key=lambda kv: kv[0]):
            x = self.schedule[rung_index][1][index]
            served.append(response)
            reference.append(session.run(x[None])[0])
        result.outputs.update(served=served, reference=reference)

    @staticmethod
    def check(outputs) -> List[Check]:
        served, reference = outputs["served"], outputs["reference"]
        # Worst ratio of a sample's difference to its own tolerance.
        worst = max((max_abs_diff(s, r) / parity_tol(r) for s, r in zip(served, reference)),
                    default=float("inf"))
        return [Check(
            "sampled responses match session.run", bool(served) and worst <= 1.0,
            f"{len(served)} samples, worst max|diff| = {worst:.3g} x tol",
        )]


class ServeSteady(Serve):
    """Unique 12x12 inputs: batching coalesces, the cache never hits."""

    name = "serve_steady"
    #: Capacity read 1,600-2,500 req/s on a 2-core x86 host, with its load.
    ladder = (100.0, 300.0, 600.0, 4000.0)


class ServeMixed(Serve):
    """12x12 and 16x16 alternate and a third repeat: the solo and cache paths."""

    name = "serve_mixed"
    #: Capacity read 470-660 req/s on a 2-core x86 host; the top rung leaves
    #: room for a batching-by-shape fix to show.
    ladder = (100.0, 200.0, 300.0, 1500.0)
    mixed = True


WORKLOADS = {w.name: w for w in (CSQSearch, OfflineEval, ServeSteady, ServeMixed)}
