"""Deterministic fault injection for the serving and training tiers
(``REPRO_FAULTS``).

A :class:`FaultPlan` is a seeded, fully reproducible schedule of failures
the :class:`~repro.deploy.server.Server` consults while serving: worker
crashes, slow batches, poisoned executions, and payload bit-flips, each
pinned to a specific *admission index* — the 0-based position of a request
in the order the server admitted it to the queue (cache hits and shed
requests consume no index, so a plan targets exactly the requests that
reach compute).  Every failure path of the resilience layer — restart,
retry, quarantine, shed, deadline expiry — can therefore be exercised by
tests and by the chaos legs of ``scripts/serve_smoke.py`` with the same
failures at the same requests on every run.

The training tier consumes the same plan with its own index space: for
``preempt`` faults the index is the 0-based *global optimizer step*, and
the consumer is the checkpointing training loop
(:mod:`repro.training.checkpoint`), which dies with
:class:`InjectedPreemption` at the matched step — the seeded stand-in for
a spot-instance preemption or an OOM kill that the resume machinery and
``scripts/train_resume_smoke.py`` recover from.

The plan is either built programmatically (chained registration methods)
or parsed from the ``REPRO_FAULTS`` environment knob, which the server
reads once at :meth:`~repro.deploy.server.Server.start`:

    REPRO_FAULTS="seed=0;crash@2;slow@0:150;poison@5;flip@7" python serve.py

Grammar: ``;``-separated tokens, each ``kind@index[+index...][:param]``
or ``seed=N``.  Kinds:

| token | effect at the matched admission index |
|---|---|
| ``crash@i`` | the worker thread that dequeues request ``i`` dies (``InjectedWorkerCrash``); one-shot, so the requeued request is served by the restarted worker |
| ``slow@i:MS`` | the batch containing request ``i`` sleeps ``MS`` milliseconds before executing (default 25) |
| ``poison@i[:TIMES]`` | executing any batch containing request ``i`` raises ``InjectedPoison``; default ``TIMES=-1`` (every attempt — the request ends quarantined), ``TIMES=1`` fails only the first attempt (the solo retry succeeds) |
| ``flip@i[:BIT]`` | one bit of request ``i``'s payload is flipped at admission (default: a seeded mantissa bit, so the corrupted value stays finite) |
| ``preempt@s`` | the training process dies (``InjectedPreemption``) before executing global optimizer step ``s``; consumed by the training loops, ignored by the server |

Like telemetry, fault injection is **zero-cost when off**: with
``REPRO_FAULTS`` unset and no plan passed, the server holds ``None`` and
every hook site is one ``is not None`` check — served outputs stay bitwise
identical to a build without this module.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Environment knob read by ``Server.start()`` via :meth:`FaultPlan.from_env`.
ENV_KNOB = "REPRO_FAULTS"
_FALSE_VALUES = ("", "0", "false", "off", "no")

#: Default flip bits are drawn from the mantissa (bits 0..22 of a float32)
#: so a corrupted payload stays finite — the corruption is bitwise visible
#: end to end without turning the forward pass into NaN propagation.
_MANTISSA_BITS = 23


class InjectedFault(RuntimeError):
    """Base of every deliberately injected failure (never raised unplanned)."""


class InjectedWorkerCrash(InjectedFault):
    """Kills the serving thread that dequeued the matched request."""


class InjectedPoison(InjectedFault):
    """Fails the batch execution containing the matched request."""


class InjectedPreemption(InjectedFault):
    """Kills a training run before the matched global optimizer step.

    Raised by the checkpointing training loops when the plan marks the
    step; deliberately *not* caught by them, so the process dies exactly
    as a real preemption would — between a completed step and the next
    checkpoint.
    """


class FaultPlan:
    """A seeded, thread-safe schedule of injected failures.

    Registration methods chain (``FaultPlan(seed=0).crash_at(2).slow_at(0,
    ms=150)``) and are keyed by admission index.  The consuming hooks
    (``take_crash``/``take_slow``/``check_poison``/``apply_flip``) are
    called by the server with the admitted request's index; each registered
    fault fires its configured number of ``times`` and is then exhausted.
    ``counts()`` reports how many of each kind actually fired — the chaos
    harness asserts the plan was consumed, not just configured.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._lock = threading.Lock()
        self._next_index = 0
        self._crash: Dict[int, int] = {}
        self._slow: Dict[int, Tuple[float, int]] = {}
        self._poison: Dict[int, int] = {}
        self._flip: Dict[int, int] = {}
        self._preempt: Dict[int, int] = {}
        self._injected: Dict[str, int] = {
            "crash": 0, "slow": 0, "poison": 0, "flip": 0, "preempt": 0,
        }

    # ------------------------------------------------------------------
    # Registration (chainable)
    # ------------------------------------------------------------------
    def crash_at(self, *indices: int, times: int = 1) -> "FaultPlan":
        """Kill the worker that dequeues these admission indices."""
        with self._lock:
            for index in indices:
                self._crash[int(index)] = int(times)
        return self

    def slow_at(self, *indices: int, ms: float = 25.0, times: int = 1) -> "FaultPlan":
        """Stall the batch containing these indices for ``ms`` milliseconds."""
        if ms < 0:
            raise ValueError(f"slow fault needs ms >= 0, got {ms}")
        with self._lock:
            for index in indices:
                self._slow[int(index)] = (float(ms), int(times))
        return self

    def poison_at(self, *indices: int, times: int = -1) -> "FaultPlan":
        """Fail any batch execution containing these indices.

        ``times=-1`` (default) poisons every attempt, so the request is
        retried solo, fails again, and ends quarantined; ``times=1`` fails
        only the first attempt, exercising the retry-success path.
        """
        with self._lock:
            for index in indices:
                self._poison[int(index)] = int(times)
        return self

    def flip_at(self, *indices: int, bit: Optional[int] = None) -> "FaultPlan":
        """Flip one payload bit at admission (seeded mantissa bit by default)."""
        with self._lock:
            for index in indices:
                chosen = int(self._rng.integers(_MANTISSA_BITS)) if bit is None else int(bit)
                if not 0 <= chosen < 32:
                    raise ValueError(f"flip bit must be in [0, 32), got {chosen}")
                self._flip[int(index)] = chosen
        return self

    def preempt_at(self, *steps: int, times: int = 1) -> "FaultPlan":
        """Kill the training process before these global optimizer steps.

        Indices here are training-step indices, not admission indices; the
        consuming hook is :meth:`take_preempt`, called by the checkpointing
        training loops once per step.  One-shot by default so that a
        resumed run that replays the same step numbers is not killed
        again when the plan object is reused in process.
        """
        with self._lock:
            for step in steps:
                self._preempt[int(step)] = int(times)
        return self

    # ------------------------------------------------------------------
    # Consumption (called by the server)
    # ------------------------------------------------------------------
    def next_index(self) -> int:
        """Allot the next admission index (called once per admitted request)."""
        with self._lock:
            index = self._next_index
            self._next_index += 1
            return index

    def _take(self, table: Dict[int, int], index: int) -> bool:
        remaining = table.get(index)
        if remaining is None or remaining == 0:
            return False
        if remaining > 0:
            table[index] = remaining - 1
        return True

    def take_crash(self, index: int) -> bool:
        """Whether the worker dequeuing admission ``index`` should die now."""
        with self._lock:
            if self._take(self._crash, index):
                self._injected["crash"] += 1
                return True
            return False

    def take_preempt(self, step: int) -> bool:
        """Whether the training process should die before global ``step``."""
        with self._lock:
            if self._take(self._preempt, step):
                self._injected["preempt"] += 1
                return True
            return False

    def take_slow(self, indices: Sequence[int]) -> float:
        """Total injected stall (ms) for a batch of admission indices."""
        total = 0.0
        with self._lock:
            for index in indices:
                entry = self._slow.get(index)
                if entry is None:
                    continue
                ms, remaining = entry
                if remaining == 0:
                    continue
                if remaining > 0:
                    self._slow[index] = (ms, remaining - 1)
                self._injected["slow"] += 1
                total += ms
        return total

    def check_poison(self, indices: Sequence[int]) -> None:
        """Raise :class:`InjectedPoison` if the batch holds a poisoned index."""
        with self._lock:
            hit: List[int] = [i for i in indices if self._take(self._poison, i)]
            if hit:
                self._injected["poison"] += len(hit)
        if hit:
            raise InjectedPoison(f"injected poison for request(s) {hit}")

    def apply_flip(self, x: np.ndarray, index: int) -> np.ndarray:
        """Return ``x`` with one bit flipped if ``index`` is marked, else ``x``."""
        with self._lock:
            bit = self._flip.pop(index, None)
            if bit is None:
                return x
            self._injected["flip"] += 1
            element = int(self._rng.integers(x.size))
        corrupted = np.ascontiguousarray(x, dtype=np.float32).copy()
        view = corrupted.reshape(-1).view(np.uint32)
        view[element] ^= np.uint32(1 << bit)
        return corrupted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """How many faults of each kind have actually fired so far."""
        with self._lock:
            return dict(self._injected)

    def admitted(self) -> int:
        """How many admission indices have been allotted so far."""
        with self._lock:
            return self._next_index

    def __repr__(self) -> str:
        with self._lock:
            parts = [f"seed={self.seed}"]
            parts += [f"crash@{i}" for i in sorted(self._crash)]
            parts += [f"slow@{i}:{ms:g}" for i, (ms, _) in sorted(self._slow.items())]
            parts += [f"poison@{i}" for i in sorted(self._poison)]
            parts += [f"flip@{i}:{b}" for i, b in sorted(self._flip.items())]
            parts += [f"preempt@{i}" for i in sorted(self._preempt)]
        return f"FaultPlan({';'.join(parts)})"

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from the ``REPRO_FAULTS`` grammar (see module doc)."""
        tokens = [token.strip() for token in spec.split(";") if token.strip()]
        seed = 0
        for token in tokens:
            if token.startswith("seed="):
                try:
                    seed = int(token[len("seed="):])
                except ValueError as error:
                    raise ValueError(f"REPRO_FAULTS: bad seed in {token!r}") from error
        plan = cls(seed=seed)
        for token in tokens:
            if token.startswith("seed="):
                continue
            if "@" not in token:
                raise ValueError(
                    f"REPRO_FAULTS: token {token!r} is not 'kind@index[:param]' "
                    f"(kinds: crash, slow, poison, flip, preempt) or 'seed=N'"
                )
            kind, _, rest = token.partition("@")
            target, _, param = rest.partition(":")
            try:
                indices = [int(part) for part in target.split("+") if part]
            except ValueError as error:
                raise ValueError(f"REPRO_FAULTS: bad index list in {token!r}") from error
            if not indices:
                raise ValueError(f"REPRO_FAULTS: token {token!r} names no index")
            if kind == "crash":
                plan.crash_at(*indices)
            elif kind == "slow":
                ms = 25.0
                if param:
                    try:
                        ms = float(param[:-2] if param.endswith("ms") else param)
                    except ValueError as error:
                        raise ValueError(f"REPRO_FAULTS: bad ms in {token!r}") from error
                plan.slow_at(*indices, ms=ms)
            elif kind == "poison":
                times = -1
                if param:
                    try:
                        times = int(param)
                    except ValueError as error:
                        raise ValueError(f"REPRO_FAULTS: bad times in {token!r}") from error
                plan.poison_at(*indices, times=times)
            elif kind == "flip":
                bit = None
                if param:
                    try:
                        bit = int(param)
                    except ValueError as error:
                        raise ValueError(f"REPRO_FAULTS: bad bit in {token!r}") from error
                plan.flip_at(*indices, bit=bit)
            elif kind == "preempt":
                times = 1
                if param:
                    try:
                        times = int(param)
                    except ValueError as error:
                        raise ValueError(f"REPRO_FAULTS: bad times in {token!r}") from error
                plan.preempt_at(*indices, times=times)
            else:
                raise ValueError(
                    f"REPRO_FAULTS: unknown fault kind {kind!r} in {token!r} "
                    f"(kinds: crash, slow, poison, flip, preempt)"
                )
        return plan

    @classmethod
    def from_env(cls, environ=os.environ) -> Optional["FaultPlan"]:
        """The plan configured via ``REPRO_FAULTS``, or ``None`` when unset."""
        value = environ.get(ENV_KNOB, "").strip()
        if value.lower() in _FALSE_VALUES:
            return None
        return cls.parse(value)
