"""Packed mixed-precision model artifacts (save/load).

An artifact is one ``.npz`` file holding a frozen quantized model (CSQ or
any baseline scheme — see :mod:`repro.deploy.export`) in deployable form:

* ``manifest`` — a JSON document (stored as a uint8 array) with the format
  version, the framework version, the architecture registry id and kwargs,
  the quantization scheme id, the per-layer precision map and dequant
  specs, and the decode parameters of every packed tensor;
* ``q::{layer}`` — bit-packed integer weight codes at the layer's *learned*
  precision (see :mod:`repro.deploy.packing`): a 3-bit layer costs ~3 bits
  per element on disk instead of 32;
* ``bias::{layer}`` — float32 bias of a quantized layer, when present;
* ``floats`` — every remaining float parameter/buffer (BatchNorm scales,
  shifts and running statistics) concatenated into one dense float32 blob;
  per-tensor names/shapes/offsets live in the manifest.  One blob instead
  of one zip member per tensor keeps container overhead from dominating
  small artifacts (deep models carry 3–4 tiny arrays per BN layer).

``load_artifact`` restores an :class:`Artifact` without touching any
training machinery; ``Artifact.build_model`` reconstructs the equivalent
plain float model through the model registry (the fallback path and the
structural skeleton the inference runtime compiles its layer plan from).
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

import repro
from repro import obs
from repro.csq.precision import scheme_from_precision_map
from repro.deploy.export import KNOWN_SCHEMES, export_model_layers
from repro.models.registry import create_model, has_model
from repro.nn.module import Module
from repro.quant.functional import dequantize_with_spec
from repro.quant.scheme import QuantizationScheme
from repro.utils.integrity import atomic_write_bytes, checksum_blobs, corrupt_blobs
from repro.deploy.packing import PackedCodes, pack_codes, unpack_codes

#: Version written by :func:`save_artifact`.  History:
#:
#: * **1** — packed weight codes, per-layer ``act_bits`` (informational only;
#:   the runtime executed activations in float32),
#: * **2** — adds per-layer frozen activation-quantization parameters
#:   (``act_mode``, ``act_range``) so the runtime can serve ``act_bits < 32``
#:   models on the integer activation grid they trained with,
#: * **3** — adds the manifest ``scheme`` id and per-layer ``dequant`` specs
#:   so non-CSQ quantizers (DoReFa's affine grid, LQ-Nets' palette, the STE
#:   baselines, BSQ, mixed-precision PTQ) serve with the dequantization
#:   semantics they trained with.
FORMAT_VERSION = 3
#: Versions :func:`load_artifact` accepts.  Version-1 artifacts carry no
#: activation ranges and load with float activation semantics; version-2
#: artifacts carry no scheme id and load as CSQ (symmetric dequantization).
SUPPORTED_VERSIONS = (1, 2, 3)
_MANIFEST_KEY = "manifest"
_FLOATS_KEY = "floats"
_CODES_PREFIX = "q::"
_BIAS_PREFIX = "bias::"


class ArtifactError(ValueError):
    """Raised when an artifact file is malformed or incompatible."""


class ArtifactCorrupt(ArtifactError):
    """Raised when a stored blob fails its manifest CRC32 integrity check."""


class UnknownSchemeError(ArtifactError):
    """Raised when an artifact names a quantization scheme this build lacks.

    The message names the offending scheme id so operators can tell a
    version skew (artifact from a newer build) from a corrupt manifest.
    """


@dataclass
class QuantizedTensorRecord:
    """One quantized layer restored from an artifact (codes already unpacked)."""

    name: str
    kind: str  #: ``"conv2d"`` or ``"linear"``
    q: np.ndarray  #: int32 codes, weight-shaped
    scale: float
    num_bits: int
    precision: int
    selected_bits: List[int]
    act_bits: int
    config: Dict[str, int]
    bias: Optional[np.ndarray] = None
    packed_bits: int = 0  #: packed width per element this layer used on disk
    act_mode: str = "observer"  #: activation clip convention (``observer``/``pact``)
    act_range: Optional[float] = None  #: frozen activation clip range; None = float
    scheme: str = "csq"  #: quantization scheme id that produced the codes
    #: Dequantization spec for non-symmetric schemes (see
    #: :func:`repro.quant.functional.dequantize_with_spec`); ``None`` keeps
    #: the symmetric linear contract.
    dequant: Optional[Dict[str, object]] = None

    @property
    def dequant_kind(self) -> str:
        """``"symmetric"``, ``"affine"`` or ``"palette"``."""
        return str((self.dequant or {}).get("kind", "symmetric"))

    @property
    def dequant_factor(self) -> float:
        """Scalar mapping codes to float weights: ``w = q * dequant_factor``.

        Only meaningful for symmetric-dequant records — the plan compiler
        folds this factor into the output affine, which an affine offset or
        a palette table cannot express.
        """
        return self.scale / float(2 ** self.num_bits - 1)

    @property
    def dequantized_weight(self) -> np.ndarray:
        return dequantize_with_spec(self.q, self.scale, self.num_bits, self.dequant)


@dataclass
class Artifact:
    """An in-memory deployment artifact."""

    manifest: Dict[str, object]
    quantized: Dict[str, QuantizedTensorRecord]
    floats: Dict[str, np.ndarray]
    file_bytes: int = 0  #: on-disk size; 0 when built in memory

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def arch(self) -> str:
        return str(self.manifest["arch"])

    @property
    def arch_kwargs(self) -> Dict[str, object]:
        return dict(self.manifest.get("arch_kwargs", {}))

    @property
    def precision_map(self) -> Dict[str, int]:
        return {name: rec.precision for name, rec in self.quantized.items()}

    @property
    def scheme_id(self) -> str:
        """Quantization scheme the codes were frozen from (``"csq"``, ...).

        Pre-version-3 artifacts carry no scheme field and are CSQ by
        construction — that was the only scheme the exporter knew.
        """
        return str(self.manifest.get("scheme", "csq"))

    def scheme(self) -> QuantizationScheme:
        """Size accounting of the stored scheme (the paper's Comp(×) rows)."""
        sizes = {name: int(rec.q.size) for name, rec in self.quantized.items()}
        bits = {name: float(rec.precision) for name, rec in self.quantized.items()}
        return scheme_from_precision_map(sizes, bits)

    def packed_payload_bits(self) -> int:
        """Exact bits spent on weight codes (excludes manifest/bias/BN)."""
        return sum(rec.packed_bits * rec.q.size for rec in self.quantized.values())

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def build_model(self) -> Module:
        """Reconstruct the equivalent plain float model (registry skeleton).

        Quantized layers get their dequantized weights, everything else gets
        the stored float tensors.  The model is returned in eval mode — this
        is the serving-side fallback that runs through the ordinary autograd
        stack, and the structure the inference runtime compiles from.
        """
        if not has_model(self.arch):
            raise ArtifactError(
                f"Artifact references unknown architecture {self.arch!r}; "
                f"it must be registered with repro.models.register_model first"
            )
        model = create_model(self.arch, **self.arch_kwargs)
        modules = dict(model.named_modules())
        for name, record in self.quantized.items():
            layer = modules.get(name)
            if layer is None:
                raise ArtifactError(
                    f"Artifact layer {name!r} does not exist in architecture {self.arch!r}"
                )
            if layer.weight.data.shape != record.q.shape:
                raise ArtifactError(
                    f"Artifact layer {name!r} shape {record.q.shape} does not match "
                    f"the architecture's {layer.weight.data.shape}; check arch_kwargs"
                )
            layer.weight.data = record.dequantized_weight
            if record.bias is not None:
                layer.bias.data = record.bias.astype(np.float32).copy()
        own: Dict[str, np.ndarray] = {}
        for name, param in model.named_parameters():
            own[name] = param
        for name, buf in model.named_buffers():
            own[name] = buf
        for name, value in self.floats.items():
            target = own.get(name)
            if target is None:
                # State the float model has no slot for (e.g. activation
                # observer statistics) is carried for completeness only.
                continue
            target.data = np.asarray(value, dtype=target.data.dtype).copy()
        model.eval()
        return model


def save_artifact(
    model: Module,
    path: str,
    arch: str,
    arch_kwargs: Optional[Dict[str, object]] = None,
    metadata: Optional[Dict[str, object]] = None,
    scheme: Optional[str] = None,
) -> Artifact:
    """Serialize a frozen quantized model to a single packed ``.npz`` artifact.

    Parameters
    ----------
    model:
        A quantized model: CSQ (``convert_to_csq``, typically after
        ``freeze_model``; extraction uses hard gates either way), BSQ
        (``convert_to_bsq``), a QAT model (``convert_to_qat`` with any
        method) or a mixed-precision PTQ model (``convert_to_ptq``).
    path:
        Output file path (conventionally ``*.npz``).
    arch:
        Model registry id (e.g. ``"resnet20"``) used to rebuild the skeleton
        at load time.
    arch_kwargs:
        Keyword arguments the architecture was created with (``num_classes``,
        ``width_mult``, ...).  Must reproduce the exact layer shapes.
    metadata:
        Optional free-form JSON-serializable dict stored in the manifest.
    scheme:
        Quantization scheme id to export as; ``None`` auto-detects from the
        model's wrapper family (see :func:`repro.deploy.export.detect_scheme`).

    Returns the in-memory :class:`Artifact` (with ``file_bytes`` filled in).
    """
    arch_kwargs = dict(arch_kwargs or {})
    if not has_model(arch):
        raise ArtifactError(f"Unknown architecture id {arch!r}; register it before saving")
    scheme_id, exports = export_model_layers(model, scheme)
    quantized_names = {e.name for e in exports}

    arrays: Dict[str, np.ndarray] = {}
    layer_entries: List[Dict[str, object]] = []
    records: Dict[str, QuantizedTensorRecord] = {}
    for export in exports:
        packed = pack_codes(export.q)
        arrays[_CODES_PREFIX + export.name] = packed.data
        if export.bias is not None:
            arrays[_BIAS_PREFIX + export.name] = export.bias.astype(np.float32)
        layer_entries.append(
            {
                "name": export.name,
                "kind": export.kind,
                "shape": list(export.q.shape),
                "scale": float(export.scale),
                "num_bits": int(export.num_bits),
                "precision": int(export.precision),
                "selected_bits": export.selected_bits,
                "act_bits": int(export.act_bits),
                "act_mode": export.act_mode,
                "act_range": None if export.act_range is None else float(export.act_range),
                "config": export.config,
                "has_bias": export.bias is not None,
                "pack": {"bits": packed.bits, "offset": packed.offset, "count": packed.count},
                "dequant": export.dequant,
            }
        )
        records[export.name] = QuantizedTensorRecord(
            name=export.name,
            kind=export.kind,
            q=export.q.astype(np.int32),
            scale=float(export.scale),
            num_bits=int(export.num_bits),
            precision=int(export.precision),
            selected_bits=export.selected_bits,
            act_bits=int(export.act_bits),
            config=export.config,
            bias=None if export.bias is None else export.bias.astype(np.float32),
            packed_bits=packed.bits,
            act_mode=export.act_mode,
            act_range=None if export.act_range is None else float(export.act_range),
            scheme=scheme_id,
            dequant=export.dequant,
        )

    # Everything that is not quantizer state rides along as dense float:
    # BatchNorm affine parameters and running statistics, plus any stray
    # parameters of unconverted layers.  All of it is concatenated into one
    # blob; the manifest records each tensor's name/shape/offset.  Any state
    # living *under* a quantized layer (CSQ gates and bit planes, QAT
    # wrapper children, activation-observer statistics) is already frozen
    # into the exported codes/ranges and is skipped wholesale.
    floats: Dict[str, np.ndarray] = {}
    float_index: List[Dict[str, object]] = []
    offset = 0
    for name, value in model.state_dict().items():
        if any(name == q or name.startswith(f"{q}.") for q in quantized_names):
            continue
        tensor = np.asarray(value, dtype=np.float32)
        floats[name] = tensor
        float_index.append({"name": name, "shape": list(tensor.shape), "offset": offset})
        offset += tensor.size
    arrays[_FLOATS_KEY] = (
        np.concatenate([floats[str(e["name"])].reshape(-1) for e in float_index])
        if float_index
        else np.zeros(0, dtype=np.float32)
    )

    scheme = scheme_from_precision_map(
        {e.name: int(e.q.size) for e in exports},
        {e.name: float(e.precision) for e in exports},
    )
    manifest: Dict[str, object] = {
        "format_version": FORMAT_VERSION,
        "framework_version": repro.__version__,
        "arch": arch,
        "arch_kwargs": arch_kwargs,
        "scheme": scheme_id,
        "layers": layer_entries,
        "float_tensors": float_index,
        "average_precision": scheme.average_precision,
        "compression_ratio": scheme.compression_ratio,
        "metadata": dict(metadata or {}),
        # Per-blob CRC32 of every non-manifest member, bound to the manifest
        # itself: unlike the zip container's per-member CRCs this detects a
        # member swapped between (otherwise valid) archives, and it survives
        # repacking.  An additive key — version-1/2 readers ignore it, and
        # load_artifact treats its absence as "legacy, unverified".  The
        # scheme is shared with training checkpoints (repro.utils.integrity).
        "checksums": checksum_blobs(arrays),
    }
    arrays[_MANIFEST_KEY] = np.frombuffer(
        json.dumps(manifest, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )

    # np.savez writes an uncompressed zip: the file size reflects the true
    # packed payload (plus zip/npy headers), not a codec's opinion of it.
    # The write is atomic (temp file → fsync → replace) so a crash mid-save
    # never leaves a torn artifact behind.
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    payload = buffer.getvalue()
    atomic_write_bytes(path, payload)

    return Artifact(
        manifest=manifest,
        quantized=records,
        floats=floats,
        file_bytes=len(payload),
    )


def load_artifact(path: str) -> Artifact:
    """Load an artifact saved by :func:`save_artifact` (codes unpacked once)."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    file_bytes = os.path.getsize(path)
    with np.load(path, allow_pickle=False) as archive:
        if _MANIFEST_KEY not in archive:
            raise ArtifactError(f"{path} is not a repro deployment artifact (no manifest)")
        manifest = json.loads(bytes(archive[_MANIFEST_KEY]).decode("utf-8"))
        version = manifest.get("format_version")
        if version not in SUPPORTED_VERSIONS:
            raise ArtifactError(
                f"Artifact format version {version!r} is not supported "
                f"(this build reads versions {SUPPORTED_VERSIONS})"
            )
        # Pre-version-3 artifacts carry no scheme id; they were always CSQ.
        scheme_id = str(manifest.get("scheme", "csq"))
        if scheme_id not in KNOWN_SCHEMES:
            raise UnknownSchemeError(
                f"Artifact {path} uses unknown quantization scheme "
                f"{scheme_id!r}; this build serves {KNOWN_SCHEMES}"
            )
        checksums = manifest.get("checksums")
        if checksums is None:
            # Artifacts written before checksums existed still load; the gap
            # in integrity coverage is surfaced, not silently accepted.
            handle = obs.telemetry()
            if handle is not None:
                handle.warn(
                    "artifact manifest carries no checksums; "
                    "blob integrity not verified",
                    path=path,
                )
        else:
            corrupt = corrupt_blobs(archive, checksums)
            if corrupt:
                raise ArtifactCorrupt(
                    f"Artifact {path} failed its integrity check: stored "
                    f"blob(s) {corrupt} do not match the manifest CRC32 "
                    f"checksums — the file is corrupt or was tampered with"
                )
        quantized: Dict[str, QuantizedTensorRecord] = {}
        for entry in manifest["layers"]:
            name = entry["name"]
            pack = entry["pack"]
            packed = PackedCodes(
                data=archive[_CODES_PREFIX + name],
                bits=int(pack["bits"]),
                offset=int(pack["offset"]),
                count=int(pack["count"]),
                shape=tuple(entry["shape"]),
            )
            bias_key = _BIAS_PREFIX + name
            # Version-1 entries carry no activation range: act_range stays
            # None and the session falls back to float activation semantics.
            act_range = entry.get("act_range")
            quantized[name] = QuantizedTensorRecord(
                name=name,
                kind=entry["kind"],
                q=unpack_codes(packed),
                scale=float(entry["scale"]),
                num_bits=int(entry["num_bits"]),
                precision=int(entry["precision"]),
                selected_bits=[int(b) for b in entry["selected_bits"]],
                act_bits=int(entry.get("act_bits", 32)),
                config={k: int(v) for k, v in entry["config"].items()},
                bias=archive[bias_key].copy() if bias_key in archive else None,
                packed_bits=int(pack["bits"]),
                act_mode=str(entry.get("act_mode", "observer")),
                act_range=None if act_range is None else float(act_range),
                scheme=scheme_id,
                dequant=entry.get("dequant"),
            )
        blob = archive[_FLOATS_KEY] if _FLOATS_KEY in archive else np.zeros(0, dtype=np.float32)
        floats = {}
        for entry in manifest.get("float_tensors", []):
            shape = tuple(int(s) for s in entry["shape"])
            start = int(entry["offset"])
            count = int(np.prod(shape)) if shape else 1
            floats[str(entry["name"])] = blob[start:start + count].reshape(shape).copy()
    return Artifact(
        manifest=manifest, quantized=quantized, floats=floats, file_bytes=file_bytes
    )
