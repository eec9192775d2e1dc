"""BSQ: Bit-level Sparsity Quantization (Yang et al., 2021) — the main baseline.

BSQ also trains the model at the bit level, but with two differences from
CSQ that the paper identifies as sources of instability:

1. **STE bit training** — the bit planes are continuous latent variables that
   are *rounded* in the forward pass, so every gradient passes through a
   straight-through estimator, whereas CSQ's gates are smooth and exactly
   differentiable.
2. **Hard precision adjustment** — BSQ periodically prunes bit planes whose
   group L1 norm falls below a threshold (a hard, discrete change during
   training), whereas CSQ moves the bit masks continuously.

This reimplementation follows that structure: an L1 penalty over the bit
planes induces bit-level structural sparsity, and every
``prune_interval`` epochs any bit plane with mean absolute value below
``prune_threshold`` is permanently removed (its mask entry set to zero),
reducing the layer's precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import nn
from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.data.dataloader import DataLoader
from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.optim.lr_scheduler import WarmupCosine
from repro.optim.sgd import SGD
from repro.quant.act_quant import ActivationQuantizer
from repro.quant.functional import bit_decompose
from repro.quant.scheme import QuantizationScheme
from repro.quant.ste import ste_round
from repro.training.loop import TrainingHistory, evaluate, fit


class _BSQLayerBase(Module):
    """Bit-level layer with STE-rounded bit planes and a prunable bit mask."""

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        num_bits: int = 8,
        act_bits: int = 32,
    ) -> None:
        super().__init__()
        self.num_bits = num_bits
        planes_p, planes_n, scale = bit_decompose(weight, num_bits)
        self.scale = Parameter(np.array([scale], dtype=np.float32))
        # Continuous bit variables in [0, 1]; forward pass rounds them (STE).
        self.bits_p = Parameter(planes_p.astype(np.float32))
        self.bits_n = Parameter(planes_n.astype(np.float32))
        # Hard (non-trainable) per-bit mask modified by the periodic pruning.
        self.register_buffer("bit_mask", Tensor(np.ones(num_bits, dtype=np.float32)))
        if bias is not None:
            self.bias = Parameter(np.asarray(bias, dtype=np.float32).copy())
        else:
            self.register_parameter("bias", None)
        self.act_quant = ActivationQuantizer(bits=act_bits)
        self._pow2 = (2.0 ** np.arange(num_bits)).astype(np.float32)
        self._levels = float(2 ** num_bits - 1)
        self.weight_shape = tuple(weight.shape)

    # ------------------------------------------------------------------
    def quantized_weight(self) -> Tensor:
        """STE-rounded bit-level weight (Eq. 1 with trainable bit variables)."""
        broadcast = (self.num_bits,) + (1,) * len(self.weight_shape)
        rounded_p = ste_round(ops.clip(self.bits_p, 0.0, 1.0))
        rounded_n = ste_round(ops.clip(self.bits_n, 0.0, 1.0))
        diff = ops.sub(rounded_p, rounded_n)
        weights = Tensor((self._pow2 * self.bit_mask.data).reshape(broadcast))
        accumulated = ops.sum(ops.mul(diff, weights), axis=0)
        return ops.mul(accumulated, ops.div(self.scale, self._levels))

    def bit_sparsity_penalty(self) -> Tensor:
        """Group L1 norm of the (active) bit planes, the BSQ regularizer."""
        broadcast = (self.num_bits,) + (1,) * len(self.weight_shape)
        mask = Tensor(self.bit_mask.data.reshape(broadcast))
        active_p = ops.mul(ops.abs(self.bits_p), mask)
        active_n = ops.mul(ops.abs(self.bits_n), mask)
        return ops.div(ops.add(ops.sum(active_p), ops.sum(active_n)), float(self.bits_p.size))

    # ------------------------------------------------------------------
    def prune_bits(self, threshold: float) -> int:
        """Permanently disable bit planes with mean magnitude below ``threshold``.

        Returns the number of bit planes pruned in this call.  This is the
        "hard precision adjustment performed via bit pruning during training"
        that the paper contrasts CSQ against.
        """
        pruned = 0
        magnitude_p = np.abs(self.bits_p.data).reshape(self.num_bits, -1).mean(axis=1)
        magnitude_n = np.abs(self.bits_n.data).reshape(self.num_bits, -1).mean(axis=1)
        combined = 0.5 * (magnitude_p + magnitude_n)
        for b in range(self.num_bits):
            if self.bit_mask.data[b] > 0.0 and combined[b] < threshold:
                self.bit_mask.data[b] = 0.0
                pruned += 1
        # Keep at least one active bit so the layer does not vanish entirely.
        if self.bit_mask.data.sum() == 0:
            self.bit_mask.data[int(np.argmax(combined))] = 1.0
            pruned -= 1
        return pruned

    @property
    def precision(self) -> int:
        return int(self.bit_mask.data.sum())

    def num_elements(self) -> int:
        return int(np.prod(self.weight_shape))

    def extra_repr(self) -> str:
        return f"num_bits={self.num_bits}, precision={self.precision}"


class BSQConv2d(_BSQLayerBase):
    """BSQ convolution layer."""

    def __init__(self, conv: nn.Conv2d, num_bits: int = 8, act_bits: int = 32) -> None:
        bias = conv.bias.data if conv.bias is not None else None
        super().__init__(conv.weight.data, bias, num_bits, act_bits)
        self.in_channels = conv.in_channels
        self.out_channels = conv.out_channels
        self.kernel_size = conv.kernel_size
        self.stride = conv.stride
        self.padding = conv.padding
        self.groups = getattr(conv, "groups", 1)

    def forward(self, x: Tensor) -> Tensor:
        x = self.act_quant(x)
        weight = self.quantized_weight()
        return F.conv2d(
            x, weight, self.bias,
            stride=self.stride, padding=self.padding, groups=self.groups,
        )


class BSQLinear(_BSQLayerBase):
    """BSQ linear layer."""

    def __init__(self, linear: nn.Linear, num_bits: int = 8, act_bits: int = 32) -> None:
        bias = linear.bias.data if linear.bias is not None else None
        super().__init__(linear.weight.data, bias, num_bits, act_bits)
        self.in_features = linear.in_features
        self.out_features = linear.out_features

    def forward(self, x: Tensor) -> Tensor:
        x = self.act_quant(x)
        weight = self.quantized_weight()
        return F.linear(x, weight, self.bias)


def convert_to_bsq(model: Module, num_bits: int = 8, act_bits: int = 32) -> Module:
    """Replace every Conv2d/Linear in ``model`` with a BSQ layer, in place."""

    def _convert_children(module: Module) -> None:
        for child_name, child in list(module._modules.items()):
            if isinstance(child, nn.Conv2d):
                module.add_module(child_name, BSQConv2d(child, num_bits, act_bits))
            elif isinstance(child, nn.Linear):
                module.add_module(child_name, BSQLinear(child, num_bits, act_bits))
            else:
                _convert_children(child)

    _convert_children(model)
    return model


def bsq_layers(model: Module) -> List[Tuple[str, _BSQLayerBase]]:
    return [(name, m) for name, m in model.named_modules() if isinstance(m, _BSQLayerBase)]


@dataclass
class BSQConfig:
    """Hyper-parameters of a BSQ run."""

    epochs: int = 20
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    num_bits: int = 8
    act_bits: int = 32
    sparsity_strength: float = 0.02
    prune_interval: int = 5
    prune_threshold: float = 0.05


class BSQTrainer:
    """Train a model with BSQ: STE bit-level training + periodic bit pruning."""

    def __init__(
        self,
        model: Module,
        train_loader: DataLoader,
        test_loader: DataLoader,
        config: Optional[BSQConfig] = None,
    ) -> None:
        self.config = config or BSQConfig()
        self.model = convert_to_bsq(model, self.config.num_bits, self.config.act_bits)
        self.train_loader = train_loader
        self.test_loader = test_loader
        self.history = TrainingHistory()

    def _sparsity_penalty(self) -> Tensor:
        terms = [layer.bit_sparsity_penalty() for _, layer in bsq_layers(self.model)]
        total = terms[0]
        for term in terms[1:]:
            total = ops.add(total, term)
        return ops.mul(total, float(self.config.sparsity_strength))

    def train(self) -> TrainingHistory:
        cfg = self.config
        optimizer = SGD(
            self.model.parameters(), lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay
        )
        scheduler = WarmupCosine(optimizer, total_epochs=cfg.epochs)

        def on_epoch_end(epoch: int, history: TrainingHistory) -> None:
            history.record_extra("average_precision", self.average_precision())
            if (epoch + 1) % cfg.prune_interval == 0:
                for _, layer in bsq_layers(self.model):
                    layer.prune_bits(cfg.prune_threshold)

        self.history = fit(
            self.model, self.train_loader, self.test_loader, optimizer, cfg.epochs,
            scheduler=scheduler, extra_loss=self._sparsity_penalty, on_epoch_end=on_epoch_end,
        )
        return self.history

    def evaluate(self) -> Dict[str, float]:
        return evaluate(self.model, self.test_loader)

    def average_precision(self) -> float:
        total_bits, total_elements = 0.0, 0
        for _, layer in bsq_layers(self.model):
            total_bits += layer.precision * layer.num_elements()
            total_elements += layer.num_elements()
        return total_bits / total_elements if total_elements else 0.0

    def scheme(self) -> QuantizationScheme:
        scheme = QuantizationScheme()
        for name, layer in bsq_layers(self.model):
            scheme.add_layer(name, layer.num_elements(), float(layer.precision))
        return scheme
