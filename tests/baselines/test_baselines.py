"""Tests for the baseline methods: uniform QAT, BSQ, HAWQ-style, HAQ-like."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.baselines import (
    BSQConfig,
    BSQTrainer,
    UniformQATConfig,
    assign_precisions_by_sensitivity,
    convert_to_qat,
    greedy_precision_search,
    hessian_sensitivities,
    train_uniform_qat,
)
from repro.baselines.bsq import BSQConv2d, BSQLinear, bsq_layers, convert_to_bsq
from repro.baselines.uniform_qat import qat_scheme
from repro.data import make_classification_arrays
from repro.models import SimpleConvNet, TinyMLP
from repro.quant import QConv2d, QLinear


def randn(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


class TestUniformQAT:
    def test_convert_replaces_layers(self):
        model = convert_to_qat(SimpleConvNet(width=4), UniformQATConfig(weight_bits=3))
        wrappers = [m for m in model.modules() if isinstance(m, (QConv2d, QLinear))]
        assert len(wrappers) == 3
        # The original float layers now only appear *inside* the QAT wrappers.
        assert isinstance(model.conv1, QConv2d)
        assert isinstance(model.conv2, QConv2d)
        assert isinstance(model.fc, QLinear)

    def test_each_method_constructs(self):
        for method in ("ste", "dorefa", "pact", "lqnets"):
            config = UniformQATConfig(weight_bits=2, act_bits=3, method=method)
            model = convert_to_qat(SimpleConvNet(width=4), config)
            out = model(Tensor(randn(2, 3, 8, 8)))
            assert out.shape == (2, 10)

    def test_unknown_method_rejected(self):
        from repro.baselines.uniform_qat import _make_weight_quantizer

        with pytest.raises(ValueError):
            _make_weight_quantizer("bogus", 4)

    def test_scheme_reports_uniform_bits(self):
        model = convert_to_qat(SimpleConvNet(width=4), UniformQATConfig(weight_bits=3))
        scheme = qat_scheme(model)
        assert scheme.average_precision == pytest.approx(3.0)
        assert scheme.compression_ratio == pytest.approx(32 / 3)

    def test_training_smoke(self, tiny_loaders):
        train_loader, test_loader = tiny_loaders
        config = UniformQATConfig(epochs=2, weight_bits=4, act_bits=32, lr=0.05)
        model, history, scheme = train_uniform_qat(
            SimpleConvNet(num_classes=4, width=4), train_loader, test_loader, config
        )
        assert len(history.test_accuracy) == 2
        assert scheme.average_precision == pytest.approx(4.0)


class TestBSQ:
    def test_convert_replaces_layers(self):
        model = convert_to_bsq(SimpleConvNet(width=4))
        assert len(bsq_layers(model)) == 3

    def test_forward_shapes(self):
        conv = BSQConv2d(nn.Conv2d(3, 4, 3, padding=1), num_bits=8)
        assert conv(Tensor(randn(2, 3, 6, 6))).shape == (2, 4, 6, 6)
        linear = BSQLinear(nn.Linear(5, 2), num_bits=8)
        assert linear(Tensor(randn(3, 5))).shape == (3, 2)

    def test_initial_weight_matches_8bit_quantization(self):
        layer = nn.Linear(6, 4, bias=False)
        bsq = BSQLinear(layer, num_bits=8)
        from repro.quant.functional import quantize_dequantize

        np.testing.assert_allclose(
            bsq.quantized_weight().data, quantize_dequantize(layer.weight.data, 8), atol=1e-4
        )

    def test_prune_bits_reduces_precision(self):
        layer = BSQLinear(nn.Linear(8, 8), num_bits=8)
        # Make the two lowest bit planes nearly empty, then prune.
        layer.bits_p.data[:2] = 0.0
        layer.bits_n.data[:2] = 0.0
        pruned = layer.prune_bits(threshold=0.01)
        assert pruned >= 2
        assert layer.precision <= 6

    def test_prune_never_removes_every_bit(self):
        layer = BSQLinear(nn.Linear(4, 4), num_bits=4)
        layer.bits_p.data[:] = 0.0
        layer.bits_n.data[:] = 0.0
        layer.prune_bits(threshold=1.0)
        assert layer.precision >= 1

    def test_sparsity_penalty_positive_and_differentiable(self):
        layer = BSQLinear(nn.Linear(4, 4), num_bits=4)
        penalty = layer.bit_sparsity_penalty()
        assert float(penalty.data) > 0.0
        penalty.backward()
        assert layer.bits_p.grad is not None

    def test_trainer_smoke_and_precision_reduction(self, tiny_loaders):
        train_loader, test_loader = tiny_loaders
        config = BSQConfig(
            epochs=2, lr=0.05, weight_decay=0.0, sparsity_strength=0.5,
            prune_interval=1, prune_threshold=0.2,
        )
        trainer = BSQTrainer(SimpleConvNet(num_classes=4, width=4), train_loader, test_loader, config)
        trainer.train()
        assert trainer.average_precision() < 8.0
        assert len(trainer.history.test_accuracy) == 2
        assert trainer.scheme().total_elements > 0

    def test_trainer_prunes_only_at_the_interval(self, tiny_loaders):
        train_loader, test_loader = tiny_loaders
        config = BSQConfig(
            epochs=3, lr=0.05, weight_decay=0.0, sparsity_strength=0.5,
            prune_interval=2, prune_threshold=0.2,
        )
        trainer = BSQTrainer(SimpleConvNet(num_classes=4, width=4), train_loader, test_loader, config)
        trainer.train()
        # Precision is recorded before each epoch's prune: full until the
        # prune at the end of epoch 2, reduced in epoch 3's record.
        precision = trainer.history.extra["average_precision"]
        assert precision[:2] == [8.0, 8.0]
        assert precision[2] < 8.0
        assert precision[2] == trainer.average_precision()


class TestHAWQ:
    def test_sensitivities_cover_all_layers(self):
        model = SimpleConvNet(num_classes=4, width=4)
        images, labels = make_classification_arrays(num_samples=16, num_classes=4, image_size=8)
        sens = hessian_sensitivities(model, images, labels, num_probes=1)
        assert set(sens) == {"conv1", "conv2", "fc"}
        assert all(value >= 0.0 for value in sens.values())

    def test_assignment_meets_budget(self):
        sens = {"a": 1.0, "b": 0.1, "c": 0.01}
        sizes = {"a": 100, "b": 100, "c": 100}
        assignment = assign_precisions_by_sensitivity(sens, sizes, target_average_bits=4.0)
        average = sum(assignment[n] * sizes[n] for n in sizes) / sum(sizes.values())
        assert average <= 4.0 + 1e-9

    def test_assignment_respects_sensitivity_order(self):
        sens = {"sensitive": 10.0, "robust": 0.001}
        sizes = {"sensitive": 100, "robust": 100}
        assignment = assign_precisions_by_sensitivity(sens, sizes, target_average_bits=5.0)
        assert assignment["sensitive"] >= assignment["robust"]

    def test_assignment_key_mismatch(self):
        with pytest.raises(KeyError):
            assign_precisions_by_sensitivity({"a": 1.0}, {"b": 10}, 4.0)

    def test_assignment_cannot_go_below_lowest_candidate(self):
        assignment = assign_precisions_by_sensitivity(
            {"a": 1.0}, {"a": 10}, target_average_bits=0.5, candidate_bits=(2, 4)
        )
        assert assignment["a"] == 2


class TestHAQLike:
    def test_search_meets_budget(self):
        model = SimpleConvNet(num_classes=4, width=4)
        images, labels = make_classification_arrays(num_samples=16, num_classes=4, image_size=8)
        assignment = greedy_precision_search(model, images, labels, target_average_bits=4.0)
        from repro.analysis import quantizable_layer_sizes

        sizes = quantizable_layer_sizes(model)
        average = sum(assignment[n] * sizes[n] for n in sizes) / sum(sizes.values())
        assert average <= 4.0 + 1e-9

    def test_search_returns_candidate_bits_only(self):
        model = SimpleConvNet(num_classes=4, width=4)
        images, labels = make_classification_arrays(num_samples=16, num_classes=4, image_size=8)
        assignment = greedy_precision_search(
            model, images, labels, target_average_bits=3.0, candidate_bits=(2, 4, 8)
        )
        assert all(bits in (2, 4, 8) for bits in assignment.values())

    def test_search_rejects_model_without_layers(self):
        with pytest.raises(ValueError):
            greedy_precision_search(nn.Sequential(nn.ReLU()), np.zeros((1, 1)), np.zeros(1), 4.0)

    def test_mlp_supported(self):
        model = TinyMLP(in_features=12, num_classes=3)
        images = randn(8, 12)
        labels = np.zeros(8, dtype=int)
        assignment = greedy_precision_search(model, images, labels, target_average_bits=8.0)
        assert set(assignment) == {"fc1", "fc2"}
