"""Mixed-precision and uniform baselines compared against in the tables.

* :mod:`repro.baselines.uniform_qat` — STE-Uniform / DoReFa / PACT / LQ-Nets
  style uniform-precision quantization-aware training (Tables I–IV rows),
* :mod:`repro.baselines.bsq` — BSQ: bit-level structural sparsity with STE
  and periodic precision adjustment (the closest prior work),
* :mod:`repro.baselines.hawq` — HAWQ-style Hessian-sensitivity precision
  assignment,
* :mod:`repro.baselines.haq_like` — a greedy budget-constrained search
  standing in for HAQ's reinforcement-learning agent (its module docstring
  gives the rationale).
"""

from repro.baselines.uniform_qat import UniformQATConfig, train_uniform_qat, convert_to_qat
from repro.baselines.bsq import BSQConfig, BSQTrainer
from repro.baselines.hawq import hessian_sensitivities, assign_precisions_by_sensitivity
from repro.baselines.haq_like import greedy_precision_search

__all__ = [
    "UniformQATConfig",
    "train_uniform_qat",
    "convert_to_qat",
    "BSQConfig",
    "BSQTrainer",
    "hessian_sensitivities",
    "assign_precisions_by_sensitivity",
    "greedy_precision_search",
]
