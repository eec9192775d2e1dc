"""Bitwise parity of the training kernels across BLAS thread counts.

A result must not depend on how many cores the host has.  The library
computes on no threads of its own; the only parallelism is BLAS's, and
OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when it loads.  So this file
runs every case in a child process (``python test_parallel_parity.py
OUT``) at 1 and at 2 BLAS threads and requires the two sets of bytes to
be equal — ``array_equal``, not ``allclose`` — so any change of
accumulation order with the thread count is caught.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

_THREADS = (1, 2)

#: (x_shape, w_shape, stride, padding)
_CONV_GEOMETRIES = [
    ((6, 5, 9, 9), (7, 5, 3, 3), 2, 1),
    ((50, 16, 12, 12), (32, 16, 3, 3), 1, 1),  # bench geometry, col2im data
    ((8, 16, 10, 10), (16, 16, 3, 3), 1, 1),   # transposed-conv data path
    ((4, 3, 16, 16), (8, 3, 5, 5), 1, 2),
    ((10, 8, 8, 8), (16, 8, 1, 1), 1, 0),
]


def _conv(geometry):
    from repro.autograd import ops
    from repro.autograd.tensor import Tensor

    x_shape, w_shape, stride, padding = geometry
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(x_shape).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal(w_shape).astype(np.float32), requires_grad=True)
    out = ops.conv2d(x, w, stride=stride, padding=padding)
    out.sum().backward()
    return out.data, x.grad, w.grad


def _im2col():
    from repro.autograd import ops

    x = np.random.default_rng(1).standard_normal((6, 5, 9, 9)).astype(np.float32)
    return (ops.im2col(x, 3, 3, 2, 1),)


def _matmul():
    from repro.autograd import ops
    from repro.autograd.tensor import Tensor

    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((64, 512)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((512, 9000)).astype(np.float32), requires_grad=True)
    out = ops.matmul(x, w)
    out.sum().backward()
    return out.data, w.grad, x.grad


def _csq_reconstruct():
    from repro.csq.bitparam import BitParameterization
    from repro.csq.gates import GateState

    weight = np.random.default_rng(3).standard_normal((16, 8, 3, 3)).astype(np.float32)
    bp = BitParameterization(weight, num_bits=8)
    out = bp.relaxed_weight(GateState(beta=5.0, beta_mask=5.0))
    out.sum().backward()
    return out.data, bp.m_p.grad, bp.m_n.grad, bp.m_b.grad, bp.scale.grad


def _train_step():
    """Two full CSQ optimization steps on ``simple_convnet``."""
    from repro.autograd.tensor import Tensor
    from repro.csq.convert import convert_to_csq
    from repro.models import create_model
    from repro.nn import functional as F
    from repro.optim import SGD
    from repro.utils import seed_everything

    rng = np.random.default_rng(4)
    images = rng.standard_normal((8, 3, 10, 10)).astype(np.float32)
    labels = rng.integers(0, 10, size=8)
    seed_everything(0)
    model = create_model("simple_convnet", num_classes=10, width=8)
    model, state = convert_to_csq(model, num_bits=4, act_bits=3)
    state.set_temperature(5.0)
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    model.train()
    for _ in range(2):
        logits = model(Tensor(images))
        loss = F.cross_entropy(logits, labels)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    return tuple(p.data for p in model.parameters())


_CASES = {
    **{f"conv{i}": (lambda g=g: _conv(g)) for i, g in enumerate(_CONV_GEOMETRIES)},
    "im2col": _im2col,
    "matmul": _matmul,
    "csq_reconstruct": _csq_reconstruct,
    "train_step": _train_step,
}


def _child(out_path: str) -> None:
    """Run every case in this process and save its arrays to ``out_path``."""
    from repro.obs.provenance import blas_info

    arrays = {"blas_threads": np.array(int(blas_info()[1]))}
    for name, case in _CASES.items():
        for index, array in enumerate(case()):
            arrays[f"{name}/{index}"] = np.array(array)
    np.savez(out_path, **arrays)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{threads: {key: array}}`` from one child process per BLAS thread count."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    python_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    results = {}
    for threads in _THREADS:
        out_path = str(tmp_path_factory.mktemp("parity") / f"blas{threads}.npz")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=python_path)
        subprocess.run([sys.executable, os.path.abspath(__file__), out_path], env=env, check=True)
        with np.load(out_path) as data:
            results[threads] = dict(data)
    return results


def _assert_same_bytes(runs, name, indices=None):
    reference = runs[_THREADS[0]]
    if indices is None:
        keys = sorted(k for k in reference if k.startswith(f"{name}/"))
    else:
        keys = [f"{name}/{i}" for i in indices]
    assert keys, name
    for threads in _THREADS[1:]:
        for key in keys:
            np.testing.assert_array_equal(
                runs[threads][key], reference[key],
                err_msg=f"{key}: bitwise divergence at {threads} BLAS threads",
            )


class TestConvParity:
    @pytest.mark.parametrize("geometry", range(len(_CONV_GEOMETRIES)),
                             ids=[f"geometry{i}" for i in range(len(_CONV_GEOMETRIES))])
    def test_conv2d_forward_backward(self, runs, geometry):
        _assert_same_bytes(runs, f"conv{geometry}")

    def test_im2col_bytes(self, runs):
        _assert_same_bytes(runs, "im2col")


class TestLinearParity:
    def test_matmul_forward_backward(self, runs):
        """The output and the weight gradient (K = 64 reductions)."""
        _assert_same_bytes(runs, "matmul", indices=(0, 1))

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: OpenBLAS changes the summation order of the "
               "K=9000 input-gradient GEMM (g @ w.T) with its thread count",
    )
    def test_matmul_input_gradient(self, runs):
        if runs[_THREADS[-1]]["blas_threads"] < 2:
            pytest.skip("BLAS runs on fewer than 2 threads on this host")
        _assert_same_bytes(runs, "matmul", indices=(2,))


class TestCSQParity:
    def test_csq_reconstruct_forward_backward(self, runs):
        _assert_same_bytes(runs, "csq_reconstruct")


class TestTrainStepParity:
    def test_full_csq_train_step_bitwise(self, runs):
        """Two full optimization steps produce identical parameters at 1
        and 2 BLAS threads (the end-to-end determinism claim)."""
        _assert_same_bytes(runs, "train_step")


if __name__ == "__main__":
    _child(sys.argv[1])
