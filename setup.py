"""Setup shim for legacy editable installs (offline environment).

The environment has no network access and an older setuptools without PEP 660
editable-wheel support, so ``pip install -e .`` falls back to
``setup.py develop`` through this shim.  This file is the only packaging
metadata: the ``repro`` distribution, its packages found under ``src/``,
the supported Python versions and the runtime dependencies (numpy, scipy).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Reproduction of CSQ: Growing Mixed-Precision Quantization Scheme "
        "with Bi-level Continuous Sparsification (DAC 2023)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
