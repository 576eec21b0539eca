"""Setuptools entry point.

A plain ``setup.py`` is kept so that ``pip install -e .`` works in fully
offline environments where the ``wheel`` package (needed for PEP 517
editable installs) may not be available — pip falls back to the legacy
``setup.py develop`` path in that case.  There are no extras: the local
kernels need only numpy and scipy (see ``docs/kernels.md``).
"""

from setuptools import find_packages, setup

setup(
    name="repro-spgemm",
    version="0.8.0",
    description=(
        "Reproduction of sparsity-aware distributed-memory SpGEMM: "
        "modelled communication counters, simulated and shm backends, "
        "and a cached experiment engine"
    ),
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.24",
        "scipy>=1.10",
    ],
)
