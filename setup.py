"""Setup shim for environments without the `wheel` package.

`pip install -e .` requires PEP 660 editable-wheel support; offline
boxes that lack the `wheel` distribution can fall back to
``python setup.py develop`` which this shim enables.

The package has no hard dependencies beyond numpy/scipy.
"""

from setuptools import find_packages, setup

setup(
    name="flexsp-repro",
    version="0.8.0",
    description=(
        "Reproduction of FlexSP: heterogeneous sequence-parallel "
        "training planner (ASPLOS'25)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy",
        "scipy",
    ],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
)
