"""Legacy setup shim.

The offline build environment lacks the ``wheel`` package, so PEP 517
editable installs fail; this shim lets ``pip install -e .`` fall back to
``setup.py develop``.  All metadata lives in pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="2.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
