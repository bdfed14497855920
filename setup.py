"""Legacy setup shim.

The execution environment has no ``wheel`` package and no network, so PEP
517 editable installs fail; this shim lets ``pip install -e .`` take the
classic ``setup.py develop`` path.  All package metadata lives here (the
repo has no ``pyproject.toml``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
