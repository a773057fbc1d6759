"""Package metadata for ``pip install -e .`` (or ``pip install .``).

Everything also runs uninstalled with ``PYTHONPATH=src``.  The version
is read from ``src/repro/__init__.py`` so it is stated once.
"""

import re

from setuptools import find_packages, setup

with open("src/repro/__init__.py", encoding="utf-8") as fh:
    VERSION = re.search(
        r'^__version__ = "([^"]+)"', fh.read(), re.M
    ).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "SmartSAGE (ISCA 2022) reproduction: in-storage GNN sampling "
        "simulator and experiment harness"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
