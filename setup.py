"""Legacy build shim and project metadata.

The offline build environment ships setuptools without the ``wheel``
package, so PEP-517 editable installs (which build an editable wheel)
fail.  This shim lets ``pip install -e .`` fall back to the classic
``setup.py develop`` path.

Dependency floors: the batch estimator kernels need
``numpy.packbits(..., bitorder=...)`` and the ``Generator`` /
``SeedSequence`` API (numpy >= 1.20), and the L1 solver calls HiGHS
through the pybind binding ``scipy.optimize._highspy._core``, including
its ``getBasis``/``setBasis`` warm start (scipy >= 1.17, the oldest
release this package is tested with; it needs Python >= 3.11).
"""

import pathlib
import re

from setuptools import find_packages, setup

# Single source of truth for the version: repro.__version__ (also what
# `repro-tomography --version` prints).  Read textually — importing the
# package from setup.py would need its dependencies installed first.
_version = re.search(
    r'^__version__ = "([^"]+)"',
    (pathlib.Path(__file__).parent / "src" / "repro" / "__init__.py")
    .read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro-tomography",
    version=_version,
    description=(
        "Reproduction of 'Network Tomography on Correlated Links' "
        "(Ghita, Argyraki, Thiran - IMC 2010)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=[
        "numpy>=1.20",
        "scipy>=1.17",
        "networkx>=2.6",
    ],
    entry_points={
        "console_scripts": [
            "repro-tomography = repro.cli:main",
        ]
    },
)
