"""Packaging for the SIGMOD 2021 blockchain-fairness reproduction."""

import pathlib
import re

from setuptools import find_packages, setup

_HERE = pathlib.Path(__file__).parent
# Read, not imported: importing repro needs its dependencies installed.
_VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (_HERE / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)
_LONG_DESCRIPTION = (
    "A reproduction of 'Do the Rich Get Richer? Fairness Analysis for "
    "Blockchain Incentives' (SIGMOD 2021): executable incentive models "
    "(PoW, ML-PoS, SL-PoS, C-PoS, FSL-PoS, reward withholding), the "
    "paper's fairness notions and theoretical bounds, a vectorised "
    "Monte Carlo engine with sharded parallel execution and a "
    "content-addressed result cache, a node-level blockchain "
    "substrate, and runnable reproductions of every figure and table."
)

setup(
    name="repro-blockchain-fairness",
    version=_VERSION,
    description=(
        "Fairness analysis for blockchain incentives — SIGMOD 2021 "
        "reproduction"
    ),
    long_description=_LONG_DESCRIPTION,
    long_description_content_type="text/plain",
    author="paper-repo-growth",
    license="MIT",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.8",
    install_requires=["numpy>=1.20", "scipy>=1.6"],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.runner:main",
            "repro-trace=repro.obs.report:main",
            "repro-lint=repro.lint.cli:main",
            "repro-fsck=repro.runtime.integrity:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
    ],
)
