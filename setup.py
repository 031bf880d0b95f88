"""Setup script for the Dimmer reproduction.

`pip install -e .` needs the `wheel` package for a PEP 660 editable
install; this offline environment does not ship it, so use
`python setup.py develop` (or plain `pip install -e .
--no-build-isolation` once wheel is available) instead.  Installing
registers the `repro-bench` console script for cached, parallel
benchmark grid runs.
"""

from setuptools import find_packages, setup

setup(
    name="repro-dimmer",
    version="0.3.0",
    description="Reproduction of Dimmer (ICDCS'21): RL-based dynamic low-power networking",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro": ["data/pretrained_dqn_k10_m2.json"]},
    python_requires=">=3.9",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro-bench=repro.experiments.bench:main",
        ],
    },
)
