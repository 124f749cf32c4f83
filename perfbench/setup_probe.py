"""What a user pays before any path runs: import the CLI, parse the run
config and build the spectral decomposition and the FilterModel.

    python perfbench/setup_probe.py [run.json]

Without a config (the `verify` workload) it stops after the import. The
benchmark times this process from launch to exit.
"""

import sys

import reduction_lab.cli  # noqa: F401  (the import is the measured work)
from reduction_lab.config import parse_config
from reduction_lab.filtering import FilterModel
from reduction_lab.spectral import spectral_decompose

if len(sys.argv) > 1:
    with open(sys.argv[1]) as handle:
        cfg = parse_config(handle.read())
    spec = spectral_decompose(cfg.hamiltonian, tols=cfg.tolerances)
    FilterModel(cfg.rho0, spec, cfg.sigma, cfg.hbar, cfg.tolerances)
