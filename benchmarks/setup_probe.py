"""Take a fresh interpreter to serrelab's first time step, then report.

    python benchmarks/setup_probe.py CONFIG

Imports the CLI, reads the config, builds the grid and the initial state,
applies the Euler bootstrap and prints ``ready``.  The caller times the
interval from starting this process to reading that line.
"""
import sys

from serrelab import cli  # noqa: F401  (its import is part of set-up)
from serrelab import core, solvers


def main(path):
    config = core.parse_config_file(path)
    grid = core.Grid.from_config(config)
    state = core.smoothed_dambreak_ic(config, grid)
    solvers.apply_euler_bootstrap(state, config)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1])
