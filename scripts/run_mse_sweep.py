#!/usr/bin/env python3
"""Run the Monte-Carlo MSE-vs-SNR sweep with the shipped config.

Takes the flags of `risloc mse-sweep` (--config, --seed, --out); --config
defaults to configs/mse_sweep.yaml next to this script.
"""

import os
import sys

from risloc.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))

if __name__ == "__main__":
    # argparse keeps the last --config, so one given here overrides the default
    default = os.path.join(HERE, "configs", "mse_sweep.yaml")
    raise SystemExit(main(["mse-sweep", "--config", default, *sys.argv[1:]]))
