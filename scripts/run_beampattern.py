#!/usr/bin/env python3
"""Tabulate suppression beampatterns for several AP placements."""

import os
import sys

from risloc.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))

if __name__ == "__main__":
    # argparse keeps the last --config, so one given here overrides the default
    default = os.path.join(HERE, "configs", "beampattern.yaml")
    raise SystemExit(main(["beampattern", "--config", default, *sys.argv[1:]]))
