#!/usr/bin/env python3
"""Run the single-acquisition spectrum experiment with the shipped config.

Any CLI flag can still be passed through, e.g. --seed 3 --out /tmp/spec.
"""

import os
import sys

from risloc.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))

if __name__ == "__main__":
    # argparse keeps the last --config, so one given here overrides the default
    default = os.path.join(HERE, "configs", "spectrum.yaml")
    raise SystemExit(main(["spectrum", "--config", default, *sys.argv[1:]]))
