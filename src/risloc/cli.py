"""Command line front end: spectrum | mse-sweep | beampattern."""

from __future__ import annotations

import argparse
import os
from typing import Optional, Sequence


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risloc",
        description="RIS-assisted passive radar localization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")

    p_spec = sub.add_parser("spectrum", help="one acquisition, angular spectrum CSV")
    common(p_spec)

    p_sweep = sub.add_parser("mse-sweep", help="Monte-Carlo MSE vs SNR sweep")
    common(p_sweep)

    p_beam = sub.add_parser("beampattern", help="beampattern per AP placement")
    common(p_beam)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # the matrices are at most about 100 x 100, too small for threaded BLAS to
    # pay; the thread count is read when numpy first loads, which is below.
    # A value set in the environment wins.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from .experiments import load_config, run_beampattern, run_mse_sweep, run_spectrum

    cfg = load_config(args.config)
    if args.command == "spectrum":
        result = run_spectrum(cfg, seed=args.seed, out_dir=args.out)
        print(f"detected {result.k_hat} peak(s): "
              + ", ".join(f"{p:.2f}" for p in result.peaks))
    elif args.command == "mse-sweep":
        rows = run_mse_sweep(cfg, seed=args.seed, out_dir=args.out)
        print(f"wrote {len(rows)} aggregate rows")
    elif args.command == "beampattern":
        summary = run_beampattern(cfg, seed=args.seed, out_dir=args.out)
        for entry in summary:
            print(f"AP at {entry['aoa_ap_ris']:+.1f} deg: notch "
                  f"{entry['notch_db']:.1f} dB, off-notch median "
                  f"{entry['off_notch_median_db']:.1f} dB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
