"""risloc benchmark: one workload, measured end to end or traced per layer.

    python3 risbench/run.py --workload {sweep,spectrum,beampattern} --seed N \
        --seconds S --trace {0,1}

Run from the root of a risloc checkout. Each workload runs in its own
process as a closed loop, one item after another, with BLAS and OpenMP
pinned to one thread. Times are CPU time of that process; wall-clock figures
are printed beside them. Set-up is measured in SETUP_RUNS fresh processes
and reported as their median. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "spectrum", "beampattern")
SETUP_RUNS = 3
TIMEOUT_S = 170
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "BLIS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1"}

PER_LAYER = (
    # (metric, span, field, unit)
    ("signal_model.steering_vector.calls", "signal_model.steering_vector", "calls", "count"),
    ("signal_model.steering_vector.self_ms", "signal_model.steering_vector", "self_ms", "ms"),
    ("signal_model.simulate_epochs.total_ms", "signal_model.simulate_epochs", "total_ms", "ms"),
    ("signal_model.pr_received.self_ms", "signal_model.pr_received", "self_ms", "ms"),
    ("signal_model.rician_channel.calls", "signal_model.rician_channel", "calls", "count"),
    ("signal_model.rician_channel.self_ms", "signal_model.rician_channel", "self_ms", "ms"),
    ("signal_model.ris_incident.calls", "signal_model.ris_incident", "calls", "count"),
    ("ris_optimizer.solve_phase_shifts.self_ms", "ris_optimizer.solve_phase_shifts",
     "self_ms", "ms"),
    ("ris_optimizer.beampattern.calls", "ris_optimizer.beampattern", "calls", "count"),
    ("ris_optimizer.beampattern.self_ms", "ris_optimizer.beampattern", "self_ms", "ms"),
    ("pr_beamformer.beamform.self_ms", "pr_beamformer.beamform", "self_ms", "ms"),
    ("localizer.spectrum.calls", "localizer.spectrum", "calls", "count"),
    ("localizer.spectrum.self_ms", "localizer.spectrum", "self_ms", "ms"),
    ("localizer.spectrum.cells_per_us", "localizer.spectrum", "cells_per_us", "cells/us"),
    ("localizer.detect_peaks.self_ms", "localizer.detect_peaks", "self_ms", "ms"),
    ("benchmarks.music_estimate.self_ms", "benchmarks.music_estimate", "self_ms", "ms"),
    ("benchmarks.no_ris_localize.self_ms", "benchmarks.no_ris_localize", "self_ms", "ms"),
    ("benchmarks.trial_error.calls", "benchmarks.trial_error", "calls", "count"),
    ("experiments.run.total_ms", "experiments.run", "total_ms", "ms"),
    ("experiments.run.self_ms", "experiments.run", "self_ms", "ms"),
)


def run_worker(args, setup_only: bool) -> dict:
    """Start one worker process, wait for it, and return its report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def layer_metrics(layers: dict, items: int) -> dict:
    """Per-item figures from the span summary of ``items`` items."""
    out = {}
    for metric, span, what, unit in PER_LAYER:
        rec = layers[span]
        if what == "calls":
            value = rec["calls"] / items
        elif what == "cells_per_us":
            value = rec["work"] / (rec["self_ns"] / 1e3) if rec["self_ns"] else 0.0
        else:
            value = rec[what.replace("_ms", "_ns")] / 1e6 / items
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="risloc benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "risloc", "__init__.py")):
        print(f"risbench: no risloc sources under {ROOT}/src", file=sys.stderr)
        return 2

    setups = []
    if not args.trace:
        setups = [run_worker(args, setup_only=True) for _ in range(SETUP_RUNS - 1)]
    report = run_worker(args, setup_only=False)
    setups.append(report)
    for err in report["errors"]:
        print(f"risbench: check failed: {err}", file=sys.stderr)

    cpu, wall = report["item_cpu_s"], report["item_wall_s"]
    if not cpu:
        print("risbench: no item completed", file=sys.stderr)
        return 1
    n = f"n={len(cpu)} items"
    if args.trace:
        metrics = layer_metrics(report["layers"], len(cpu))
        notes = {m: n for m in metrics}
    else:
        setup_cpu = statistics.median(r["setup_cpu_s"] for r in setups)
        setup_wall = statistics.median(r["setup_wall_s"] for r in setups)
        metrics = {
            "setup_s": {"value": setup_cpu, "unit": "s"},
            "items_per_s": {"value": len(cpu) / sum(cpu), "unit": "1/s"},
            "item_ms_p50": {"value": statistics.median(cpu) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        notes = {
            "setup_s": f"n={len(setups)} processes; wall clock {setup_wall:.4g} s",
            "items_per_s": f"{n}; wall clock {len(wall) / sum(wall):.4g} 1/s",
            "item_ms_p50": f"{n}; wall clock {statistics.median(wall) * 1e3:.4g} ms",
            "peak_rss_mb": "n=1 process",
        }
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} ({notes[name]})")

    result = {"correct": not report["errors"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"result-{args.workload}-seed{args.seed}"
                                        f"-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
