"""One benchmark process: set up, run one workload as a closed loop, check.

Run from the root of a risloc checkout; ``run.py`` starts this file with BLAS
threads pinned. Started directly, it runs with the machine's default
threading. It prints one JSON line with the raw samples.

    python3 risbench/worker.py --workload spectrum --seed 1 --seconds 20 --t0 "$(date +%s.%N)"
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import resource
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from risloc import experiments, localizer  # noqa: E402
from tracing import Patch, Tracer  # noqa: E402

CONFIGS = os.path.join(ROOT, "scripts", "configs")
OUT = os.path.join(ROOT, "risbench", "out")

# Each workload is a shipped config; only the seed changes between items.
# Sweep items run one trial per array size (3 trials, 12 SNR x 3 methods each).
WORKLOADS = {
    "sweep": ("mse_sweep.yaml", "run_mse_sweep", {"trials": 1}),
    "spectrum": ("spectrum.yaml", "run_spectrum", {}),
    "beampattern": ("beampattern.yaml", "run_beampattern", {}),
}


def item_seed(seed: int, item: int) -> int:
    """Seed of item ``item`` of a run; item 0 is the warm-up."""
    return seed * 1_000_003 + item


class Workload:
    def __init__(self, name: str, work_dir: str):
        cfg_file, fn_name, overrides = WORKLOADS[name]
        self.name = name
        self.cfg = dataclasses.replace(
            experiments.load_config(os.path.join(CONFIGS, cfg_file)), **overrides)
        self.fn_name = fn_name
        self.work_dir = work_dir
        # for the run-level checks: sweep rows, and per acquisition whether
        # every target was found
        self.trials = []
        self.found_all = []

    def run(self, seed: int):
        # looked up per call, so the traced binding is the one called
        return getattr(experiments, self.fn_name)(self.cfg, seed=seed, out_dir=self.work_dir)

    def check(self, result, timed: bool) -> list:
        cfg = self.cfg
        if self.name == "spectrum":
            truths = cfg.scene_spec["target_aoas_ris"]
            if timed:
                self.found_all.append(
                    len(checks.matched_truths(result.peaks, truths)) == len(truths))
            return checks.check_spectrum(self.work_dir, result, truths,
                                         cfg.localizer.threshold)
        if self.name == "beampattern":
            return checks.check_beampattern(self.work_dir, cfg.beampattern_placements)
        n_rows = (cfg.trials * len(cfg.m_sweep) * len(cfg.snr_sweep_db)
                  * len(cfg.methods))
        errors, rows = checks.check_sweep_item(self.work_dir, n_rows)
        if timed:
            self.trials.extend(rows)
        return errors

    def check_run(self) -> list:
        if self.name == "sweep":
            return checks.check_sweep_run(self.trials, self.cfg.mse_target_deg2)
        if self.name == "spectrum" and self.found_all:
            return checks.check_detection_rate(self.found_all)
        return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, default=None,
                    help="wall-clock time the process was started (default: now)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after the warm-up item and report set-up time")
    args = ap.parse_args(argv)
    t0 = time.time() if args.t0 is None else args.t0

    work_dir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        return _run(args, t0, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, t0: float, work_dir: str) -> int:
    wl = Workload(args.workload, work_dir)

    # warm-up item; its first localizer.spectrum call is kept for the kernel check
    captured = []
    original = localizer.spectrum

    def capture(*call_args, **kwargs):
        res = original(*call_args, **kwargs)
        if not captured:
            bound = inspect.signature(original).bind(*call_args, **kwargs)
            captured.append((bound.arguments, res))
        return res

    with Patch(original, capture):
        warm = wl.run(item_seed(args.seed, 0))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    setup = {"setup_cpu_s": usage.ru_utime + usage.ru_stime,
             "setup_wall_s": time.time() - t0}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    errors = wl.check(warm, timed=False)
    tracer = Tracer() if args.trace else None
    # item time is CPU time (user + system) of this single-threaded process;
    # wall time, which also counts time the machine gave to others, is kept
    # alongside
    item_cpu, item_wall, attempted, failed = [], [], 0, 0
    clock, cpu = time.perf_counter, time.process_time
    start = clock()
    if tracer is not None:
        tracer.__enter__()
    try:
        while clock() - start < args.seconds:
            attempted += 1
            if tracer is not None:
                tracer.item = attempted
            t, c = clock(), cpu()
            try:
                result = wl.run(item_seed(args.seed, attempted))
            except Exception:  # an item that raises is counted, and the loop goes on
                failed += 1
                traceback.print_exc()
                continue
            item_cpu.append(cpu() - c)
            item_wall.append(clock() - t)
            errors += wl.check(result, timed=True)
    finally:
        if tracer is not None:
            tracer.__exit__(None, None, None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors += wl.check_run()
    if captured:
        errors += checks.check_nlms_kernel(*captured[0])

    report = {**setup, "item_cpu_s": item_cpu, "item_wall_s": item_wall,
              "attempted": attempted,
              "failed": failed, "peak_rss_mb": peak_rss_mb, "errors": errors}
    if tracer is not None:
        report["layers"] = tracer.summary()
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv.gz"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
