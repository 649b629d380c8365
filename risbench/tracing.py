"""Call spans around the public functions of the risloc modules.

A traced function is rebound, for the duration of a ``Tracer`` context, in
every ``risloc`` module that holds it: the module that defines it and every
module that bound it with ``from .x import f``. Spans are kept in memory as
tuples and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def _spectrum_cells(data, cfg, *args, **kwargs) -> int:
    # N_epoch x grid x L: one complex multiply-accumulate chain per cell
    return data.n_epoch * cfg.grid.size * data.n_samples


# (module, function, span name, work per call computed from its arguments)
TRACED: Sequence[Tuple[str, str, str, Optional[Callable]]] = (
    ("signal_model", "steering_vector", "signal_model.steering_vector", None),
    ("signal_model", "simulate_epochs", "signal_model.simulate_epochs", None),
    ("signal_model", "pr_received", "signal_model.pr_received", None),
    ("signal_model", "rician_channel", "signal_model.rician_channel", None),
    ("signal_model", "ris_incident", "signal_model.ris_incident", None),
    ("ris_optimizer", "solve_phase_shifts", "ris_optimizer.solve_phase_shifts", None),
    ("ris_optimizer", "beampattern", "ris_optimizer.beampattern", None),
    ("pr_beamformer", "beamform", "pr_beamformer.beamform", None),
    ("localizer", "spectrum", "localizer.spectrum", _spectrum_cells),
    ("localizer", "detect_peaks", "localizer.detect_peaks", None),
    ("benchmarks", "music_estimate", "benchmarks.music_estimate", None),
    ("benchmarks", "no_ris_localize", "benchmarks.no_ris_localize", None),
    ("benchmarks", "trial_error", "benchmarks.trial_error", None),
    ("experiments", "run_spectrum", "experiments.run", None),
    ("experiments", "run_mse_sweep", "experiments.run", None),
    ("experiments", "run_beampattern", "experiments.run", None),
)


def rebind(original, replacement, package: str = "risloc") -> List[Tuple[object, str]]:
    """Point every module-level name of ``package`` bound to ``original`` at
    ``replacement``. Returns the (module, name) pairs changed."""
    changed = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


class Patch:
    """Context manager that rebinds one function everywhere in risloc."""

    def __init__(self, original, replacement):
        self.original = original
        self.replacement = replacement
        self._changed: List[Tuple[object, str]] = []

    def __enter__(self):
        self._changed = rebind(self.original, self.replacement)
        if not self._changed:
            raise RuntimeError(f"{self.original!r} is bound in no risloc module")
        return self

    def __exit__(self, *exc):
        for mod, attr in self._changed:
            setattr(mod, attr, self.original)
        self._changed = []
        return False


class Tracer:
    """Records a span per call of each function in ``TRACED``.

    A span is (name index, start ns, end ns, parent span index or -1, item,
    work). Times are process CPU time, the clock the item times use. ``item`` is whatever the caller last set, so spans can be grouped
    by benchmark item.
    """

    def __init__(self, traced=TRACED):
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self.item = -1
        self._patches: List[Patch] = []
        for mod_name, func_name, span_name, work in traced:
            mod = importlib.import_module(f"risloc.{mod_name}")
            original = getattr(mod, func_name)
            if span_name not in self._name_index:
                self._name_index[span_name] = len(self.names)
                self.names.append(span_name)
            self._patches.append(Patch(original, self._wrap(
                original, self._name_index[span_name], work)))

    def _wrap(self, fn, name_id: int, work):
        spans, stack = self.spans, self._stack
        clock = time.process_time_ns  # the clock the item times use

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)  # reserve the slot so children index after it
            stack.append(idx)
            cells = work(*args, **kwargs) if work is not None else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, self.item, cells)

        return traced

    def __enter__(self):
        for p in self._patches:
            p.__enter__()
        return self

    def __exit__(self, *exc):
        for p in reversed(self._patches):
            p.__exit__(*exc)
        return False

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total ns, self ns and work.

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap, since calls are sequential.
        """
        covered = [0] * len(self.spans)
        for name_id, t0, t1, parent, _item, _cells in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0, "work": 0}
               for name in self.names}
        for idx, (name_id, t0, t1, _parent, _item, cells) in enumerate(self.spans):
            rec = out[self.names[name_id]]
            rec["calls"] += 1
            rec["total_ns"] += t1 - t0
            rec["self_ns"] += t1 - t0 - covered[idx]
            rec["work"] += cells
        return out

    def write(self, path: str) -> None:
        """Write every span as one CSV row, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("span,name,parent,item,start_ns,end_ns,work\n")
            for idx, (name_id, t0, t1, parent, item, cells) in enumerate(self.spans):
                fh.write(f"{idx},{self.names[name_id]},{parent},{item},{t0},{t1},{cells}\n")
