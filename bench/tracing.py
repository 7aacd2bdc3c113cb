"""Span tracing around the layer boundaries the experiment drivers call.

The tracer replaces, for the duration of one traced run, the module
attributes that the drivers look up at call time (``harness.eigensolve``,
``ensembles.sample_wigner``, ``numpy.linalg.eigvalsh`` and so on) with
wrappers that record a span: its name, start, end and parent.  The program
itself is not modified; a refactor that rebinds one of these imports makes
the layer read zero calls, which ``test_layers.py`` catches.

A span's self time is its duration minus the time covered by its child
spans, so the self times of one run add up to the traced wall time.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from meso_spectra import cli, ensembles, master_equation, predictor, transforms
from meso_spectra.experiments import harness

# Spans opened beneath a detector span belong to the detector: the m x m
# eigvalsh inside counting_function is part of that layer's own work.
DETECTOR = "master_equation."


def _report_bytes(args, result) -> dict:
    """Bytes of the report JSON and CSV, less the wall-clock value's digits.

    The recorded wall time changes length between runs; everything else in
    the two files is fixed by the config and seed, so the count repeats.
    """
    report, path = args[0], Path(args[1])
    size = path.stat().st_size + path.with_suffix(".csv").stat().st_size
    return {"bytes": size - len(json.dumps(report.wall_clock_seconds))}


# (owner, attribute, span name, extra counters from (args, result)).  The
# owner is the module whose global the caller reads at call time.
SITES = (
    (cli, "load_config", "config.load_config", None),
    (cli, "run_experiment", "harness.run_experiment", None),
    (harness, "sample_ensemble", "ensembles.sample_ensemble", None),
    (harness, "eigensolve", "ensembles.eigensolve", None),
    (harness, "locate_outliers", "master_equation.locate_outliers",
     lambda args, result: {"roots": len(result)}),
    (harness, "predict", "predictor.predict", None),
    (harness, "aggregate", "reports.aggregate", None),
    (harness, "write_report", "reports.write_report", _report_bytes),
    (ensembles, "sample_wigner", "ensembles.sample_wigner", None),
    (ensembles, "sample_haar_frame", "ensembles.sample_haar_frame", None),
    (ensembles, "perturb_additive", "ensembles.perturb_additive", None),
    (ensembles, "perturb_multiplicative", "ensembles.perturb_multiplicative", None),
    (master_equation, "counting_function", "master_equation.counting_function", None),
    (master_equation, "check_separation", "spectral_core.check_separation", None),
    (predictor, "check_separation", "spectral_core.check_separation", None),
    (transforms, "invert_stieltjes", "transforms.invert_stieltjes", None),
    (transforms, "invert_t_transform", "transforms.invert_t_transform", None),
    (np.linalg, "eigvalsh", "harness.eigvalsh_dense", None),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in SITES))


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        # name, start, end, self time, parent span index (-1 for a root).
        self.spans: list[tuple[str, float, float, float, int]] = []
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [span index, name, start, child time]

    def _wrap(self, fn, name, measure):
        def traced(*args, **kwargs):
            if name == "harness.eigvalsh_dense" and any(
                frame[1].startswith(DETECTOR) for frame in self._stack
            ):
                return fn(*args, **kwargs)
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, 0.0, parent))
            frame = [index, name, perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counters[f"{name}.failures"] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - frame[2]
                self.spans[index] = (name, frame[2], end, duration - frame[3], parent)
                if self._stack:
                    self._stack[-1][3] += duration
            if measure is not None:
                for key, amount in measure(args, result).items():
                    self.counters[f"{name}.{key}"] += amount
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route every call site through this tracer, restoring them on exit."""
        saved = []
        try:
            for owner, attr, name, measure in SITES:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, measure))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def layer_totals(self) -> tuple[Counter, dict]:
        """Calls and summed self time per span name."""
        calls: Counter = Counter()
        busy: dict = defaultdict(float)
        for name, _, _, self_s, _ in self.spans:
            calls[name] += 1
            busy[name] += self_s
        return calls, busy
