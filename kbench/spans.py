"""Spans around the public cdlab functions that `cdlab.experiments` calls.

The benchmark installs these wrappers in its own worker process; cdlab
itself carries no tracing.  A span is [name, start, end, parent index],
kept in memory and written out when the sweep ends.  Health figures that
cdlab computes and throws away are taken from each call's result inside a
`trace.diag` span, which is left out of every layer's time.

A separate pass records peak memory with tracemalloc switched on only
inside the calls that allocate the large arrays, so no timing is taken
while it runs.
"""

import importlib
import time
import tracemalloc

import numpy as np

MAIN = "experiments.main"
DIAG = "trace.diag"

# (module, attribute, span name).  experiments imports `orthonormalize` by
# name, so the basis span wraps that binding; the rest are looked up on
# their module at call time.
TARGETS = (
    ("cdlab.measure", "circle_lebesgue", "measure.build"),
    ("cdlab.measure", "interval_lebesgue", "measure.build"),
    ("cdlab.measure", "arcsine", "measure.build"),
    ("cdlab.experiments", "orthonormalize", "basis.orthonormalize"),
    ("cdlab.kernel", "kernel_table", "kernel.kernel_table"),
    ("cdlab.kernel", "bergman_mass", "kernel.bergman_mass"),
    ("cdlab.kernel", "bm_constant", "kernel.bm_constant"),
    ("cdlab.kernel", "write_heatmap_csv", "kernel.write_heatmap"),
    ("cdlab.kernel", "write_density_csv", "kernel.write_density"),
    ("cdlab.operator", "toeplitz", "operator.toeplitz"),
    ("cdlab.operator", "spectral_statistic", "operator.spectral_statistic"),
    ("cdlab._backend", "eval_recurrence", "_backend.eval_recurrence"),
    ("cdlab._backend", "pair_mass", "_backend.pair_mass"),
    ("cdlab._backend", "row_weighted_sumsq", "_backend.row_weighted_sumsq"),
    ("cdlab._backend", "defect_pair_sum", "_backend.defect_pair_sum"),
)

TIMED_LAYERS = (
    "measure.build",
    "basis.orthonormalize",
    "kernel.kernel_table",
    "kernel.bergman_mass",
    "kernel.bm_constant",
    "kernel.write_heatmap",
    "kernel.write_density",
    "operator.toeplitz",
    "operator.spectral_statistic",
)

PEAK_LAYERS = ("basis.orthonormalize", "kernel.kernel_table", "kernel.bm_constant")

MIB = 1024.0 * 1024.0


# ---------------------------------------------------------------------------
# health figures, numpy only

def orthonormality_defect(q, block=256):
    """max |Q^* Q - I| over the columns of Q."""
    n = q.shape[1]
    worst = 0.0
    for lo in range(0, n, block):
        g = q.conj().T @ q[:, lo:lo + block]
        g[np.arange(lo, min(lo + block, n)), np.arange(g.shape[1])] -= 1.0
        worst = max(worst, float(np.max(np.abs(g))))
    return worst


def pushforward_residual(values, diag, weights, block=512):
    """max_a |sum_b |K[a,b]|^2 w_b - K[a,a]| / max(1, K[a,a])."""
    worst = 0.0
    for lo in range(0, values.shape[0], block):
        rows = values[lo:lo + block]
        mass = (rows.real ** 2 + rows.imag ** 2) @ weights
        d = diag[lo:lo + block]
        worst = max(worst, float(np.max(np.abs(mass - d) / np.maximum(1.0, d))))
    return worst


def _basis_health(result, args):
    return {"basis.orthonormality_defect": orthonormality_defect(result.node_values)}


def _table_health(result, args):
    mu = args[1]
    return {"kernel.pushforward_residual":
            pushforward_residual(result.values, result.diag, np.asarray(mu.weights))}


def _toeplitz_health(result, args):
    return {"operator.toeplitz_asymmetry": float(result.asymmetry)}


DIAGNOSTICS = {
    "basis.orthonormalize": _basis_health,
    "kernel.kernel_table": _table_health,
    "operator.toeplitz": _toeplitz_health,
}
HEALTH_FIGURES = ("basis.orthonormality_defect", "kernel.pushforward_residual",
                  "operator.toeplitz_asymmetry")


# ---------------------------------------------------------------------------
# recording

class Tracer:
    """In-memory span recorder for one sweep."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1]
        self.values = {}    # health figure name -> list of values
        self._stack = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def wrapper(self, name, fn):
        diagnose = DIAGNOSTICS.get(name)

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if diagnose is not None:
                for key, val in self.call(DIAG, diagnose, result, args).items():
                    self.values.setdefault(key, []).append(val)
            return result

        return traced


class PeakRecorder:
    """Peak traced allocation per call, in MiB, for the PEAK_LAYERS."""

    def __init__(self):
        self.peaks = {}

    def wrapper(self, name, fn):
        if name not in PEAK_LAYERS:
            return fn

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peaks.setdefault(name, []).append(peak / MIB)

        return measured


def install(recorder):
    """Replace every target with recorder.wrapper(span, original).

    Returns a function that puts the originals back.
    """
    saved = []
    for module_name, attr, span in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, recorder.wrapper(span, original))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


# ---------------------------------------------------------------------------
# per-layer figures of one traced sweep

def _duration(span):
    return span[2] - span[1]


def layer_metrics(spans, values):
    """Per-layer metrics of one traced sweep.

    Layer times sum over the sweep's rows; health figures take the worst
    row.  experiments.self_s is the main span minus its direct children,
    and sweep_s the main span minus the health-figure work.
    """
    main = [i for i, s in enumerate(spans) if s[0] == MAIN]
    if len(main) != 1:
        raise ValueError(f"expected one {MAIN} span, found {len(main)}")
    root = main[0]
    out = {f"{layer}_s": 0.0 for layer in TIMED_LAYERS}
    for s in spans:
        if s[0] in TIMED_LAYERS:
            out[f"{s[0]}_s"] += _duration(s)
    children = sum(_duration(s) for s in spans if s[3] == root)
    diag = sum(_duration(s) for s in spans if s[0] == DIAG)
    out["experiments.self_s"] = _duration(spans[root]) - children
    out["sweep_s"] = _duration(spans[root]) - diag
    for key in HEALTH_FIGURES:
        out[key] = max(values.get(key, [0.0]))
    return out


def peak_metrics(peaks):
    return {f"{layer}_peak_mib": max(peaks.get(layer, [0.0])) for layer in PEAK_LAYERS}

