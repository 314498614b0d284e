"""k-sweep experiments: convergence tables for the limit theorems.

Each run writes a CSV with one row per k: the measured quantity, the
closed-form limit (taken from the equilibrium module where one exists), the
absolute gap, and wall time.  Every file of a run is written to
`<path>.tmp` and renamed into place only once all of them are complete, so
a failed run leaves no new file and any previous one as it was.
"""

import contextlib
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import equilibrium, kernel, measure, operator, symbols
from ._csvio import write_csv
from .basis import WeightedSpace, orthonormalize

# What each experiment reads besides k_values, measure_spec and
# output_path, with its defaults: the config rejects any other setting, the
# CLI offers only these flags, and _compute_row takes its defaults from here.
# Names and numbers only: the functions stay on their modules, where a
# tracer may wrap them.  Regions default per support (_DEFAULT_REGIONS).
SETTINGS = {
    "szego": {"symbol_specs": {"f": "cos", "g": "square"}},   # g: spectral function
    "algebra": {"symbol_specs": {"f": "cos", "g": "sin"}, "p": 2.0},
    "offdiag": {"regions": {"a": None, "b": None}},
    "heatmap": {},
    "bm": {},
    "symbol_distance": {"symbol_specs": {"f": "cos", "g": "one"}},
}
MEASURE_KINDS = ("circle", "interval", "arcsine")

_DEFAULT_REGIONS = {
    "circle": {"a": "arc:0,1.5707963267948966", "b": "arc:3.141592653589793,4.71238898038469"},
    "interval": {"a": "interval:-0.9,-0.3", "b": "interval:0.3,0.9"},
}


class NumericalFailure(RuntimeError):
    """An experiment row could not be computed; carries the offending k."""

    def __init__(self, k, cause):
        super().__init__(f"numerical failure at k={k}: {cause}")
        self.k = k
        self.cause = cause


def _is_number(value, kind=numbers.Integral):
    """A number of the kind, but not a bool: JSON true is no count or exponent."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class MeasureSpec:
    kind: str = "circle"          # circle | interval | arcsine
    nodes_per_k: int = 4          # node count rule: max(nodes_per_k * k, min_nodes)
    min_nodes: int = 256

    def __post_init__(self):
        if self.kind not in MEASURE_KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        for name, low in (("nodes_per_k", 0), ("min_nodes", 1)):
            value = getattr(self, name)
            if not _is_number(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")

    def node_count(self, k):
        return max(self.nodes_per_k * k, self.min_nodes)

    def build(self, k):
        # looked up at each call, where a tracer may have wrapped them
        rules = {"circle": measure.circle_lebesgue, "interval": measure.interval_lebesgue,
                 "arcsine": measure.arcsine}
        return rules[self.kind](self.node_count(k))


@dataclass
class ExperimentConfig:
    experiment: str
    k_values: list
    measure_spec: MeasureSpec = field(default_factory=MeasureSpec)
    symbol_specs: dict = field(default_factory=dict)
    p: float | None = None        # None: not given, the default applies
    regions: dict = field(default_factory=dict)
    output_path: str = "report.csv"

    def __post_init__(self):
        if not (isinstance(self.experiment, str) and self.experiment in SETTINGS):
            raise ValueError(f"unknown experiment {self.experiment!r}")
        reads = SETTINGS[self.experiment]
        if not isinstance(self.k_values, (list, tuple)):
            raise ValueError(f"k_values must be a list of integers, got {self.k_values!r}")
        ks = list(self.k_values)
        if not ks:
            raise ValueError("k_values must be nonempty")
        if not all(_is_number(k) for k in ks):
            raise ValueError(f"k_values must be integers, got {ks!r}")
        if any(k < 1 for k in ks):
            raise ValueError("k_values must be positive")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("k_values must be strictly ascending")
        if self.experiment == "offdiag" and len(ks) < 3:
            raise ValueError("offdiag needs at least 3 k values to fit a rate")
        self.k_values = [int(k) for k in ks]
        if self.p is not None:
            if "p" not in reads:
                raise ValueError(f"{self.experiment} does not read p")
            if not (_is_number(self.p, numbers.Real) and math.isfinite(self.p) and self.p >= 1):
                raise ValueError(f"p must be finite and >= 1, got {self.p!r}")
            self.p = float(self.p)
        if not (isinstance(self.output_path, str) and self.output_path):
            raise ValueError(f"output_path must be a nonempty string, got {self.output_path!r}")
        for name in ("symbol_specs", "regions"):
            spec = getattr(self, name)
            if not (isinstance(spec, dict) and all(isinstance(v, str) for v in spec.values())):
                raise ValueError(f"{name} must map names to strings, got {spec!r}")
            known = sorted(reads.get(name, ()))
            unknown = set(spec) - set(known)
            if unknown:
                raise ValueError(f"unknown {name} keys: {', '.join(sorted(map(str, unknown)))}"
                                 f" ({self.experiment} reads {known})")
        for key, val in self.symbol_specs.items():
            if self.experiment == "szego" and key == "g":
                symbols.resolve_spectral(val)
            else:
                symbols.resolve_symbol(val)
        for sel in self.regions.values():
            _check_region_syntax(sel)

    @classmethod
    def from_dict(cls, doc):
        """The config of a JSON document or of the CLI flags."""
        if not isinstance(doc, dict):
            raise ValueError(f"a config must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        spec = doc.get("measure_spec", {})
        if not isinstance(spec, dict):
            raise ValueError(f"measure_spec must be a JSON object, got {spec!r}")
        unknown = set(spec) - {f.name for f in fields(MeasureSpec)}
        if unknown:
            raise ValueError(f"unknown measure_spec keys: {', '.join(sorted(unknown))}")
        return cls(**{**doc, "measure_spec": MeasureSpec(**spec)})

    @classmethod
    def from_json_file(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _check_region_syntax(spec):
    tag, _, args = spec.partition(":")
    try:
        lo, hi = (float(t) for t in args.split(","))
    except ValueError as exc:
        raise ValueError(f"bad region spec {spec!r}") from exc
    if tag not in ("arc", "interval"):
        raise ValueError(f"unknown region type in {spec!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"region bounds must be finite in {spec!r}")
    return tag, lo, hi


def resolve_region(spec, mu):
    """Index set from an "arc:start,end" or "interval:lo,hi" selector."""
    tag, lo, hi = _check_region_syntax(spec)
    if tag == "arc":
        return kernel.arc_indices(mu, lo, hi)
    return kernel.interval_indices(mu, lo, hi)


@dataclass(frozen=True)
class RateFit:
    slope: float
    residual: float


def fit_rate(series):
    """Least-squares slope of log(value) against log(k).

    series: iterable of (k, value) with at least 3 strictly positive values.
    """
    pts = [(float(k), float(v)) for k, v in series]
    if len(pts) < 3:
        raise ValueError("degenerate-series: need at least 3 points")
    if any(v <= 0 for _, v in pts):
        raise ValueError("degenerate-series: values must be positive")
    lk = np.log([k for k, _ in pts])
    lv = np.log([v for _, v in pts])
    design = np.column_stack([lk, np.ones_like(lk)])
    sol, *_ = np.linalg.lstsq(design, lv, rcond=None)
    resid = lv - design @ sol
    return RateFit(slope=float(sol[0]),
                   residual=float(np.sqrt(np.mean(resid ** 2))))


def _heatmap_side_paths(output_path, k):
    stem, ext = os.path.splitext(output_path)
    ext = ext or ".csv"
    return f"{stem}_heatmap_k{k}{ext}", f"{stem}_density_k{k}{ext}"


def _stage(staged, path):
    """Temp path to write `path` to; run() renames it when the run succeeds."""
    staged[path] = f"{path}.tmp"
    return staged[path]


def _compute_row(cfg, k, staged):
    """(quantity, limit) for one k of the configured experiment."""
    mu = cfg.measure_spec.build(k)
    bs = orthonormalize(mu, WeightedSpace(degree_bound=k - 1, tensor_power=k))
    exp = cfg.experiment
    specs = {**SETTINGS[exp].get("symbol_specs", {}), **cfg.symbol_specs}

    if exp == "szego":
        _, f = symbols.resolve_symbol(specs["f"])
        _, g = symbols.resolve_spectral(specs["g"])
        t = operator.toeplitz(bs, mu, f)
        quantity = operator.spectral_statistic(t, g)
        nu = equilibrium.equilibrium_for(mu)
        limit = equilibrium.integrate(nu, lambda pts: g(np.asarray(f(pts), dtype=float)))
        return quantity, limit

    if exp == "algebra":
        _, f = symbols.resolve_symbol(specs["f"])
        _, g = symbols.resolve_symbol(specs["g"])
        p = SETTINGS[exp]["p"] if cfg.p is None else cfg.p
        return operator.algebra_defect(bs, mu, f, g, p), 0.0

    if exp == "offdiag":
        regions = dict(_DEFAULT_REGIONS.get(mu.support_tag, {}))
        regions.update(cfg.regions)
        if "a" not in regions or "b" not in regions:
            raise ValueError("offdiag needs regions 'a' and 'b'")
        idx_a = resolve_region(regions["a"], mu)
        idx_b = resolve_region(regions["b"], mu)
        mass = kernel.bergman_mass(bs, mu, idx_a, idx_b)
        if not mass > 0:
            raise ValueError(f"off-diagonal mass {mass!r} is not positive, no rate to fit")
        return mass, 0.0

    if exp == "heatmap":
        table = kernel.kernel_table(bs, mu)
        hm_path, dens_path = _heatmap_side_paths(cfg.output_path, k)
        kernel.write_heatmap_csv(table, _stage(staged, hm_path))
        kernel.write_density_csv(table, mu, _stage(staged, dens_path))
        all_idx = np.arange(len(mu))
        # every equilibrium measure is a probability measure
        return kernel.bergman_mass(bs, mu, all_idx, all_idx), 1.0

    if exp == "bm":
        bk = kernel.bm_constant(bs, kernel.default_eval_grid(mu))
        if not (math.isfinite(bk) and bk > 0):
            raise ValueError(f"Bernstein-Markov constant {bk!r} is not finite and positive")
        return float(np.log(bk) / k), 0.0

    if exp == "symbol_distance":
        _, f = symbols.resolve_symbol(specs["f"])
        _, g = symbols.resolve_symbol(specs["g"])
        quantity = operator.symbol_distance(bs, mu, f, g)
        nu = equilibrium.equilibrium_for(mu)
        limit = equilibrium.integrate(
            nu, lambda pts: np.abs(np.asarray(f(pts), float) - np.asarray(g(pts), float)))
        return quantity, limit

    raise ValueError(f"unknown experiment {exp!r}")


def run(cfg):
    """Execute the configured k-sweep and write the report CSV.

    Returns the list of row dicts.  Raises NumericalFailure with the
    offending k when a row cannot be computed, and OSError when a file
    cannot be written; no file is written or replaced then.
    """
    staged = {}   # output path -> temp path it is written to
    try:
        rows = []
        for k in cfg.k_values:
            t0 = time.perf_counter()
            try:
                quantity, limit = _compute_row(cfg, k, staged)
            except (NumericalFailure, OSError):
                raise
            except Exception as exc:
                raise NumericalFailure(k, exc) from exc
            rows.append({
                "k": k,
                "n_k": k,
                "quantity": quantity,
                "limit": limit,
                "gap": abs(quantity - limit),
                "seconds": time.perf_counter() - t0,
            })

        footer = ()
        if cfg.experiment == "offdiag":
            fit = fit_rate([(r["k"], r["quantity"]) for r in rows])
            footer = (f"# fitted_slope,{fit.slope!r}\n", f"# fit_residual,{fit.residual!r}\n")
        columns = ("k", "n_k", "quantity", "limit", "gap")
        block = (*([r[c] for r in rows] for c in columns),
                 [f"{r['seconds']:.6f}" for r in rows])
        write_csv(_stage(staged, cfg.output_path), [*columns, "seconds"], [block], footer)
        for path, tmp_path in staged.items():
            os.replace(tmp_path, path)
    except BaseException:
        for tmp_path in staged.values():
            with contextlib.suppress(OSError):
                os.remove(tmp_path)
        raise
    return rows
