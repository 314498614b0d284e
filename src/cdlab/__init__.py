"""Christoffel-Darboux kernels, Toeplitz compressions and their limit
theorems on finite quadrature measures in the plane."""

from ._backend import backend_name
from .basis import (
    OrthonormalBasis,
    WeightedSpace,
    evaluate_basis,
    orthonormalize,
)
from .equilibrium import EquilibriumMeasure, equilibrium_for, integrate
from .errors import CdlabError, NotHermitianError, RankDeficientError
from .kernel import (
    KernelTable,
    arc_indices,
    bergman_mass,
    bm_constant,
    default_eval_grid,
    diagonal_density,
    interval_indices,
    kernel_table,
    pushforward_residual,
    write_density_csv,
    write_heatmap_csv,
)
from .measure import (
    QuadratureMeasure,
    arcsine,
    circle_lebesgue,
    from_points,
    interval_lebesgue,
    scale_by,
)
from .operator import (
    SpectralMeasure,
    ToeplitzMatrix,
    algebra_defect,
    compose,
    defect_kernel_bound,
    functional_calculus,
    legendre_toeplitz,
    operator_norm,
    schatten_norm,
    spectral_statistic,
    spectrum,
    symbol_distance,
    toeplitz,
)
from .experiments import ExperimentConfig, MeasureSpec, NumericalFailure, RateFit, fit_rate, run

__version__ = "0.1.0"

__all__ = [
    "CdlabError", "EquilibriumMeasure", "ExperimentConfig", "KernelTable",
    "MeasureSpec", "NotHermitianError", "NumericalFailure", "OrthonormalBasis",
    "QuadratureMeasure", "RankDeficientError", "RateFit", "SpectralMeasure",
    "ToeplitzMatrix", "WeightedSpace", "algebra_defect", "arc_indices",
    "arcsine", "backend_name", "bergman_mass", "bm_constant", "circle_lebesgue",
    "compose", "default_eval_grid", "defect_kernel_bound", "diagonal_density",
    "equilibrium_for", "evaluate_basis", "fit_rate",
    "from_points", "functional_calculus", "integrate",
    "interval_indices", "interval_lebesgue", "kernel_table",
    "legendre_toeplitz", "operator_norm", "orthonormalize",
    "pushforward_residual", "run", "scale_by", "schatten_norm",
    "spectral_statistic", "spectrum", "symbol_distance", "toeplitz",
    "write_density_csv", "write_heatmap_csv",
]
