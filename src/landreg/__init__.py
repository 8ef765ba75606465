"""Landmark-based registration transforms.

Scattered-data interpolation transforms R^m -> R^m (m <= 3) built from
landmark pairs: global radial-kernel interpolants with polynomial tails,
tensor products of univariate Wendland or Lobachevsky-spline kernels, and
the locality-preserving modified Shepard's method.  A benchmark lab
regenerates the standard square/circle test deformations and a real-life
landmark set, sweeps shape parameters and reports RMSE optima; the regcli
command exposes the whole pipeline on files.
"""

from .bench import (CaseSpec, EvaluationGrid, SweepReport, default_grid,
                    gen_case, real_life_run, rmse, sweep)
from .kernels import (Gaussian, GeneralizedMultiquadric, KernelError,
                      ThinPlateSpline, Wendland1D, WendlandRadial,
                      eval_radial, eval_univariate, polynomial_tail_degree,
                      support_radius)
from .landmarks import LandmarkSet
from .lobachevsky import (LobachevskySpline, eval_fn_explicit,
                          eval_fn_recurrence, eval_fn_star)
from .shepard import (NodalSolveError, ShepardConfig, ShepardTransform,
                      build_nodal_interpolants, build_shepard_transform,
                      nearest_landmarks)
from .transform import (GlobalRadialTransform, SolveError,
                        TensorProductTransform, Transformation,
                        solve_transform)

__version__ = "0.1.0"

__all__ = [
    "CaseSpec", "EvaluationGrid", "Gaussian", "GeneralizedMultiquadric",
    "GlobalRadialTransform", "KernelError", "LandmarkSet",
    "LobachevskySpline", "NodalSolveError", "ShepardConfig",
    "ShepardTransform", "SolveError", "SweepReport", "TensorProductTransform",
    "ThinPlateSpline", "Transformation", "Wendland1D", "WendlandRadial",
    "build_nodal_interpolants", "build_shepard_transform", "default_grid",
    "eval_fn_explicit", "eval_fn_recurrence", "eval_fn_star", "eval_radial",
    "eval_univariate",
    "gen_case", "nearest_landmarks", "polynomial_tail_degree",
    "real_life_run", "rmse", "solve_transform", "support_radius", "sweep",
]
