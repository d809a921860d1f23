"""Bivariate orthogonal-polynomial surface fitting with curvature
regularization and cross-validated strength selection."""

from .basis import basis_dy, basis_values, degree_block
from .dataset import (DataSplit, NormalizationMap, NormalizedDataset,
                      SplitConfig, load_dataset, load_points, normalize,
                      save_dataset, split)
from .errors import (DegenerateAxisError, DegenerateFitError,
                     InsufficientDataError, ModelFormatError, OrthofitError,
                     ParseError)
from .fit import (FitBasis, FitConfig, FitResult, fit_surface,
                  regularized_coefficient, solve)
from .model import (GridKernel, SurfaceModel, dZ_dY, entropy_change,
                    eval_monomial, eval_ortho, eval_physical, load_model,
                    save_model, to_monomial)
from .ortho import (OrthoBasis, OrthoBuilder, PrecisionMode,
                    orthogonality_defect)
from .select import (SweepReport, ValidationRecord, group_error,
                     lambda_sweep, overfit_degree, select_model,
                     sweep_to_csv, sweep_to_json)
from .synth import SplitMix64, SynthSpec, generate

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
