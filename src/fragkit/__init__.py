"""fragkit: weighted-L1 analysis of continuous fragmentation kinetics.

The toolkit classifies fragmentation kernels, tests weight admissibility
conditions, constructs admissible weights by a Volterra-equation procedure,
and simulates the fragmentation semigroup on a discretized size axis with
checkable positivity, substochasticity, and mass-conservation guarantees.
"""

import os

# cap numpy's BLAS pool, the only BLAS fragkit uses, before any submodule loads numpy
if os.environ.get("FRAGKIT_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["FRAGKIT_THREADS"])

from .admissibility import (AdmissibilityReport, RatioCurve, RelativeBoundEstimate,
                            check, log_n_samples, ratio_curve, relative_bound)
from .errors import (ConfigError, ConstructionError, FragkitError, InvalidInputError,
                     InvalidKernelError, QuadratureError, StepSizeError, WeightDomainError)
from .kernels import (FragmentKernel, MassReport, RateFunction, classify_mass,
                      eval_kernel, eval_rate, rate_envelope)
from .quadrature import integrate, log_integrate
from .simulator import (DensityState, DiscreteGenerator, Grid, Trajectory, bump,
                        column_kappa, discretize, exp_decay, expm_oracle,
                        semigroup_check, simulate)
from .weight_builder import (ExpWeight, MajorantB, MajorantH, VolterraSolution,
                             WeightCertificate, build_btilde, build_h,
                             construct_weight, exp_weight_search, solve_volterra)
from .weights import (ComparisonVerdict, Weight, compare_weights, derived_weight,
                      gamma_monotone_check)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport", "ComparisonVerdict", "ConfigError", "ConstructionError",
    "DensityState", "DiscreteGenerator", "ExpWeight",
    "FragkitError", "FragmentKernel", "Grid", "InvalidInputError", "InvalidKernelError",
    "MajorantB", "MajorantH", "MassReport", "QuadratureError",
    "RateFunction", "RatioCurve", "RelativeBoundEstimate", "StepSizeError",
    "Trajectory", "VolterraSolution", "Weight",
    "WeightCertificate", "WeightDomainError", "bump", "build_btilde", "build_h",
    "check", "classify_mass", "column_kappa", "compare_weights", "construct_weight",
    "derived_weight", "discretize", "eval_kernel", "eval_rate", "exp_decay",
    "exp_weight_search", "expm_oracle", "gamma_monotone_check", "integrate",
    "log_integrate", "log_n_samples", "rate_envelope", "ratio_curve", "relative_bound",
    "semigroup_check", "simulate", "solve_volterra",
]
