"""spderk: spectral Galerkin + exponential stochastic Runge-Kutta schemes for
semilinear SPDEs with multiplicative Nemytskii noise on (0, 1).

The pieces, bottom up:

* :mod:`spderk.spectral`   -- sine eigenbasis, transforms, diagonal operator actions
* :mod:`spderk.qwiener`    -- Q-Wiener sampling, mixed integrals, coarsening, noise fields
* :mod:`spderk.nemytskii`  -- problem definitions and pointwise f/b evaluation
* :mod:`spderk.schemes`    -- one-step integrators (ERKM1.5, closed form, baselines)
* :mod:`spderk.experiments`-- Monte-Carlo convergence studies and order fitting
* :mod:`spderk.cli`        -- command-line front end (study / path / selftest / order)
"""

from .errors import (
    CapabilityError,
    ConfigError,
    DimensionError,
    DivergenceError,
    SpderkError,
    StudyError,
)
from .spectral import (
    LinearOperatorSpec,
    SineBasisGrid,
    apply_diagonal,
    diagonal_factor,
    h_r_norm,
    to_physical,
    to_spectral,
)
from .qwiener import (
    NoisePath,
    QSpec,
    coarsen,
    sample_path,
    theta_weights,
)
from .nemytskii import ProblemSpec, builtin_problem, coeff_map, eval_coeff
from .schemes import (
    EvalCounters,
    StepContext,
    erkm15_tableau,
    resolve_scheme,
    solve,
)
from .experiments import (
    ErrorRow,
    ErrorTable,
    ReferenceSpec,
    StudyConfig,
    fit_order,
    run_study,
)

__version__ = "0.1.0"
