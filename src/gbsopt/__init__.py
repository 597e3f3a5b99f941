"""Gaussian boson sampling with threshold detectors for QUBO optimization.

Layers, bottom to top:

* :mod:`gbsopt.gaussian` — squeezed-vacuum states from a symmetric
  parameter matrix; owns theta -> Takagi -> Husimi covariance (one
  batched path for single states and stacks) and reduced states and
  vacuum marginals (one gather of Sigma_T);
* :mod:`gbsopt.torontonian` — the module (not the function of that
  name, which lives inside it): exact click-pattern probabilities,
  enumeration and chain-rule sampling;
* :mod:`gbsopt.problems` — flight-gate assignment instances, QUBO
  assembly, brute-force ground truth and the enumerated <Q>;
* :mod:`gbsopt.optim` — CVaR / expectation cost functions and the two
  training drivers; owns the closed-form <Q> and the train defaults
  (the fields of ``TrainConfig``, from which the harness and the CLI
  derive theirs);
* :mod:`gbsopt.harness` — batch sweeps producing success-fraction
  reports and the run-record format, with a CLI in :mod:`gbsopt.cli`.
"""

from .errors import (
    CapacityError,
    GbsOptError,
    GenerationError,
    InvalidStateError,
    TrainingFailedError,
)
from .gaussian import (
    GaussianState,
    TakagiFactors,
    ThetaMatrix,
    build_state,
    state_from_theta,
    takagi_decompose,
    vacuum_marginal,
)
from .harness import ExperimentPlan, SuccessReport, run_experiment, verify_report
from .optim import (
    ParameterMask,
    TrainConfig,
    TrainRecord,
    build_mask,
    cvar_exact,
    cvar_from_samples,
    expected_energy_analytic,
    train,
)
from .problems import (
    FgaInstance,
    GroundTruth,
    QuboProblem,
    assemble_qubo,
    brute_force_solve,
    expected_energy_exact,
    generate_instance,
    load_instance,
)
from .torontonian import (
    PatternDistribution,
    full_distribution,
    pattern_probability,
    sample,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "GbsOptError",
    "GenerationError",
    "InvalidStateError",
    "TrainingFailedError",
    "GaussianState",
    "TakagiFactors",
    "ThetaMatrix",
    "build_state",
    "state_from_theta",
    "takagi_decompose",
    "vacuum_marginal",
    "ExperimentPlan",
    "SuccessReport",
    "run_experiment",
    "verify_report",
    "ParameterMask",
    "TrainConfig",
    "TrainRecord",
    "build_mask",
    "cvar_exact",
    "cvar_from_samples",
    "expected_energy_analytic",
    "train",
    "FgaInstance",
    "GroundTruth",
    "QuboProblem",
    "assemble_qubo",
    "brute_force_solve",
    "expected_energy_exact",
    "generate_instance",
    "load_instance",
    "PatternDistribution",
    "full_distribution",
    "pattern_probability",
    "sample",
    "__version__",
]
