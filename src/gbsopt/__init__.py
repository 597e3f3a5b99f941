"""Gaussian boson sampling with threshold detectors for QUBO optimization.

Layers, bottom to top:

* :mod:`gbsopt.gaussian` — squeezed-vacuum states from a symmetric
  parameter matrix, in real form: a state is the two real N x N blocks
  P = (I + e^{2 theta}) / 2 and Q = (I + e^{-2 theta}) / 2 of its Husimi
  covariance, built from one scaled-and-squared Taylor series of
  e^{+-2 theta} (one batched path for single states and stacks), and
  the closed-form one- and two-mode vacuum marginals of the analytic <Q>;
* :mod:`gbsopt.torontonian` — every subset vacuum marginal
  1 / sqrt(det P_W det Q_W), from one subset-determinant kernel, and the
  exact click-pattern probabilities, enumeration and chain-rule
  sampling, each read off one superset Moebius transform of a table of
  those marginals (the inclusion-exclusion law of threshold detectors;
  Quesada, Arrazola & Killoran, PRA 98, 062322 (2018)).  Probabilities
  stay within 1.3e-15 of a 40-digit evaluation up to spectral radius 6
  and within 1.2e-14 where one mode is squeezed to r = 5.5; the
  enumeration holds tables of 2^N floats and one 1 MiB kernel batch.
  One mode cap, 20 (``BRUTE_FORCE_CAP``), bounds every 2^N table in the
  package: the click law, the pattern energies, instances and plans;
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
    state_from_theta,
    takagi_decompose,
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
    vacuum_marginal,
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
