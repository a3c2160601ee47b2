"""Holevo quantity of quantum-state ensembles and entropic upper bounds on it.

All entropies are in nats.  The core objects are DensityOperator (a validated
quantum state), DiscreteEnsemble (a probability vector over states), and
BoundReport (chi plus every bound with its slack).
"""

from .bounds import (
    BoundReport,
    FeiReport,
    aux_bound,
    count_bound,
    diameter_bound,
    fei_check,
    fei_checks,
    full_report,
    full_reports,
    pinsker_term,
    plus_diameter,
    shannon_bound,
)
from .ensemble import (
    AuxiliaryDecomposition,
    DegenerateEnsembleError,
    DiscreteEnsemble,
    build_auxiliary,
    holevo_quantity,
    mean_binary_entropy,
    member_epsilons,
)
from .entropy import (
    as_probability_vector,
    binary_entropy,
    eta,
    gibbs_entropy,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from .gallery import (
    ContinuousFamilySpec,
    OscillatorEnsembleSpec,
    discretize_continuous,
    orthogonal_ensemble,
    oscillator_closed_form,
    oscillator_ensemble,
    random_ensemble,
    random_mixed_state,
    random_pure_state,
    trine_ensemble,
)
from .linalg import (
    DensityOperator,
    EigensolverError,
    HermitianOperator,
    trace_distance,
    trace_norm,
)

__version__ = "0.1.0"

__all__ = [
    "AuxiliaryDecomposition",
    "BoundReport",
    "ContinuousFamilySpec",
    "DegenerateEnsembleError",
    "DensityOperator",
    "DiscreteEnsemble",
    "EigensolverError",
    "FeiReport",
    "HermitianOperator",
    "OscillatorEnsembleSpec",
    "as_probability_vector",
    "aux_bound",
    "binary_entropy",
    "build_auxiliary",
    "count_bound",
    "diameter_bound",
    "discretize_continuous",
    "eta",
    "fei_check",
    "fei_checks",
    "full_report",
    "full_reports",
    "gibbs_entropy",
    "holevo_quantity",
    "mean_binary_entropy",
    "member_epsilons",
    "orthogonal_ensemble",
    "oscillator_closed_form",
    "oscillator_ensemble",
    "pinsker_term",
    "plus_diameter",
    "random_ensemble",
    "random_mixed_state",
    "random_pure_state",
    "relative_entropy",
    "shannon_bound",
    "shannon_entropy",
    "trace_distance",
    "trace_norm",
    "trine_ensemble",
    "von_neumann_entropy",
]
