"""affinerc — a workbench for state-affine and linear reservoir computers.

The package covers five concerns, one module each:

``sequences``      bounded left-infinite inputs, weighting sequences, weighted norms
``polynomials``    matrix polynomials, certified sup-norm bounds, scalar readouts
``systems``        simulation (recursion and series), convergence certificates,
                   fading-memory Lipschitz constants
``algebra``        sums, products and generic parallel compositions of filters
``approximation``  readout training, candidate families, separation witnesses
``ensembles``      seeded stochastic input ensembles and transfer checks

Everything is deterministic given explicit seeds; every truncation reports a
certified tail bound next to the value it qualifies.
"""

from .sequences import (
    BoundedSequence,
    WeightingSequence,
    geometric_weighted_sum,
    read_sequence,
    sequence_from_csv,
    sequence_to_csv,
    time_shift,
    weighted_distance,
    weighted_norm,
    write_sequence,
)
from .polynomials import (
    ConditionReport,
    MatrixPolynomial,
    NilpotencyReport,
    NormCertificate,
    ScalarPolynomial,
    check_conditions,
    is_nilpotent,
    norm_certificate,
    poly_derivative,
    poly_direct_sum,
    poly_eval,
    poly_from_json,
    poly_kron,
    poly_mul,
    poly_to_json,
    poly_vstack,
    scalar_poly_eval,
    scalar_poly_from_json,
    scalar_poly_to_json,
    spectral_norm,
)
from .systems import (
    LinearSystem,
    SASSystem,
    Trajectory,
    default_washout,
    esp_margin,
    evaluate_batch,
    evaluate_filter,
    fmp_lipschitz_constant,
    fmp_weighting,
    linear_functional,
    linear_run,
    linear_state,
    sas_functional,
    sas_run_recursion,
    sas_run_series,
    sas_state,
    sas_terminal_states_batch,
    state_bound,
    system_from_json,
    system_to_json,
    trajectory_to_csv,
)
from .algebra import (
    ComposedSystem,
    CompositionError,
    ParallelFilter,
    generic_parallel_compose,
    linear_combine,
    sas_add,
    sas_multiply,
    short_id,
)
from .approximation import (
    ApproximationResult,
    FamilySpec,
    IllConditionedError,
    SupError,
    TargetFilter,
    TrainedModel,
    WitnessResult,
    approximate,
    generate_uniform_inputs,
    harvest_states,
    monomial_features,
    sample_candidate,
    separation_witness,
    sup_error,
    target_bounded_arma,
    target_finite_volterra,
    target_linear_iir,
    target_tanh_of_linear,
    train_readout,
)
from .ensembles import (
    InputEnsemble,
    MomentReport,
    TransferReport,
    bounded_moment_check,
    ensemble_from_csv,
    ensemble_to_csv,
    generate_ensemble,
    linf_norm,
    linf_weighted_norm,
    pathwise_apply,
    transfer_check,
)

__version__ = "0.1.0"

__all__ = [
    # sequences
    "BoundedSequence", "WeightingSequence", "weighted_norm", "weighted_distance",
    "time_shift", "geometric_weighted_sum", "sequence_to_csv", "sequence_from_csv",
    "write_sequence", "read_sequence",
    # polynomials
    "MatrixPolynomial", "ScalarPolynomial", "NormCertificate", "ConditionReport",
    "NilpotencyReport", "spectral_norm", "poly_eval", "poly_mul", "poly_direct_sum",
    "poly_vstack", "poly_kron", "poly_derivative", "norm_certificate",
    "check_conditions", "is_nilpotent", "scalar_poly_eval", "poly_to_json",
    "poly_from_json", "scalar_poly_to_json", "scalar_poly_from_json",
    # systems
    "SASSystem", "LinearSystem", "Trajectory", "sas_run_recursion", "sas_run_series",
    "sas_functional", "sas_state", "sas_terminal_states_batch", "linear_run",
    "linear_functional", "linear_state", "evaluate_filter", "evaluate_batch", "state_bound",
    "fmp_lipschitz_constant", "fmp_weighting", "esp_margin", "default_washout",
    "system_to_json", "system_from_json", "trajectory_to_csv",
    # algebra
    "CompositionError", "ComposedSystem", "ParallelFilter", "sas_add", "sas_multiply",
    "linear_combine", "generic_parallel_compose", "short_id",
    # approximation
    "TargetFilter", "FamilySpec", "TrainedModel", "SupError", "WitnessResult",
    "IllConditionedError", "ApproximationResult", "sample_candidate",
    "harvest_states", "train_readout", "sup_error", "separation_witness",
    "approximate", "generate_uniform_inputs", "monomial_features",
    "target_linear_iir", "target_finite_volterra", "target_tanh_of_linear",
    "target_bounded_arma",
    # ensembles
    "InputEnsemble", "TransferReport", "MomentReport", "generate_ensemble",
    "linf_norm", "linf_weighted_norm", "pathwise_apply", "transfer_check",
    "bounded_moment_check", "ensemble_to_csv", "ensemble_from_csv",
]
