"""Noncommutative resistance networks at desk scale.

Finite-dimensional C*-algebras with carre-du-champ forms, Dirichlet energy
forms, Laplace operators, heat semigroups, state-space metrics, resistance
distance, Schur-complement quotients, Hodge-Dirac operators, and the
standard-deviation quotient — with every structural property executable as a
verification.
"""
from .algebra import (
    Algebra,
    Element,
    PiecewiseLinear,
    SuperOperator,
    amplify_superop,
    build_algebra,
    decode_element,
    encode_element,
    from_cells,
    functional_calculus,
    is_positive,
    left_multiplication,
    matrix_direct_sum,
    random_element,
    random_positive,
    random_self_adjoint,
    right_multiplication,
    tau_inner,
    to_cells,
)
from .cdc import (
    CdCForm,
    CdCReport,
    amplify_cdc,
    ccn_check,
    commutator_cdc,
    conductances_from_cdc,
    conjugation_superop,
    double_commutator_generator,
    gamma_from_generator,
    group_action_cdc,
    is_cdc,
    lindblad_generator,
    network_cdc,
    permutation_superop,
    spectral_triple_cdc,
)
from .energy import (
    EnergyForm,
    Laplacian,
    cdc_from_dirichlet_form,
    connectedness,
    energy_form,
    energy_form_of_laplacian,
    energy_seminorm,
    gamma_delta,
    heat_map,
    heat_semigroup,
    laplacian,
    leibniz_check,
    markov_check,
    reality_checks,
    resolvent_check,
)
from .errors import DisconnectedError, InputError, PropertyViolationError
from .dirac import (
    BimoduleSpace,
    DiracOperator,
    DiracSeminorm,
    build_bimodule,
    dirac_seminorm,
    dirac_seminorms,
    star_graph_check,
)
from .quotient import (
    QuotientData,
    central_projection,
    fiber_minimizer,
    quotient_checks,
    split,
)
from .reporting import CheckResult, Tolerances, dumps_canonical
from .resistance import (
    MarkovViolationWitness,
    NetworkMetricReport,
    ResistanceNetwork,
    all_pairs_resistance,
    is_star,
    markov_violation_witness,
    maximum_principle_check,
    metric_checks,
    network_energy_form,
    potential,
    random_network,
    random_star_network,
    resistance_distance,
)
from .states import (
    State,
    StateEmbedding,
    dual_metric,
    energy_metric,
    mixture,
    point_state,
)
from .stddev import (
    ExtendedAlgebra,
    extend,
    independent_copies_cdc,
    stddev_laplacian,
    stddev_seminorm,
)

__version__ = "0.1.0"
