"""Noncommutative resistance networks at desk scale.

Finite-dimensional C*-algebras with carre-du-champ forms, Dirichlet energy
forms, Laplace operators, heat semigroups, state-space metrics, resistance
distance, Schur-complement quotients, Hodge-Dirac operators, and the
standard-deviation quotient — with every structural property executable as a
verification.

The package namespace holds the entry points of the README's library tour;
every other name is imported from its module.
"""
from .algebra import (
    Algebra,
    Element,
    SuperOperator,
    build_algebra,
    functional_calculus,
    tau_inner,
)
from .cdc import (
    amplify_cdc,
    ccn_check,
    commutator_cdc,
    conductances_from_cdc,
    gamma_from_generator,
    group_action_cdc,
    is_cdc,
    network_cdc,
    spectral_triple_cdc,
)
from .dirac import DiracOperator, build_bimodule, dirac_seminorm, dirac_seminorms, star_graph_check
from .energy import (
    cdc_from_dirichlet_form,
    connectedness,
    energy_form,
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
from .quotient import QuotientData, fiber_minimizer, quotient_checks, split
from .resistance import (
    ResistanceNetwork,
    all_pairs_resistance,
    markov_violation_witness,
    maximum_principle_check,
    metric_checks,
    potential,
    resistance_distance,
)
from .states import State, StateEmbedding, dual_metric, energy_metric, point_state
from .stddev import (
    extend,
    independent_copies_cdc,
    stddev_laplacian,
    stddev_seminorm,
    stddev_seminorms,
)

__version__ = "0.1.0"
