"""tysys: exact construction, solving, and cross-verification of the T- and
Y-systems attached to tamely laced generalized Cartan matrices, together with
the bipartite cluster mutation dynamics realizing the simply laced restricted
systems."""

from .cartan import (
    CartanMatrix,
    bipartite_double,
    bipartition,
    is_simply_laced,
    is_tamely_laced,
    new_cartan,
)
from .cluster import (
    ExchangeMatrix,
    Seed,
    SequenceResult,
    b_of_c,
    check_b1,
    check_b2,
    check_bb,
    check_tb,
    check_yb,
    correspondence_check,
    laurent_check,
    mutate_matrix,
    mutate_seed,
    new_exchange_matrix,
    run_sequence,
    square_product,
    t_to_y_b,
)
from .exactmath import (
    LaurentPoly,
    RationalFunction,
    SemifieldElement,
    evaluate,
    gens,
    laurent_divide_exact,
    one_plus,
    random_nonzero_rational,
)
from .tsystem import (
    LatticeVar,
    SystemSpec,
    TRelation,
    ValueTable,
    check_t_solution,
    enumerate_relations,
    identity_check_1,
    identity_check_2,
    m_term,
    m_term_unified,
    propagate_t,
    s_term,
    t_relation,
    table_from_json,
)
from .ysystem import (
    YRelation,
    check_y_solution,
    claim_identities_check,
    covered_y_relations,
    detect_period,
    enumerate_y_relations,
    propagate_y,
    roundtrip_check,
    t_to_y,
    y_relation,
    y_relation_via_transpose,
    y_to_t,
    z_term,
)

__version__ = "0.1.0"
