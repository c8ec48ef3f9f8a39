"""Exact inference for credal networks under epistemic irrelevance.

Tight lower and upper bounds on (conditional) expectations over the joint
model induced by local credal sets and graph-derived irrelevance
assessments: a global linear program for small networks, a reduction
planner that applies the paper's theorems (marginalisation to a closed
sub-network, the law of iterated lower expectation) to every query,
linear-time recursions for chains and hidden-state models, root
bracketing for conditioning (a node given complete evidence is one more
conditional query), and brute-force oracles for verification.
"""

from .chains import TransferOperator
from .conditioning import (BracketResult, Rho, RhoEvaluator, condition,
                           hmm_rho, natural_conditional, program_rho,
                           regular_conditional, root_rho)
from .credal import (CredalSet, LinearConstraint, MassFunction,
                     binary_interval, constraints_to_vertices, singleton,
                     vacuous, vertices_to_constraints)
from .decompose import Reduction, lower_expectation, trace_lines
from .errors import (CapabilityError, ConvergenceError, CredalError,
                     HypothesisError, InputError, ModelError)
from .fileio import (Query, ValidationReport, dump_network, load_network,
                     load_network_document, load_query, network_document,
                     parse_query, validate_document)
from .graph import (Dag, ad_separated, closure, d_separated, is_closed,
                    set_relations)
from .lp import (GlobalPolytope, enumerate_joint_extreme_points,
                 lower_expectation_lp)
from .network import CredalNetwork, Event, Factor, joint_states, sub_network
from .oracle import (complete_extension_lower, complete_extension_upper,
                     irr_extreme_conditional)
from .queries import run_query

__version__ = "0.1.0"
