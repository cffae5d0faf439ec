"""graphck: exact K-theory and gauge index pairings for Cuntz-Krieger
algebras of finite directed graphs.

Everything is computed in exact arithmetic: Gaussian-rational symbolic
algebra over the spanning words, integer Smith normal forms for the
K-groups, and a direct-limit model with decidable equality for the
K-theory of the gauge fixed-point algebra.  The index pairing of a
partial-isometry class with the gauge module is evaluated by three
independent routes that must agree.
"""

__version__ = "0.1.0"

from .afcore import (GradedProjection, K0FClass, class_of_projection,
                     k0f_combine, k0f_describe, k0f_equal, k0f_is_zero,
                     k0f_zero, k1f)
from .algebra import (CKElement, CKTerm, ElementClassification,
                      GaussianRational, adjoint, classify, expectation,
                      gauge_component, grade_commutator, is_equal, is_zero,
                      linear_combine, multiply, normal_form, oracle_is_zero,
                      path_action)
from .cone import (ConeClass, cone_equal, decompose_relations, ev_star,
                   mapping_cone_k_groups, vfa_membership)
from .errors import (AdmissibilityError, ArgumentRangeError, ExprSyntaxError,
                     GraphCKError, GraphMismatchError, GraphSyntaxError,
                     HypothesisError, InternalInvariantError,
                     NotAProjectionError, SinkObstructionError)
from .exprs import format_element, parse_element
from .graphs import (Graph, GraphProperties, Path, enumerate_paths,
                     parse_graph, require_regular, transfer_matrix,
                     validate_graph, vertex_matrix)
from .intmat import (AbelianGroup, IntMatrix, SNFResult,
                     abelian_group_from_cokernel, in_stabilized_kernel,
                     smith_normal_form)
from .ktheory import (CosetClass, KTheoryReport, exactness_report,
                      graph_k_theory, j_star)
from .pairing import (AdmissibleIsometry, PairingReport, pairing,
                      pairing_crosscheck, pairing_value)
from .render import render_report, to_jsonable
