"""Exact constants relating Dirac index polynomials to associated-cycle
multiplicities, for real forms of classical nilpotent orbits."""

from .closedform import closed_form_expr, constant_closed_form
from .constants import (Evaluation, LambdaDegenerateError, LeviData,
                        NonIntegerQuotientError, OrthogonalityError,
                        TermCapExceeded, alternating_sum, auto_sign_relation,
                        brute_force_sum, constant_brute_force_orig,
                        constant_brute_force_v2, default_lambda,
                        lambda_candidates, levi_data, levi_k_poly,
                        rho_n_orthogonal)
from .oracles import (SurvivingTerm, check_oracle_against_brute_force,
                      oracle_total_matches, shuffle_terms_so_star,
                      shuffle_terms_sp, shuffles, su_predicted_c,
                      surviving_terms)
from .orbits import (RealForm, SignedTableau, dominant_h, get_form,
                     h_from_partition, h_from_signed_tableau, is_very_even,
                     orbit_partition, real_forms, validate_partition,
                     weighted_dynkin)
from .rootsys import (GroupCase, Root, RootSystem, Weight, build_root_system,
                      flip, half_sum, negate, pair, type_a_positive_roots,
                      type_b_positive_roots, type_c_positive_roots,
                      type_d_positive_roots)
from .weylpoly import DimPoly, eval_dim_poly, make_dim_poly

__version__ = "0.1.0"
