"""Rewriting systems and verification harnesses for AI and CI monoids.

The two rewriting systems live in rewrite_a and rewrite_m, on the shared
driver in rewrite; words, the congruence oracle and the rank-2
classification in words and monoid_core; the Garside element, the linear
representation and the cube-condition counterexample in garside, linrep
and cube.
"""

from .words import (Word, alternating, b_equivalent, b_reduced_form,
                    commute_sort, descending_run, descent_inversions,
                    format_word, nabla, parse_word, random_word,
                    validate_word)
from .monoid_core import (CIMatrix, FiniteMonoid, INFINITY, OracleVerdict,
                          Presentation, Report, ai_presentation, bfs_equal,
                          chain_ci_matrix, ci_presentation,
                          congruence_closure, hasse_dot, is_lattice,
                          left_division_order, load_ci_matrix, make_ci_matrix,
                          rank2_monoid, validate_ci)
from .rewrite_a import (a_confluence_audit, a_critical_pairs, a_equal,
                        a_match_at, a_matches, a_reduce, a_reduce_random,
                        a_reduce_steps, a_step)
from .rewrite_m import (infiniteness_witness, m_confluence_audit,
                        m_critical_pairs, m_equal, m_match_at, m_matches,
                        m_reduce, m_reduce_random, m_reduce_steps, m_step,
                        verify_sink)
from .garside import (check_lambda_identity, garside_cofactor, garside_data,
                      lambda_n, left_cancel_harness, pi, verify_garside)
from .linrep import (act_word, basis_vector, forbidden_factors, generator,
                     ring_add, ring_mul, verify_representation)
from .cube import (complement_table, cube_condition_check, cube_presentation,
                   reverse, upper_bound_census)

__all__ = [name for name in dir() if not name.startswith("_")]
