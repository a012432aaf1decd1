"""The package's public names and the import layering of the rewriters."""

import subprocess
import sys

import aimonoids

# aimonoids.__all__ before the shared rewriting driver was introduced
PUBLIC_NAMES = [
    'CIMatrix', 'FiniteMonoid', 'INFINITY', 'OracleVerdict', 'Presentation',
    'Report', 'Word', 'a_confluence_audit', 'a_critical_pairs', 'a_equal',
    'a_match_at', 'a_matches', 'a_reduce', 'a_reduce_random', 'a_reduce_steps',
    'a_step', 'act_word', 'ai_presentation', 'alternating', 'b_equivalent',
    'b_reduced_form', 'basis_vector', 'bfs_equal', 'chain_ci_matrix',
    'check_lambda_identity', 'ci_presentation', 'commute_sort',
    'complement_table', 'congruence_closure', 'cube', 'cube_condition_check',
    'cube_presentation', 'descending_run', 'descent_inversions',
    'forbidden_factors', 'format_word', 'garside', 'garside_cofactor',
    'garside_data', 'generator', 'hasse_dot', 'infiniteness_witness',
    'is_lattice', 'lambda_n', 'left_cancel_harness', 'left_division_order',
    'linrep', 'load_ci_matrix', 'm_confluence_audit', 'm_critical_pairs',
    'm_equal', 'm_match_at', 'm_matches', 'm_reduce', 'm_reduce_random',
    'm_reduce_steps', 'm_step', 'make_ci_matrix', 'monoid_core', 'nabla',
    'parse_word', 'pi', 'random_word', 'rank2_monoid', 'reverse', 'rewrite_a',
    'rewrite_m', 'ring_add', 'ring_mul', 'upper_bound_census', 'validate_ci',
    'validate_word', 'verify_garside', 'verify_representation', 'verify_sink',
    'words',
]


def test_public_names_still_exported():
    missing = [name for name in PUBLIC_NAMES
               if name not in aimonoids.__all__ or not hasattr(aimonoids, name)]
    assert missing == []


def test_rewrite_m_does_not_load_garside():
    # The package __init__ imports every module, so the subprocess installs a
    # bare package object and imports rewrite_m on its own.
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('aimonoids')\n"
        "pkg.__path__ = %r\n"
        "sys.modules['aimonoids'] = pkg\n"
        "import aimonoids.rewrite_m\n"
        "print(sorted(m for m in sys.modules if m.startswith('aimonoids')))\n"
    ) % (list(aimonoids.__path__),)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout
    assert "'aimonoids.rewrite_m'" in loaded
    assert "aimonoids.garside" not in loaded
