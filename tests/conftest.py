"""Fixtures shared by several test modules."""

import sys
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def wordproblem_pool():
    """The ops of the benchmark's seed-0 `wordproblem` pool, built once."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from workloads import WordProblem
    finally:
        sys.path.pop(0)
    workload = WordProblem()
    workload.setup()
    return workload.generate(0)
