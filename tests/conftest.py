"""Shared fixtures: small rulesets, traces, and built structures.

Heavy artefacts are session-scoped so the suite stays fast; tests that
mutate state build their own objects.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import DEMO_SCHEMA, RuleSet, generate_ruleset, generate_trace, make_demo_ruleset
from repro.algorithms import LinearSearchClassifier, build_hicuts, build_hypercuts
from repro.hw import build_memory_image


@pytest.fixture(scope="session")
def demo_ruleset() -> RuleSet:
    """The paper's Table 1 ruleset (10 rules, five 8-bit fields)."""
    return RuleSet(make_demo_ruleset(), DEMO_SCHEMA, "table1")


@pytest.fixture(scope="session")
def acl_small() -> RuleSet:
    return generate_ruleset("acl1", 150, seed=101)


@pytest.fixture(scope="session")
def acl_medium() -> RuleSet:
    return generate_ruleset("acl1", 1000, seed=102)


@pytest.fixture(scope="session")
def fw_small() -> RuleSet:
    return generate_ruleset("fw1", 300, seed=103)


@pytest.fixture(scope="session")
def ipc_small() -> RuleSet:
    return generate_ruleset("ipc1", 300, seed=104)


@pytest.fixture(scope="session")
def acl_small_trace(acl_small):
    return generate_trace(acl_small, 2000, seed=201, background_fraction=0.1)


@pytest.fixture(scope="session")
def acl_medium_trace(acl_medium):
    return generate_trace(acl_medium, 5000, seed=202, background_fraction=0.05)


@pytest.fixture(scope="session")
def acl_small_oracle(acl_small, acl_small_trace):
    return LinearSearchClassifier(acl_small).classify_trace(acl_small_trace)


@pytest.fixture(scope="session")
def acl_medium_oracle(acl_medium, acl_medium_trace):
    return LinearSearchClassifier(acl_medium).classify_trace(acl_medium_trace)


@pytest.fixture(scope="session")
def hw_tree_small(acl_small):
    return build_hicuts(acl_small, binth=30, spfac=4, hw_mode=True)


@pytest.fixture(scope="session")
def hw_image_small(hw_tree_small):
    return build_memory_image(hw_tree_small, speed=1)


@pytest.fixture(scope="session")
def hw_hyper_tree_small(acl_small):
    return build_hypercuts(acl_small, binth=30, spfac=4, hw_mode=True)


@pytest.fixture(scope="session")
def hw_hyper_image_small(hw_hyper_tree_small):
    return build_memory_image(hw_hyper_tree_small, speed=1)


def random_headers(schema, n, seed=0):
    """Uniform random headers for a schema (helper, not a fixture)."""
    rng = np.random.default_rng(seed)
    cols = [
        rng.integers(0, schema.max_value(d) + 1, size=n, dtype=np.uint32)
        for d in range(schema.ndim)
    ]
    return np.stack(cols, axis=1)


#: Forks of this process since the fork counter was first requested.
_FORKS = {"registered": False, "count": 0}


def _count_fork() -> None:
    _FORKS["count"] += 1


@pytest.fixture
def fork_count():
    """A callable returning how many times this process has forked so
    far (an ``os.register_at_fork`` hook, installed on first use; take
    a reading before and after the code under test)."""
    if not hasattr(os, "register_at_fork"):
        pytest.skip("os.register_at_fork unavailable")
    if not _FORKS["registered"]:
        os.register_at_fork(before=_count_fork)
        _FORKS["registered"] = True
    return lambda: _FORKS["count"]
