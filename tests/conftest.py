import resource
from itertools import product

import pytest
from hypothesis import settings

from bruhatchains import (
    InfeasibleMargins,
    MarginPair,
    build_interchange_dag,
    build_poset,
)

# wall-clock deadlines make the property tests flaky on loaded machines
settings.register_profile("default", deadline=None)
settings.load_profile("default")


@pytest.fixture
def memory_cap():
    """Cap this process's address space 1 GiB above its size now, so an
    input that must be refused before anything sized by it is built fails
    with MemoryError, not by filling the machine, if the refusal breaks."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    try:
        with open("/proc/self/statm") as fh:  # Linux: size in pages first
            size = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:
        yield
        return
    cap = size + (1 << 30)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture(scope="session")
def poset_221():
    return build_poset(MarginPair((2, 2, 1), (2, 2, 1)))


@pytest.fixture(scope="session")
def poset_42():
    return build_poset(MarginPair.uniform(4, 2))


@pytest.fixture(scope="session")
def poset_52():
    return build_poset(MarginPair.uniform(5, 2))


@pytest.fixture(scope="session")
def dag_62():
    return build_interchange_dag(MarginPair.uniform(6, 2))


def _small_margin_pairs(max_dim: int):
    for m in range(1, max_dim + 1):
        for n in range(1, max_dim + 1):
            for rows in product(range(3), repeat=m):
                total = sum(rows)
                for cols in product(range(3), repeat=n):
                    if sum(cols) == total:
                        yield MarginPair(rows, cols)


@pytest.fixture(scope="session")
def small_posets():
    """The full poset of every feasible class of at most 4 x 4 with
    margins at most 2, the classes criterion 9 sweeps."""
    posets = []
    for margins in _small_margin_pairs(4):
        try:
            posets.append(build_poset(margins))
        except InfeasibleMargins:
            continue
    return posets
