import pytest
from hypothesis import settings

from bruhatchains import MarginPair, build_interchange_dag, build_poset

# wall-clock deadlines make the property tests flaky on loaded machines
settings.register_profile("default", deadline=None)
settings.load_profile("default")


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
