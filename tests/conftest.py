import pytest

from support import desk


@pytest.fixture(scope="session")
def ring4():
    return desk("four_node_ring")


@pytest.fixture(scope="session")
def ring4_chord():
    return desk("four_node_ring_chord")


@pytest.fixture(scope="session")
def ring5_chord():
    return desk("five_node_ring_chord")

