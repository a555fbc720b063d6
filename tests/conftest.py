import pytest

from mplsotn.solvers import ENV_SOLVER_COMMAND
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


@pytest.fixture(autouse=True)
def _no_solver_command_from_the_shell(monkeypatch):
    # the variable alone routes `mplsotn run` to an external solver; tests
    # that want it set it themselves
    monkeypatch.delenv(ENV_SOLVER_COMMAND, raising=False)
