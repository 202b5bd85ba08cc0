import numpy as np
import pytest

from lagns import Grid, MaterialParams, ProfileSpec, State


@pytest.fixture
def params():
    return MaterialParams()


@pytest.fixture
def grid():
    return Grid(64)


@pytest.fixture
def cosine_profile():
    return ProfileSpec(name="cosine")


@pytest.fixture
def uniform_state(grid):
    return State(
        t=0.0,
        v=np.ones(grid.n_cells),
        u=np.zeros(grid.n_nodes),
        theta=np.ones(grid.n_cells),
    )
