import numpy as np
import pytest

import stopgame.examples as ex
from stopgame.model import GameSpec, PathBlock


@pytest.fixture(scope="session")
def e1_spec():
    return ex.e1_game(r=1.0)


@pytest.fixture(scope="session")
def e2_params():
    return ex.REFERENCE_E2


@pytest.fixture(scope="session")
def e2_spec(e2_params):
    return ex.e2_game(e2_params)


def game_at(spec: GameSpec, p, q) -> GameSpec:
    """Same game, different initial laws (chart scalars for 2-state sides)."""
    p0 = [p, 1.0 - p] if spec.K == 2 else [1.0]
    q0 = [q, 1.0 - q] if spec.L == 2 else [1.0]
    return GameSpec(R=spec.R, Q=spec.Q, r=spec.r, f=spec.f, h=spec.h, p0=p0, q0=q0)


@pytest.fixture(scope="session")
def e1_solved(e1_spec):
    from stopgame.solver import solve

    return solve(e1_spec, 200, 200, tol=1e-7)


@pytest.fixture(scope="session")
def e2_solved(e2_spec):
    from stopgame.solver import solve

    return solve(e2_spec, 400, 1, tol=1e-9, max_iter=100_000)


@pytest.fixture(scope="session")
def e1_oracle_grid(e1_spec):
    from stopgame.grids import ValueGrid

    return ValueGrid.from_function(
        e1_spec, lambda p, q: ex.e1_value(float(p[0]), float(q[0])), 200, 200)


@pytest.fixture(scope="session")
def e2_oracle_grid(e2_spec, e2_params):
    from stopgame.grids import ValueGrid

    return ValueGrid.from_function(
        e2_spec, lambda p, q: ex.e2_value(e2_params, float(p[0])), 400, 1)


@pytest.fixture(scope="session")
def e1_char():
    return ex.e1_characteristics(r=1.0)


@pytest.fixture(scope="session")
def e2_char(e2_params):
    return ex.e2_characteristics(e2_params)


def z1(p, y):
    """Example-1 chart point in flat coordinates."""
    return np.array([p, 1.0 - p, y, 0.0])


def z2(p):
    """Example-2 chart point in flat coordinates."""
    return np.array([p, 1.0 - p])


def flat(state, n=1):
    """A block of ``n`` paths that hold ``state`` on ``[0, 1e6]``."""
    return PathBlock(np.zeros((n, 1)), np.full((n, 1), state, dtype=np.int64), 1e6)
