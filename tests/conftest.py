"""Shared fixtures for the test suite."""

from typing import List

import numpy as np
import pytest

from repro.cluster.power import PowerModelParams
from repro.cluster.server import Server
from repro.cluster.state import ClusterState
from repro.sim.engine import Engine


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_server(server_id: int = 0, cores: int = 16, **kwargs) -> Server:
    return Server(server_id, cores=cores, **kwargs)


def make_servers(n: int, first_id: int = 0, cores: int = 16, **kwargs) -> List[Server]:
    """``n`` servers with ids ``first_id..`` registered with one shared store.

    Groups, IPMI fleets and schedulers require a shared store; this is
    the fixture-side equivalent of the builders in
    :mod:`repro.cluster.datacenter`.
    """
    state = ClusterState(capacity=max(n, 1))
    return [
        Server(first_id + i, cores=cores, state=state, **kwargs) for i in range(n)
    ]


@pytest.fixture
def server() -> Server:
    return make_server()


@pytest.fixture
def power_params() -> PowerModelParams:
    return PowerModelParams()
