"""Shared fixtures: canonical graphs and protocol factories."""

from __future__ import annotations

import pytest

from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    paper_figure_1a,
    paper_figure_1b,
    petersen_graph,
)


def pytest_configure(config):
    # Registration only: slow tests still run unless deselected with
    # ``-m "not slow"``.
    config.addinivalue_line(
        "markers", "slow: full enumerations that take seconds, not milliseconds"
    )


@pytest.fixture
def c4() -> Graph:
    """The 4-cycle: the smallest 2f-connected graph for f = 1."""
    return cycle_graph(4)


@pytest.fixture
def c5() -> Graph:
    """Figure 1(a): the 5-cycle, tight for f = 1."""
    return paper_figure_1a()


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)


@pytest.fixture
def k5() -> Graph:
    """K_{2f+1} for f = 2: the smallest local-broadcast graph at f = 2."""
    return complete_graph(5)


@pytest.fixture
def fig1b() -> Graph:
    """Figure 1(b) stand-in: C_8(1,2), tight for f = 2."""
    return paper_figure_1b()


@pytest.fixture
def petersen() -> Graph:
    return petersen_graph()
