"""Tests for synthetic graph generators and degree analysis."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    complete_graph,
    distribution_summary,
    gini_coefficient,
    log_binned_histogram,
    powerlaw_fit,
    powerlaw_graph,
    rmat_graph,
    shape_similarity,
    uniform_graph,
)


def test_rmat_basic_shape():
    rng = np.random.default_rng(0)
    g = rmat_graph(1000, 8000, rng)
    assert g.num_nodes == 1000
    assert g.num_edges == 8000


def test_rmat_is_seeded():
    g1 = rmat_graph(500, 2000, np.random.default_rng(42))
    g2 = rmat_graph(500, 2000, np.random.default_rng(42))
    assert np.array_equal(g1.indices, g2.indices)
    assert np.array_equal(g1.indptr, g2.indptr)


def test_rmat_skew_exceeds_uniform():
    """RMAT should be much more degree-skewed than a uniform graph."""
    rng = np.random.default_rng(1)
    g_rmat = rmat_graph(2000, 30000, rng)
    g_uni = uniform_graph(2000, 15.0, np.random.default_rng(1))
    assert gini_coefficient(g_rmat) > gini_coefficient(g_uni) + 0.1


def test_rmat_rejects_tiny_graphs():
    with pytest.raises(GraphError):
        rmat_graph(1, 10, np.random.default_rng(0))


def test_rmat_rejects_bad_probabilities():
    with pytest.raises(GraphError):
        rmat_graph(10, 10, np.random.default_rng(0), a=0.6, b=0.3, c=0.3)


@pytest.mark.parametrize(
    "probs",
    [
        dict(a=-0.1, b=0.5, c=0.5),
        dict(a=0.5, b=-0.1, c=0.5),
        dict(a=0.5, b=0.5, c=-0.1),
        dict(a=1.5, b=-0.3, c=-0.3),
        dict(a=float("nan")),
    ],
)
def test_rmat_rejects_probabilities_outside_unit_interval(probs):
    with pytest.raises(GraphError, match="not in \\[0, 1\\]"):
        rmat_graph(10, 10, np.random.default_rng(0), **probs)


@pytest.mark.parametrize("num_edges", [-1, 2.5, "10", True, None])
def test_rmat_rejects_bad_edge_counts(num_edges):
    with pytest.raises(GraphError, match="num_edges"):
        rmat_graph(10, num_edges, np.random.default_rng(0))


def test_rmat_accepts_numpy_edge_counts():
    g = rmat_graph(10, np.int64(40), np.random.default_rng(0))
    assert g.num_edges == 40


def test_powerlaw_graph_mean_degree():
    rng = np.random.default_rng(2)
    g = powerlaw_graph(5000, avg_degree=20.0, rng=rng)
    assert g.num_nodes == 5000
    assert g.average_degree == pytest.approx(20.0, rel=0.15)


def test_powerlaw_graph_heavy_tail():
    rng = np.random.default_rng(3)
    g = powerlaw_graph(5000, avg_degree=10.0, rng=rng)
    degs = g.degrees()
    assert degs.max() > 8 * degs.mean()


def test_powerlaw_graph_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(GraphError):
        powerlaw_graph(1, 5.0, rng)
    with pytest.raises(GraphError):
        powerlaw_graph(100, -1.0, rng)


def test_uniform_graph_degrees_concentrated():
    rng = np.random.default_rng(4)
    g = uniform_graph(2000, 16.0, rng)
    degs = g.degrees()
    assert degs.mean() == pytest.approx(16.0, rel=0.1)
    # Poisson-ish: std much smaller than mean times spread of power laws
    assert degs.std() < 3 * np.sqrt(degs.mean())


def test_complete_graph_structure():
    g = complete_graph(6)
    assert g.num_nodes == 6
    assert g.num_edges == 30
    assert np.array_equal(g.degrees(), np.full(6, 5))
    for u in range(6):
        assert u not in g.neighbors(u)


# -- degree analysis ------------------------------------------------------


def test_log_binned_histogram_counts_all_nodes():
    rng = np.random.default_rng(5)
    g = rmat_graph(1000, 5000, rng)
    _edges, counts = log_binned_histogram(g)
    assert counts.sum() == g.num_nodes


def test_powerlaw_fit_on_powerlaw_graph_is_good():
    rng = np.random.default_rng(6)
    g = powerlaw_graph(20000, avg_degree=8.0, rng=rng, exponent=2.2)
    fit = powerlaw_fit(g)
    assert fit["r2"] > 0.7
    assert 1.2 < fit["alpha"] < 4.0


def test_gini_bounds():
    g = complete_graph(10)   # perfectly equal degrees
    assert gini_coefficient(g) == pytest.approx(0.0, abs=1e-9)


def test_distribution_summary_keys():
    rng = np.random.default_rng(7)
    g = rmat_graph(500, 3000, rng)
    summary = distribution_summary(g)
    for key in (
        "nodes", "edges", "avg_degree", "max_degree", "gini",
        "powerlaw_alpha", "powerlaw_r2",
    ):
        assert key in summary


def test_shape_similarity_self_is_one():
    rng = np.random.default_rng(8)
    g = rmat_graph(1000, 6000, rng)
    assert shape_similarity(g, g) == pytest.approx(1.0)


def test_shape_similarity_discriminates():
    """Two power-law graphs are more alike than power-law vs uniform."""
    a = powerlaw_graph(4000, 10.0, np.random.default_rng(9))
    b = powerlaw_graph(4000, 10.0, np.random.default_rng(10))
    u = uniform_graph(4000, 10.0, np.random.default_rng(11))
    assert shape_similarity(a, b) > shape_similarity(a, u)
