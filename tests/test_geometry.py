import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipvar.domain_field import LipschitzGraph
from lipvar.errors import ConfigError


def test_flat_profile():
    g = LipschitzGraph.flat()
    assert g.lipschitz_constant == 0.0
    assert g.cone_constant == 1.0
    assert np.all(g(np.linspace(-3, 3, 7)) == 0.0)


def test_sawtooth_profile():
    g = LipschitzGraph.sawtooth(amplitude=0.5, n_teeth=2, support_radius=1.0)
    assert g.lipschitz_constant == pytest.approx(1.0)
    assert g.cone_constant == pytest.approx(1 / np.sqrt(2))
    assert g(np.array([0.0]))[0] == 0.0
    assert g(np.array([-0.5]))[0] == 0.5
    assert g(np.array([2.0]))[0] == 0.0  # compact support


def test_breakpoints_must_increase():
    with pytest.raises(ConfigError):
        LipschitzGraph(((0.0, 0.0), (0.0, 1.0), (0.5, 0.0)), 1.0)


def test_profile_must_close_to_zero():
    with pytest.raises(ConfigError):
        LipschitzGraph(((-1.0, 0.0), (0.0, 0.3), (1.0, 0.2)), 1.0)


def test_support_radius_encloses_breakpoints():
    with pytest.raises(ConfigError):
        LipschitzGraph(((-2.0, 0.0), (0.0, 0.5), (2.0, 0.0)), 1.0)


@st.composite
def profiles(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    xs = np.cumsum(draw(st.lists(st.floats(0.1, 0.5), min_size=n, max_size=n)))
    xs = xs - xs.mean()
    r = float(max(abs(xs[0]), abs(xs[-1]))) + 0.1
    ys = [0.0] + draw(st.lists(st.floats(-0.8, 0.8), min_size=n - 2, max_size=n - 2)) + [0.0]
    return LipschitzGraph(tuple(zip(xs, ys)), r)


@given(profiles(), st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=60, deadline=None)
def test_lipschitz_bound_holds_between_samples(graph, x1, x2):
    v1, v2 = graph(np.array([x1]))[0], graph(np.array([x2]))[0]
    assert abs(v1 - v2) <= graph.lipschitz_constant * abs(x1 - x2) + 1e-9


@given(profiles())
@settings(max_examples=30, deadline=None)
def test_vertical_distance_comparability(graph):
    # y >= dist(x + y e2, graph) >= y / sqrt(1 + L^2) at profile nodes
    c = graph.cone_constant
    xs = np.array([p[0] for p in graph.breakpoints])
    mids = 0.5 * (xs[1:] + xs[:-1])
    for x in np.concatenate([xs, mids]):
        base = graph(np.array([x]))[0]
        for y in (0.05, 0.3, 1.0):
            d = graph.distance(np.array([[x, base + y]]))[0]
            assert d <= y + 1e-9
            assert d >= c * y - 1e-9


def test_projection_lands_on_graph():
    g = LipschitzGraph.sawtooth()
    pts = np.array([[0.1, 1.0], [-0.4, 0.8], [3.0, 0.2]])
    proj = g.project(pts)
    assert np.allclose(g(proj[:, 0]), proj[:, 1], atol=1e-9)


def _nearest_brute(graph, x, y):
    """Nearest point of the polyline to (x, y), one segment at a time in plain
    floats: the first segment of least distance wins."""
    best = (math.inf, None)
    for (ax, ay), (bx, by) in zip(*graph.segments()):
        dx, dy = bx - ax, by - ay
        t = min(max(((x - ax) * dx + (y - ay) * dy) / max(dx * dx + dy * dy, 1e-300), 0.0), 1.0)
        qx, qy = ax + t * dx, ay + t * dy
        d = math.sqrt((x - qx) * (x - qx) + (y - qy) * (y - qy))
        if d < best[0]:
            best = (d, (qx, qy))
    return best


@pytest.mark.parametrize("n_teeth", [1, 3, 6])
def test_nearest_point_matches_brute_force(n_teeth):
    # six teeth give 14 segments, more than one block of ``nearest``, with
    # a kink at the blocks' seam
    g = LipschitzGraph.sawtooth(0.5, n_teeth, 1.0)
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(-3, 3, 300), rng.uniform(-0.6, 3, 300)])
    # above every kink two segments tie, in exact arithmetic
    above = [(x, y + lift) for x, y in g.breakpoints for lift in (0.01, 0.1, 0.37, 1.0)]
    pts = np.concatenate([pts, above])
    dist, proj = g.distance(pts), g.project(pts)
    for (x, y), d, q in zip(pts, dist, proj):
        ref_d, ref_q = _nearest_brute(g, float(x), float(y))
        assert d == ref_d
        assert tuple(q) == ref_q
