"""The closed forms the flat-grid oracle tests read (tests/closed_forms.py)."""

import numpy as np
import pytest
from closed_forms import (
    halfstrip_arc_gradient,
    halfstrip_arc_measure,
    halfstrip_density,
    rectangle_arc_measure,
)
from scipy.integrate import quad

W = 8.0


@pytest.mark.parametrize("z, arc", [((0.0, 1.0), (-1.0, 1.0)), ((0.3, 0.7), (-2.5, 0.4)),
                                    ((-7.5, 2.0), (-8.0, 8.0)), ((5.0, 3.0), (-8.0, -7.0))])
def test_halfstrip_arc_measure_integrates_the_density(z, arc):
    ref = quad(lambda xi: halfstrip_density(z, xi, W), *arc, epsabs=1e-14, epsrel=1e-13,
               limit=200)[0]
    assert abs(halfstrip_arc_measure(z, *arc, W) - ref) <= 1e-13


@pytest.mark.parametrize("z", [(0.0, 0.3), (0.4, 1.3), (-7.9, 4.0)])
def test_halfstrip_measure_is_a_probability(z):
    # the mirrored sides let no mass out: the whole boundary carries it all
    assert halfstrip_arc_measure(z, -W, W, W) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("z", [(0.0, 2.0), (0.3, 2.0), (-1.2, 0.4), (6.5, 1.0)])
def test_halfstrip_gradient_matches_finite_differences(z):
    # fourth-order central differences of the arc measure, step 1e-3
    e = 1e-3

    def diff(step):
        f = [halfstrip_arc_measure(np.add(z, k * e * step), -1.0, 1.0, W) for k in (-2, -1, 1, 2)]
        return (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * e)

    fd = [diff(np.array([1.0, 0.0])), diff(np.array([0.0, 1.0]))]
    assert np.abs(halfstrip_arc_gradient(z, -1.0, 1.0, W) - fd).max() <= 1e-10


def test_halfstrip_tends_to_the_halfplane():
    # at W = 1e4 the images are far: the half-plane's density, its density
    # ratio 0.5 at (0, 2) over (0, 1), and |grad| = 2 / (5 pi) at (0, 2)
    wide = 1e4
    xi = np.linspace(-3.0, 3.0, 7)
    plane = 0.7 / (np.pi * ((0.4 - xi) ** 2 + 0.49))
    assert np.abs(halfstrip_density((0.4, 0.7), xi, wide) - plane).max() <= 1e-7
    ratio = halfstrip_density((0.0, 2.0), 0.0, wide) / halfstrip_density((0.0, 1.0), 0.0, wide)
    assert ratio == pytest.approx(0.5, abs=1e-7)
    grad = np.linalg.norm(halfstrip_arc_gradient((0.0, 2.0), -1.0, 1.0, wide))
    assert grad == pytest.approx(2 / (5 * np.pi), abs=1e-7)


def test_rectangle_series():
    # converged in its terms, and half-plane-like in a large rectangle
    # (the absorbing walls take O(1/L^2) of the arc's measure)
    z = (0.3, 0.6)
    assert rectangle_arc_measure(z, -1.0, 1.0, 8.05, 8.05) == \
        rectangle_arc_measure(z, -1.0, 1.0, 8.05, 8.05, n_terms=8000)
    assert abs(rectangle_arc_measure((0.0, 1.0), -1.0, 1.0, 100.0, 100.0) - 0.5) <= 1e-4
