"""Closed-form half-plane potential theory.

Everything here is exact arithmetic on the upper half-plane: the Poisson
density, arc measures and their gradients, and cell masses.  These
expressions serve two roles: independent oracles for the flat-boundary
tests, and far-field Dirichlet data for the ``halfplane`` closure of a
truncated domain.
"""

from __future__ import annotations

import numpy as np


def poisson_density(z, xi):
    """Density of harmonic measure of the half-plane at boundary point xi."""
    x, y = z
    xi = np.asarray(xi, dtype=float)
    return (y / np.pi) / ((x - xi) ** 2 + y ** 2)


def arc_measure(z, a, b):
    """Harmonic measure of the boundary interval [a, b] seen from z."""
    x, y = z
    return (np.arctan2(b - x, y) - np.arctan2(a - x, y)) / np.pi


def arc_measure_gradient(z, a, b):
    """Gradient in z of the arc measure of [a, b]."""
    x, y = z
    da = (x - a) ** 2 + y ** 2
    db = (x - b) ** 2 + y ** 2
    gx = (y / db - y / da) / np.pi
    gy = ((x - b) / db - (x - a) / da) / np.pi
    return np.array([gx, gy])


def cell_masses(points, cell_edges):
    """Harmonic-measure masses of boundary cells seen from interior points.

    Parameters
    ----------
    points : (n, 2) array
        Interior evaluation points (y > 0).
    cell_edges : (m+1,) array
        Increasing abscissae cutting the boundary into m cells.

    Returns
    -------
    (n, m) array of cell masses, the antiderivative differences of the
    Poisson density.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    e = np.asarray(cell_edges, dtype=float)
    ang = np.arctan2(e[None, :] - p[:, 0:1], p[:, 1:2])
    return np.diff(ang, axis=1) / np.pi


def martin_ratio(z, z0, xi):
    """Ratio of Poisson densities: the half-plane Martin kernel with pole z0."""
    return poisson_density(z, xi) / poisson_density(z0, xi)
