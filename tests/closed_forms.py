"""Closed forms of the continua the grid closures discretize, on flat profiles.

The kernel closure mirrors at x = ±W and has no top: its continuum is the
Neumann half-strip |x| < W, y > 0.  Reflections at ±W make the boundary data
4W-periodic, and the sum of the images' half-plane Poisson kernels is, with
a = π/(2W) and c = a y,

    P_y(x, ξ) = sinh(c)/(4W) · [1/(cosh c − cos a(x − ξ)) + 1/(cosh c + cos a(x + ξ))].

The absorbing closure puts zero data one ghost step beyond its walls and its
top: its continuum is the Dirichlet rectangle with walls at ±(W + h) and top
at H + h, whose harmonic measure is a sine series.

As W grows the half-strip forms tend to the half-plane's, y/(π((x − ξ)² + y²))
for the density.
"""

import numpy as np


def _terms(x, y, xi, W):
    """P's two terms, each with the prefactor sinh(c)/(4W)."""
    a = np.pi / (2 * W)
    c = a * y
    pre = np.sinh(c) / (4 * W)
    return (pre / (np.cosh(c) - np.cos(a * (x - xi))),
            pre / (np.cosh(c) + np.cos(a * (x + xi))))


def halfstrip_density(z, xi, W):
    """Density P_y(x, ξ) of the half-strip's harmonic measure seen from z = (x, y)."""
    x, y = z
    t1, t2 = _terms(x, y, np.asarray(xi, dtype=float), W)
    return t1 + t2


def _tangents(x, xi, W):
    a = np.pi / (2 * W)
    return np.tan(a * (xi - x) / 2), np.tan(a * (xi + x) / 2)


def halfstrip_arc_measure(z, alpha, beta, W):
    """Half-strip harmonic measure of the boundary arc [α, β] ⊂ [−W, W] seen from z:
    the antiderivative of P in ξ, (1/π)[arctan(coth(c/2) t1) + arctan(tanh(c/2) t2)]
    with t1 = tan(a(ξ − x)/2) and t2 = tan(a(ξ + x)/2), from ξ = α to ξ = β."""
    x, y = z
    c = np.pi / (2 * W) * y

    def F(xi):
        t1, t2 = _tangents(x, xi, W)
        return (np.arctan(t1 / np.tanh(c / 2)) + np.arctan(np.tanh(c / 2) * t2)) / np.pi

    return F(beta) - F(alpha)


def halfstrip_arc_gradient(z, alpha, beta, W):
    """Gradient in z of ``halfstrip_arc_measure``.

    In x, each arctan of the antiderivative moves with its tangent's
    argument, giving T1(α) − T1(β) + T2(β) − T2(α) for P's terms T1, T2.  In
    y, each arctan(K t) turns into K' t/(1 + K² t²), with
    K' = −(a/2)/sinh²(c/2) for K = coth(c/2) and (a/2)/cosh²(c/2) for
    K = tanh(c/2).
    """
    x, y = z
    a = np.pi / (2 * W)
    c = a * y
    k1, k2 = 1 / np.tanh(c / 2), np.tanh(c / 2)
    d1, d2 = -(a / 2) / np.sinh(c / 2) ** 2, (a / 2) / np.cosh(c / 2) ** 2

    def dy(xi):
        t1, t2 = _tangents(x, xi, W)
        return (d1 * t1 / (1 + (k1 * t1) ** 2) + d2 * t2 / (1 + (k2 * t2) ** 2)) / np.pi

    (a1, a2), (b1, b2) = _terms(x, y, alpha, W), _terms(x, y, beta, W)
    return np.array([a1 - b1 + b2 - a2, dy(beta) - dy(alpha)])


def rectangle_arc_measure(z, alpha, beta, L, T, n_terms=4000):
    """Harmonic measure of the bottom arc [α, β] seen from z = (x, y) in the
    Dirichlet rectangle (−L, L) × (0, T): Σ_k a_k sin(q(x + L)) sinh(q(T − y))/sinh(qT)
    with q = kπ/(2L) and a_k = (2/(kπ))[cos q(α + L) − cos q(β + L)]."""
    x, y = z
    k = np.arange(1, n_terms + 1)
    q = k * np.pi / (2 * L)
    a_k = 2 / (k * np.pi) * (np.cos(q * (alpha + L)) - np.cos(q * (beta + L)))
    # sinh(q(T − y))/sinh(qT) without overflow
    lift = np.exp(-q * y) * (-np.expm1(-2 * q * (T - y))) / (-np.expm1(-2 * q * T))
    return float(np.sum(a_k * np.sin(q * (x + L)) * lift))
