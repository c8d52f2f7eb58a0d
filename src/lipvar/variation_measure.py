"""Vertical variation, transformed boundary measures, and the ball probe.

The mean vertical variation of the reference harmonic function u at a
boundary node is the height integral of B_y(u_y); it dominates the gradient
variation along the vertical ray above the node.  Transforming a probability
measure kappa through the adjoints of the Omega_y family and following the
family down to the resolution floor produces the measure nu_eps carrying two
facts at once: its V-integral is controlled by u one unit above the kappa
pole, and it keeps a mass floor on every surface ball.  The probe combines
the two to exhibit a low-variation boundary point inside a requested ball.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels as K
from .domain_field.grid import BoundaryMeasure, DiscreteDomain, HarmonicField, kernel_measure
from .errors import ConfigError, ResolutionError
from .omega import adjoint_sweep

N_ALPHA = 10           # nu_limit's bump test functions, centred on [-2, 2]
SIGMA_HEIGHT = 0.5     # height at which nu_limit reads the bumps' extensions


# ---------------------------------------------------------------------------
# vertical variation
# ---------------------------------------------------------------------------


@dataclass
class VariationResult:
    """Mean vertical variation per boundary node over [y_min, y_max]."""

    domain: DiscreteDomain
    values: np.ndarray
    y_min: float
    y_max: float
    tail_estimate: np.ndarray
    n_evals: int


def vertical_variation(domain: DiscreteDomain, u: HarmonicField,
                       y_min: float | None = None, y_max: float = 1.0) -> VariationResult:
    """Quadrature of y -> B_y(u_y) over [y_min, y_max] at every boundary node.

    The integrand is smooth between its kinks at the multiples of h/2, so it
    takes the kink-cell rule of ``DiscreteDomain.height_rule`` (four
    Gauss-Legendre nodes per cell, evaluated together by
    ``kernels.cell_apply_b``).  The truncated lower tail [0, y_min] is
    estimated separately by linear extrapolation of the integrand and
    reported, never added.  ``n_evals`` counts integrand evaluations.
    """
    if y_min is None:
        y_min = 2 * domain.h
    if y_min < 2 * domain.h - 1e-12:
        raise ResolutionError(f"y_min {y_min} below the 2h floor")
    if not y_min < y_max:
        raise ConfigError("need y_min < y_max")

    def f(y):
        return K.apply_b(domain, u, y, u.rows(y))

    rule = domain.height_rule(y_min, y_max)
    est = K.cell_sum(rule, lambda k: K.cell_apply_b(
        domain, u, k, [u.rows(y) for y in domain.cell_nodes(k)]))

    f0 = f(y_min)
    f2 = f(min(y_min + 2 * domain.h, y_max))
    slope = (f2 - f0) / max(min(y_min + 2 * domain.h, y_max) - y_min, 1e-300)
    tail = f0 * y_min - slope * y_min ** 2 / 2
    return VariationResult(domain, est, y_min, y_max, tail, 4 * len(rule) + 2)


# ---------------------------------------------------------------------------
# measure transforms
# ---------------------------------------------------------------------------


@dataclass
class NuDiagnostics:
    """Weak-convergence trace of the transformed measures along a y-sequence.

    ``alpha_diffs`` pairs each fixed test function with consecutive gamma_y;
    these decay linearly in y.  ``shifted_diffs`` pairs gamma_y with the
    test field shifted to height y, the combination the semigroup freezes
    exactly when eps = 0.  ``steps`` counts the steps of the adjoint sweep.
    """

    y_sequence: list
    total_masses: list
    alpha_diffs: np.ndarray    # (N_ALPHA, len(y)-1)
    shifted_diffs: np.ndarray  # (len(y)-1,)
    slope: float
    steps: int


def bump_extensions(domain: DiscreteDomain):
    """nu_limit's test functions (N_ALPHA, nx): hat bumps' harmonic
    extensions at SIGMA_HEIGHT, read as K_y of the bumps, one product with
    the kernel band, whose rows are the exit masses of the closure
    ``harmonic_extension`` solves."""
    centers = np.linspace(-2.0, 2.0, N_ALPHA)
    bumps = np.clip(1.0 - np.abs(domain.xs[:, None] - centers) / 0.5, 0.0, 1.0)
    return K.apply_k(domain, SIGMA_HEIGHT, bumps).T


def nu_limit(domain: DiscreteDomain, u: HarmonicField, kappa: BoundaryMeasure,
             eps: float, y_sequence=None) -> tuple:
    """Follow gamma_y down the y-sequence and report weak-convergence decay.

    Returns (nu, diagnostics): nu is the transformed measure at the smallest
    resolvable y; the diagnostics hold the smooth-test-function differences
    (``bump_extensions``) and their fitted decay slope against y.  All
    gamma_y come from one ``adjoint_sweep``.
    """
    floor = 2 * domain.h
    if y_sequence is None:
        y_sequence = []
        y = 0.4
        while y > floor - 1e-12:
            y_sequence.append(round(y, 12))
            y /= 2
    ys = sorted({round(float(v), 12) for v in y_sequence}, reverse=True)
    sweep, steps = adjoint_sweep(domain, u, eps, kappa.s_masses, ys)
    gammas = dict(zip(ys, sweep))
    w = domain.hm_weights

    alphas = bump_extensions(domain)
    integrals = np.stack([alphas @ (gammas[y] * w) for y in ys], axis=1)
    diffs = np.abs(np.diff(integrals, axis=1))
    shifted = np.array([float(u.rows(y) @ (gammas[y] * w)) for y in ys])
    shifted_diffs = np.abs(np.diff(shifted))

    upper = np.array(ys[:-1])
    slope = float("nan")
    if len(upper) >= 2:
        with np.errstate(divide="ignore"):
            logd = np.log(np.maximum(diffs, 1e-300))
        slopes = [np.polyfit(np.log(upper), row, 1)[0]
                  for row in logd if np.all(row > -600)]
        if slopes:
            slope = float(np.median(slopes))

    y_star = ys[-1]
    nu = BoundaryMeasure(domain, gammas[y_star] * w)
    diag = NuDiagnostics(
        y_sequence=list(ys),
        total_masses=[float((gammas[y] * w).sum()) for y in ys],
        alpha_diffs=diffs,
        shifted_diffs=shifted_diffs,
        slope=slope,
        steps=steps,
    )
    return nu, diag


# ---------------------------------------------------------------------------
# surface balls and the probe
# ---------------------------------------------------------------------------


@dataclass
class SurfaceBall:
    """Euclidean ball centered on the boundary, intersected with the mesh."""

    center: tuple
    radius: float
    snapped: bool = False

    def snap_to(self, domain: DiscreteDomain) -> "SurfaceBall":
        xy = domain.node_xy()
        d = np.linalg.norm(xy - np.asarray(self.center, dtype=float), axis=1)
        i = int(np.argmin(d))
        if d[i] > 1e-9:
            warnings.warn(
                f"ball center {self.center} off the boundary mesh; "
                f"snapped to node {i} at {tuple(xy[i])}"
            )
            return SurfaceBall(tuple(xy[i]), self.radius, snapped=True)
        return self

    def node_mask(self, domain: DiscreteDomain):
        xy = domain.node_xy()
        return np.linalg.norm(xy - np.asarray(self.center, dtype=float), axis=1) <= self.radius + 1e-12


@dataclass
class ProbeResult:
    """Outcome of the low-variation probe on one surface ball."""

    ball_center: tuple
    ball_radius: float
    eps: float
    node_index: int
    node_xy: tuple
    variation_at_node: float
    u_at_z1: float
    ratio: float
    chain: dict = field(default_factory=dict)
    chain_ok: bool = True
    snapped: bool = False

    def to_dict(self) -> dict:
        return {
            "ball": {"center": list(self.ball_center), "radius": self.ball_radius,
                      "snapped": self.snapped},
            "eps": self.eps,
            "node_index": self.node_index,
            "node_xy": list(self.node_xy),
            "variation": self.variation_at_node,
            "u_z1": self.u_at_z1,
            "ratio": self.ratio,
            "chain": self.chain,
            "chain_ok": self.chain_ok,
        }


def variation_ratio(u, kappa, eps, nu, variation, masks=()):
    """R1 = eps * int V dnu / int u_1 dkappa, both integrals, each node mask's nu-mass."""
    int_v = float(nu.s_masses @ variation.values)
    int_u1 = float(kappa.s_masses @ u.rows(1.0))
    masses = [float(nu.s_masses[m].sum()) for m in masks]
    return eps * int_v / max(int_u1, 1e-300), int_v, int_u1, masses


def probe_ball(domain: DiscreteDomain, u: HarmonicField, ball: SurfaceBall,
               z1=(0.0, 2.0), eps: float = 0.05,
               variation: VariationResult | None = None,
               nu: tuple | None = None) -> ProbeResult:
    """Locate a boundary node of controlled mean vertical variation in a ball.

    Sets kappa to the kernel-closure harmonic measure with pole one unit
    below z1, builds nu_eps, tabulates V, and returns the V-minimizer over
    the ball's nodes of non-negligible nu mass, with every link of the bound
    chain (variation integral, ball mass floor, pointwise extraction) logged.
    ``variation`` and ``nu`` (the pair ``nu_limit`` returns for this kappa
    and eps) may be passed in, so that the balls of one probe configuration
    share them; without ``nu`` it follows the default y-sequence.
    """
    z1 = (float(z1[0]), float(z1[1]))
    W, H = domain.config.box_halfwidth, domain.config.box_height
    if not (abs(z1[0]) <= W and z1[1] <= H):
        raise ConfigError(f"z1 {z1} outside the grid: |x| <= {W} and y <= {H}")
    if z1[1] - float(domain.graph(np.array([z1[0]]))[0]) <= 1.0:
        raise ConfigError("z1 must sit more than one unit above the graph")

    ball = ball.snap_to(domain)
    mask = ball.node_mask(domain)
    if not np.any(mask):
        raise ConfigError(f"ball {ball} contains no boundary nodes")

    kappa = kernel_measure(domain, (z1[0], z1[1] - 1.0))
    nu, diag = nu if nu is not None else nu_limit(domain, u, kappa, eps)
    if variation is None:
        variation = vertical_variation(domain, u)

    r1, int_v, int_u1, (ball_mass,) = variation_ratio(u, kappa, eps, nu, variation, [mask])
    u_z1 = float(u.at(z1))

    chain = {
        "int_V_dnu": int_v,
        "int_u1_dkappa": int_u1,
        "R1": r1,
        "nu_ball_mass": ball_mass,
        "nu_total_mass": nu.s_total,
        "y_floor": diag.y_sequence[-1],
        "weak_convergence_slope": diag.slope,
        "tail_estimate_sup": float(np.abs(variation.tail_estimate).max()),
    }
    chain_ok = ball_mass >= 1e-6

    idx = np.flatnonzero(mask)
    floor = (ball_mass / max(len(idx), 1)) / 10.0
    eligible = idx[nu.s_masses[idx] >= floor]
    if len(eligible) == 0 or not chain_ok:
        eligible = idx  # degenerate chain: still report the in-ball minimizer
        chain_ok = False
    best = int(eligible[np.argmin(variation.values[eligible])])

    v_star = float(variation.values[best])
    return ProbeResult(
        ball_center=tuple(ball.center),
        ball_radius=ball.radius,
        eps=eps,
        node_index=best,
        node_xy=(float(domain.xs[best]), float(domain.s_y[best])),
        variation_at_node=v_star,
        u_at_z1=u_z1,
        ratio=v_star / max(u_z1, 1e-300),
        chain=chain,
        chain_ok=chain_ok,
        snapped=ball.snapped,
    )
