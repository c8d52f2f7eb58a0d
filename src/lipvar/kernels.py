"""Dense kernel algebra on the boundary mesh.

Kernels are real tables indexed by (base node i, target node j) holding
densities against the pole measure: the Martin-type kernel at height y is

    k_y[i, j] = (exit mass at node j from the point y above node i) / w_j,

where w is the pole measure of the kernel closure.  Composition integrates
the middle variable against w, so operators act on boundary functions f via
``entries @ (w * f)``.  In exit-mass form, entries times w, composition is a
plain matrix product, (p W)(q W) = (p o q) W: the b-cells and the omega
construction's products stay in that form and turn into densities once, in
``_mass_to_kernel``.

Two realizations of the k-family coexist:

``martin``
    Rows read off the cached solver table; this is the density-ratio
    definition and is what the closed-form comparisons test.

``power``
    Fractional powers of the one-grid-step exit operator.  The family is
    semigroup-exact to rounding, which the omega construction requires so
    that its dyadic products telescope.  The exit measures at height y are
    a semigroup on every Lipschitz graph too (a path from height y1 + y2
    must cross the graph shifted up by y1), and so are the grid's where no
    column step exceeds one row, under the kernel closure, which is
    semi-infinite above: there band level n is G^n, and the families agree
    at grid levels to rounding (``checks.family_gap``: at most 1.6e-14 at
    y = 0.25, 0.5 and 1 on the README configuration, h = 0.05).  Between
    levels the martin rows are linear in y and the powers are not.  Under a
    reflecting top at box_height instead, the gap is the top's, not the
    graph's (h = 0.05, y = 0.5, sup|k^power_y - k^martin_y| /
    sup|k^martin_y|):

        box (half-width x height)   README sawtooth   flat
        6 x 6                       1.86e-4           1.85e-4
        6 x 12                      7.27e-6           7.27e-6
        6 x 24                      1.35e-8           1.35e-8

    Where a column step exceeds one row, or under the absorbing closure of
    ``halfplane`` domains, the band is not G^n and there is no power family:
    ``DiscreteDomain.row_power`` refuses every s > 0 with ConfigError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain_field.grid import DiscreteDomain, HarmonicField
from .errors import ConfigError, ResolutionError

HARNACK_SLACK = 0.01  # relative excess of a held-out ratio over the fitted bound


@dataclass
class BoundaryKernel:
    """Dense kernel table over the boundary mesh."""

    domain: DiscreteDomain
    entries: np.ndarray
    kind: str = "k"
    meta: dict = field(default_factory=dict)

    @property
    def weights(self):
        return self.domain.hm_weights

    def row_integrals(self):
        return self.entries @ self.weights


def _mass_to_kernel(domain, rows):
    """Densities against the pole measure of exit-mass rows (last axis).

    The only place masses become densities, and the only reader of the
    excluded nodes: it divides by ``safe_weights`` and zeroes their columns.
    Mass products exclude nothing, since they occur only where powers of G
    exist (``DiscreteDomain.row_power``), and no node is excluded there.
    """
    k = rows / domain.safe_weights
    k[..., domain.excluded_nodes] = 0.0
    return k


def mass_rows(domain: DiscreteDomain, y: float, family: str = "martin"):
    """Exit-mass rows at height y above every boundary node."""
    if y < 0:
        raise ConfigError("height must be nonnegative")
    if family == "martin":
        return domain.mass_rows(y)
    if family == "power":
        return domain.power_rows(y)
    raise ConfigError(f"unknown kernel family {family!r}")


def identity_kernel(domain: DiscreteDomain) -> BoundaryKernel:
    """Convolution identity: the density of band[0], the point masses."""
    return BoundaryKernel(domain, _mass_to_kernel(domain, domain.kernel_table()[0]),
                          kind="identity", meta={"y": 0.0})


def build_k(domain: DiscreteDomain, y: float, family: str = "martin") -> BoundaryKernel:
    """Shifted-kernel table k_y over all boundary base points."""
    if y < 2 * domain.h - 1e-12 and family == "martin":
        raise ResolutionError(f"height {y} below the 2h resolution floor")
    rows = mass_rows(domain, y, family)
    return BoundaryKernel(domain, _mass_to_kernel(domain, rows), kind="k",
                          meta={"y": y, "family": family})


def compose(p: BoundaryKernel, q: BoundaryKernel) -> BoundaryKernel:
    """Kernel composition: integrate the middle variable against w."""
    if p.domain is not q.domain:
        raise ConfigError("kernel composition requires a common domain")
    w = p.weights
    entries = (p.entries * w[None, :]) @ q.entries
    return BoundaryKernel(p.domain, entries, kind=f"{p.kind}*{q.kind}",
                          meta={"left": p.meta, "right": q.meta})


def c_masses(domain: DiscreteDomain, u: HarmonicField, y: float):
    """Exit-mass rows of c_y, a fresh array: row i is the central difference
    of the mass rows at x_i + y along the unit gradient of u at x_i + 2y."""
    sx, sy, _ = u.sigma_rows(2 * y)
    dx, dy = domain.stencil_rows(y)
    return sx[:, None] * dx + sy[:, None] * dy


def build_c(domain: DiscreteDomain, u: HarmonicField, y: float) -> BoundaryKernel:
    """Directional-derivative kernel at height y.

    Row i differentiates k(., zeta_j) at x_i + y along the unit gradient of u
    taken at x_i + 2y; rows with vanishing gradient are identically zero.
    """
    if y < 2 * domain.h - 1e-12:
        raise ResolutionError(f"height {y} below the 2h resolution floor")
    return BoundaryKernel(domain, _mass_to_kernel(domain, c_masses(domain, u, y)),
                          kind="c", meta={"y": y})


def build_b(domain: DiscreteDomain, u: HarmonicField, y: float,
            family: str = "martin") -> BoundaryKernel:
    """Composite kernel b_y = k_y o c_y."""
    b = compose(build_k(domain, y, family), build_c(domain, u, y))
    b.kind = "b"
    b.meta = {"y": y, "family": family}
    return b


def cell_kernels(domain: DiscreteDomain, u: HarmonicField, k: int, family: str):
    """b_y W = (k_y W)(c_y W) at the four nodes of height cell k
    (``DiscreteDomain.cell_nodes``), in exit-mass form, stacked (4, nx, nx)."""
    ys = domain.cell_nodes(k)
    rows = np.stack([mass_rows(domain, y, family) for y in ys])
    return rows @ np.stack([c_masses(domain, u, y) for y in ys])


def cell_sum(rule, cells):
    """Sum over a height rule [(k, weights)] of the weighted node kernels of
    each cell, where ``cells(k)`` returns cell k's stack; a fresh array."""
    terms = (np.tensordot(w, cells(k), axes=1) for k, w in rule)
    total = next(terms)
    for term in terms:
        total += term
    return total


def build_b_segment(domain: DiscreteDomain, u: HarmonicField, segment,
                    family: str = "martin") -> BoundaryKernel:
    """Height-integrated kernel over a segment, b_seg = integral of b_y dy.

    b_y is smooth between its kinks at the multiples of h/2, so the integral
    takes ``DiscreteDomain.height_rule``: four Gauss-Legendre nodes on every
    cell between kinks, near rounding on whole cells (8e-15 relative on the
    flat h = 0.05 grid), a cubic interpolant on partial ones, and additive
    under any split.  The cells are summed in exit-mass form, and the sum
    turns into densities once.  ``meta["panels"]`` is the number of cells.
    """
    a, b = (segment.m, segment.M) if hasattr(segment, "m") else (float(segment[0]), float(segment[1]))
    if b <= a:
        raise ConfigError("segment must have positive length")
    if a < 2 * domain.h - 1e-12:
        raise ResolutionError(f"segment lower endpoint {a} below the 2h floor")
    rule = domain.height_rule(a, b)
    masses = cell_sum(rule, lambda k: cell_kernels(domain, u, k, family))
    return BoundaryKernel(domain, _mass_to_kernel(domain, masses), kind="b_segment",
                          meta={"segment": (a, b), "panels": len(rule),
                                "family": family})


# -- fast vector paths (no full tables) ----------------------------------------


def apply_k(domain: DiscreteDomain, y: float, f, family: str = "martin"):
    """K_y f without materializing the kernel: one matvec per band level on
    the martin family, one with the cached power rows on the power family."""
    f = np.asarray(f, dtype=float)
    if family == "martin" and y >= 0:  # mass_rows raises on the rest
        return domain.mass_matvec(y, f)
    return mass_rows(domain, y, family) @ f


def apply_c(domain: DiscreteDomain, u: HarmonicField, y: float, f):
    """C_y f from the matrix-free stencil products of the band
    (``DiscreteDomain.stencil_matvec``): no difference matrix is formed."""
    sx, sy, _ = u.sigma_rows(2 * y)
    gx, gy = domain.stencil_matvec(y, np.asarray(f, dtype=float))
    return sx * gx + sy * gy


def apply_b(domain: DiscreteDomain, u: HarmonicField, y: float, f,
            family: str = "martin"):
    """B_y f = K_y(C_y f) via two matvecs."""
    return apply_k(domain, y, apply_c(domain, u, y, f), family)


def cell_apply_b(domain: DiscreteDomain, u: HarmonicField, k: int, fs):
    """B_y f_y at the four nodes of height cell k (``DiscreteDomain.cell_nodes``)
    on the martin family, for a stack fs (4, nx) of one function per node;
    stacked (4, nx).

    The nodes share one grid level, so each band product of ``apply_b``
    takes the four functions as the columns of one matrix.
    """
    ys = domain.cell_nodes(k)
    sx, sy = np.stack([u.sigma_rows(2 * y)[:2] for y in ys], axis=2)
    gx, gy = domain.stencil_matvec(ys, np.asarray(fs, dtype=float).T)
    return domain.mass_matvec(ys, sx * gx + sy * gy).T


# -- Harnack exponent -----------------------------------------------------------


@dataclass
class HarnackFit:
    """Fitted exponent and constant for the two-height kernel ratio bound."""

    alpha: float
    c: float

    def bound_holds(self, ratio_sup, y1, y2) -> bool:
        return ratio_sup <= (1 + HARNACK_SLACK) * self.c * (y2 / y1) ** self.alpha


def _ratio_sup(domain, y1, y2):
    """sup k_{y2}/k_{y1} over base nodes within half the box halfwidth."""
    core = np.abs(domain.xs) <= domain.config.box_halfwidth / 2
    k1 = mass_rows(domain, y1)[core, :]
    k2 = mass_rows(domain, y2)[core, :]
    w = domain.hm_weights
    floor = 1e-11 * w.sum()
    mask = (k1 > floor) & (k2 > floor)
    if not np.any(mask):
        raise ConfigError(f"no usable entries for pair ({y1}, {y2})")
    r = np.ones_like(k1)
    r[mask] = k2[mask] / k1[mask]
    return float(r.max())


def harnack_alpha(domain: DiscreteDomain, y_pairs) -> HarnackFit:
    """Fit (alpha, c) so that sup k_{y2}/k_{y1} <= c (y2/y1)^alpha on samples.

    A least-squares fit of log ratio against log(y2/y1) gives alpha; c is then
    inflated to cover every sample exactly, so the returned pair is minimal
    for the fitted exponent.
    """
    pairs = [(float(a), float(b)) for a, b in y_pairs]
    if not pairs:
        raise ConfigError("empty pair list")
    for y1, y2 in pairs:
        if y1 > y2:
            raise ConfigError("pairs must satisfy y1 <= y2")
        if y1 < 2 * domain.h - 1e-12:
            raise ResolutionError("pair heights must respect the 2h floor")

    logs, sups = [], []
    for y1, y2 in pairs:
        sup = _ratio_sup(domain, y1, y2)
        sups.append(sup)
        logs.append(np.log(y2 / y1))
    logs = np.array(logs)
    sups = np.array(sups)
    live = logs > 1e-12  # equal-height pairs carry no slope information
    if live.sum() >= 2:
        alpha = float(np.polyfit(logs[live], np.log(sups[live]), 1)[0])
        alpha = max(alpha, 0.0)
    elif live.sum() == 1:
        alpha = max(float(np.log(sups[live][0]) / logs[live][0]), 0.0)
    else:
        alpha = 0.0
    c = float(np.max(sups / np.exp(alpha * logs)))
    return HarnackFit(alpha=alpha, c=c)


def harnack_violations(domain: DiscreteDomain, fit: HarnackFit, y_pairs) -> float:
    """Fraction of held-out pairs violating the fitted bound beyond
    ``HARNACK_SLACK``."""
    bad = 0
    pairs = list(y_pairs)
    for y1, y2 in pairs:
        sup = _ratio_sup(domain, float(y1), float(y2))
        if not fit.bound_holds(sup, y1, y2):
            bad += 1
    return bad / len(pairs)
