"""Dense kernel algebra on the boundary mesh.

Kernels are real tables indexed by (base node i, target node j) holding
densities against the pole measure: the Martin-type kernel at height y is

    k_y[i, j] = (exit mass at node j from the point y above node i) / w_j,

where w is the pole measure of the kernel closure.  Composition integrates
the middle variable against w, so operators act on boundary functions f via
``entries @ (w * f)``.

Two realizations of the k-family coexist:

``martin``
    Rows read off the cached solver table; this is the density-ratio
    definition and is what the closed-form comparisons test.

``power``
    Fractional powers of the one-grid-step exit operator.  The family is
    semigroup-exact to rounding, which the omega construction requires so
    that its dyadic products telescope; it deviates from ``martin`` rows by
    the one-step composition defect of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain_field.grid import DiscreteDomain, HarmonicField
from .errors import ConfigError, ResolutionError


@dataclass
class BoundaryKernel:
    """Dense kernel table over the boundary mesh."""

    domain: DiscreteDomain
    entries: np.ndarray
    kind: str = "k"
    signed: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def weights(self):
        return self.domain.hm_weights

    def apply(self, f):
        """Integrate the second argument against f d(pole measure)."""
        return self.entries @ (self.weights * np.asarray(f, dtype=float))

    def row_integrals(self):
        return self.entries @ self.weights

    def sup(self) -> float:
        return float(np.abs(self.entries).max())


def _mass_to_kernel(domain, rows):
    k = rows / domain.safe_weights[None, :]
    if len(domain.excluded_nodes):
        k[:, domain.excluded_nodes] = 0.0
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
    """Convolution identity: diagonal entries 1/w_m."""
    return BoundaryKernel(domain, np.diag(1.0 / domain.safe_weights), kind="identity",
                          meta={"y": 0.0})


def martin_kernel(domain: DiscreteDomain, x, node=None):
    """Martin kernel k(x, .): density of the exit measure from x against w.

    ``x`` must be a grid point within the cached kernel band.  Returns the
    full row over boundary nodes, or the single entry at ``node``.
    """
    i, j = domain.snap_point(x)
    if not domain.is_interior(i, j):
        raise ConfigError(f"{x} is not an interior point")
    joff = j - domain.jb[i]
    if joff > domain.band_rows:
        raise ResolutionError(
            f"{x} lies above the cached kernel band; raise band_height"
        )
    row = domain.kernel_table()[joff, i, :]
    vals = row / domain.safe_weights
    if len(domain.excluded_nodes):
        vals = vals.copy()
        vals[domain.excluded_nodes] = 0.0
    if node is None:
        return vals
    return float(vals[node])


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
                          signed=p.signed or q.signed,
                          meta={"left": p.meta, "right": q.meta})


def build_c(domain: DiscreteDomain, u: HarmonicField, y: float) -> BoundaryKernel:
    """Directional-derivative kernel at height y.

    Row i differentiates k(., zeta_j) at x_i + y along the unit gradient of u
    taken at x_i + 2y; rows with vanishing gradient are identically zero.
    """
    if y < 2 * domain.h - 1e-12:
        raise ResolutionError(f"height {y} below the 2h resolution floor")
    sx, sy, _ = u.sigma_rows(2 * y)
    E, W, N, S = domain.stencil_rows(y)
    rows = (sx[:, None] * (E - W) + sy[:, None] * (N - S)) / (2 * domain.h)
    dead = (sx == 0.0) & (sy == 0.0)
    if np.any(dead):
        rows[dead, :] = 0.0
    return BoundaryKernel(domain, _mass_to_kernel(domain, rows), kind="c",
                          signed=True, meta={"y": y})


def build_b(domain: DiscreteDomain, u: HarmonicField, y: float,
            family: str = "martin") -> BoundaryKernel:
    """Composite kernel b_y = k_y o c_y."""
    b = compose(build_k(domain, y, family), build_c(domain, u, y))
    b.kind = "b"
    b.meta = {"y": y, "family": family}
    return b


_GL_NODES = {n: np.polynomial.legendre.leggauss(n) for n in (2, 4)}


def _b_quadrature(domain, u, a, b, n_panels, family):
    order = 2 if (b - a) / n_panels < 0.4 * domain.h else 4
    nodes, wts = _GL_NODES[order]
    edges = np.linspace(a, b, n_panels + 1)
    # (height, weight) of every Gauss node, panel by panel
    rule = [(0.5 * (lo + hi) + 0.5 * (hi - lo) * t, 0.5 * (hi - lo) * wq)
            for lo, hi in zip(edges[:-1], edges[1:]) for t, wq in zip(nodes, wts)]
    if family == "power":
        # b_y = k_y o c_y is G^(y/h) applied to c_y with its excluded rows
        # zeroed (k_y's zero columns); the domain sums the nodes in its eigenbasis
        def terms():
            for y, wq in rule:
                c = build_c(domain, u, y).entries
                c[domain.excluded_nodes, :] = 0.0
                yield y, wq, c

        return domain.power_sum(terms())
    total = np.zeros((domain.nx, domain.nx))
    for y, wq in rule:
        total += wq * build_b(domain, u, y, family).entries
    return total


def build_b_segment(domain: DiscreteDomain, u: HarmonicField, segment,
                    rtol: float = 1e-3, family: str = "martin",
                    max_refinements: int = 6) -> BoundaryKernel:
    """Height-integrated kernel over a segment, b_seg = integral of b_y dy.

    Composite Gauss-Legendre panels are halved until two successive
    estimates agree to ``rtol`` in relative sup norm.
    """
    a, b = (segment.m, segment.M) if hasattr(segment, "m") else (float(segment[0]), float(segment[1]))
    if b - a < 0:
        raise ConfigError("segment must have positive length")
    if a < 2 * domain.h - 1e-12:
        raise ResolutionError(f"segment lower endpoint {a} below the 2h floor")
    n = max(1, int(np.ceil((b - a) / (4 * domain.h))))
    prev = _b_quadrature(domain, u, a, b, n, family)
    for _ in range(max_refinements):
        n *= 2
        cur = _b_quadrature(domain, u, a, b, n, family)
        scale = max(np.abs(cur).max(), 1e-300)
        if np.abs(cur - prev).max() <= rtol * scale:
            return BoundaryKernel(domain, cur, kind="b_segment", signed=True,
                                  meta={"segment": (a, b), "panels": n,
                                        "family": family})
        prev = cur
    raise ResolutionError(
        f"b-segment quadrature on [{a}, {b}] did not settle within "
        f"{max_refinements} halvings"
    )


# -- fast vector paths (no full tables) ----------------------------------------


def apply_k(domain: DiscreteDomain, y: float, f, family: str = "martin"):
    """K_y f without materializing the kernel: one mass-row matvec."""
    return mass_rows(domain, y, family) @ np.asarray(f, dtype=float)


def apply_c(domain: DiscreteDomain, u: HarmonicField, y: float, f):
    """C_y f via stencil matvecs on the mass rows."""
    sx, sy, _ = u.sigma_rows(2 * y)
    E, W, N, S = domain.stencil_rows(y)
    f = np.asarray(f, dtype=float)
    return (sx * ((E - W) @ f) + sy * ((N - S) @ f)) / (2 * domain.h)


def apply_b(domain: DiscreteDomain, u: HarmonicField, y: float, f,
            family: str = "martin"):
    """B_y f = K_y(C_y f) via two matvecs."""
    return apply_k(domain, y, apply_c(domain, u, y, f), family)


# -- Harnack exponent -----------------------------------------------------------


@dataclass
class HarnackFit:
    """Fitted exponent and constant for the two-height kernel ratio bound."""

    alpha: float
    c: float
    pair_ratios: list
    core_halfwidth: float

    def bound_holds(self, ratio_sup, y1, y2, slack: float = 0.01) -> bool:
        return ratio_sup <= (1 + slack) * self.c * (y2 / y1) ** self.alpha


def _ratio_sup(domain, y1, y2, core, family):
    k1 = mass_rows(domain, y1, family)[core, :]
    k2 = mass_rows(domain, y2, family)[core, :]
    w = domain.hm_weights
    floor = 1e-11 * w.sum()
    mask = (k1 > floor) & (k2 > floor)
    if not np.any(mask):
        raise ConfigError(f"no usable entries for pair ({y1}, {y2})")
    r = np.ones_like(k1)
    r[mask] = k2[mask] / k1[mask]
    return float(r.max())


def harnack_alpha(domain: DiscreteDomain, y_pairs, core_halfwidth: float | None = None,
                  family: str = "martin") -> HarnackFit:
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
    if core_halfwidth is None:
        core_halfwidth = domain.config.box_halfwidth / 2
    core = np.abs(domain.xs) <= core_halfwidth

    logs, sups = [], []
    for y1, y2 in pairs:
        sup = _ratio_sup(domain, y1, y2, core, family)
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
    return HarnackFit(alpha=alpha, c=c,
                      pair_ratios=[(y1, y2, s) for (y1, y2), s in zip(pairs, sups)],
                      core_halfwidth=core_halfwidth)


def harnack_violations(domain: DiscreteDomain, fit: HarnackFit, y_pairs,
                       slack: float = 0.01, family: str = "martin") -> float:
    """Fraction of held-out pairs violating the fitted bound beyond slack."""
    core = np.abs(domain.xs) <= fit.core_halfwidth
    bad = 0
    pairs = list(y_pairs)
    for y1, y2 in pairs:
        sup = _ratio_sup(domain, float(y1), float(y2), core, family)
        if not fit.bound_holds(sup, y1, y2, slack):
            bad += 1
    return bad / len(pairs)
