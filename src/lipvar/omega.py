"""Partition machinery and the perturbed-kernel limit construction.

For a segment [m, M] of heights and a small coupling eps, the perturbed
kernel is

    omega_tilde = k_{M-m} - eps * integral over the segment of b_y dy,

and for a partition of the segment the product kernel composes the factors
of its pieces right-to-left in increasing order.  Refining dyadically and
passing to the limit yields the central kernel omega_seg.

All pure-k factors in this module use the ``power`` kernel family (exact
fractional powers of the one-grid-step exit operator).  With that family the
k-parts of the product telescope exactly, so the recorded dyadic differences
isolate the eps-perturbation structure that the construction is about; with
direct solver rows the grid's composition defect would dominate instead.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from . import kernels as K
from .domain_field.grid import DiscreteDomain, HarmonicField, harmonic_extension
from .errors import ConfigError, ConvergenceError, ResolutionError

DEFAULT_EPS = 0.05
OMEGA_TOL = 1e-3
N_MAX = 12
_B_CACHE_SIZE = 288


# ---------------------------------------------------------------------------
# segments and partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """Compact subinterval [m, M] of the positive half-line."""

    m: float
    M: float

    def __post_init__(self):
        if not (0 < self.m < self.M):
            raise ConfigError(f"segment requires 0 < m < M, got [{self.m}, {self.M}]")

    @property
    def length(self) -> float:
        return self.M - self.m

    @property
    def ratio(self) -> float:
        """Aspect |seg| / m(seg) controlling the perturbation estimates."""
        return self.length / self.m

    def contains(self, other: "Segment") -> bool:
        return self.m <= other.m + 1e-12 and other.M <= self.M + 1e-12

    def split(self, at: float):
        return Segment(self.m, at), Segment(at, self.M)


@dataclass(frozen=True)
class Partition:
    """Ordered non-overlapping segments covering a parent segment."""

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ConfigError("partition must be nonempty")
        for a, b in zip(segs[:-1], segs[1:]):
            if abs(a.M - b.m) > 1e-12:
                raise ConfigError("partition segments must abut in increasing order")
        object.__setattr__(self, "segments", segs)

    @property
    def parent(self) -> Segment:
        return Segment(self.segments[0].m, self.segments[-1].M)

    @property
    def mesh(self) -> float:
        return max(s.length for s in self.segments)

    @property
    def is_regular(self) -> bool:
        return self.mesh <= 2 * self.parent.length / len(self.segments) + 1e-12

    def refines(self, coarser: "Partition") -> bool:
        return all(any(c.contains(s) for c in coarser.segments) for s in self.segments)


def dyadic_partition(seg: Segment, n: int) -> Partition:
    """Partition by the absolute dyadic grid s/2^n, clipped to the segment."""
    if n < 0:
        raise ConfigError("dyadic depth must be nonnegative")
    step = 2.0 ** (-n)
    s0 = int(np.floor(seg.m / step + 1e-12))
    cuts = [seg.m]
    for s in range(s0 + 1, int(np.ceil(seg.M / step - 1e-12))):
        c = s * step
        if seg.m + 1e-15 < c < seg.M - 1e-15:
            cuts.append(c)
    cuts.append(seg.M)
    return Partition(tuple(Segment(a, b) for a, b in zip(cuts[:-1], cuts[1:])))


# ---------------------------------------------------------------------------
# cached workspace
# ---------------------------------------------------------------------------


class OmegaWorkspace:
    """Caches the eps-independent pieces of the construction for one (domain, u).

    The workspace lives in ``u``'s own cache and holds ``u`` weakly, so a
    dropped ``u`` frees its workspace at once, without the cyclic collector.
    """

    def __init__(self, domain: DiscreteDomain, u: HarmonicField,
                 family: str = "power", quad_rtol: float = 1e-3):
        self.domain = domain
        self._u = weakref.ref(u)
        self.family = family
        self.quad_rtol = quad_rtol
        self._b = OrderedDict()
        self._omega = {}

    @property
    def u(self) -> HarmonicField:
        return self._u()

    def k_rows(self, y: float):
        return K.mass_rows(self.domain, y, self.family)

    def b_entries(self, seg: Segment):
        key = (round(seg.m, 12), round(seg.M, 12))
        if key in self._b:
            self._b.move_to_end(key)
            return self._b[key]
        val = K.build_b_segment(self.domain, self.u, seg, rtol=self.quad_rtol,
                                family=self.family).entries
        self._b[key] = val
        if len(self._b) > _B_CACHE_SIZE:
            self._b.popitem(last=False)
        return val

    def omega_tilde_entries(self, seg: Segment, eps: float):
        kpart = self.k_rows(seg.length) / self.domain.safe_weights[None, :]
        if eps == 0.0:
            return kpart
        return kpart - eps * self.b_entries(seg)

    def compose_entries(self, left, right):
        return (left * self.domain.hm_weights[None, :]) @ right

    def pi_entries(self, partition: Partition, eps: float):
        out = None
        for seg in partition.segments:  # increasing order; first factor acts first
            f = self.omega_tilde_entries(seg, eps)
            out = f if out is None else self.compose_entries(f, out)
        return out

    def omega_entries(self, seg: Segment, eps: float, tol: float = OMEGA_TOL,
                      n_max: int = N_MAX, n_start: int | None = None):
        key = (round(seg.m, 12), round(seg.M, 12), round(eps, 12), tol, n_start)
        if key not in self._omega:
            self._omega[key] = self._dyadic_limit(seg, eps, tol, n_max, n_start)
        return self._omega[key]

    def _dyadic_limit(self, seg, eps, tol, n_max, n_start):
        if seg.m < 2 * self.domain.h - 1e-12:
            raise ResolutionError(
                f"segment [{seg.m}, {seg.M}] below the 2h floor of the grid"
            )
        scale = float(np.abs(self.k_rows(seg.m) / self.domain.safe_weights[None, :]).max())
        if n_start is None:
            n_start = max(0, int(np.ceil(np.log2(1.0 / seg.length))) + 1)
        n_max = max(n_max, n_start + 1)
        prev = None
        history = []
        for n in range(n_start, n_max + 1):
            cur = self.pi_entries(dyadic_partition(seg, n), eps)
            if prev is not None:
                diff = float(np.abs(cur - prev).max())
                history.append((n, diff))
                if diff <= tol * scale:
                    return cur, history, scale
            prev = cur
        if eps == 0.0:
            # pure powers telescope: every level is already the limit
            return prev, history, scale
        raise ConvergenceError(
            f"dyadic limit on [{seg.m}, {seg.M}] (eps={eps}) not settled by "
            f"level {n_max}; diffs {[f'{d:.3e}' for _, d in history]}",
            history=history,
        )


def _workspace(domain: DiscreteDomain, u: HarmonicField,
               family: str = "power", quad_rtol: float = 1e-3) -> OmegaWorkspace:
    if domain is not u.domain:
        raise ConfigError("u must be a field on the given domain")
    cache = getattr(u, "_omega_workspaces", None)
    if cache is None:
        cache = {}
        u._omega_workspaces = cache
    key = (family, quad_rtol)
    if key not in cache:
        cache[key] = OmegaWorkspace(domain, u, family, quad_rtol)
    return cache[key]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def omega_tilde(domain: DiscreteDomain, u: HarmonicField, seg: Segment,
                eps: float, family: str = "power") -> K.BoundaryKernel:
    """Perturbed kernel k_{|seg|} - eps * b_seg."""
    if not (0 <= eps):
        raise ConfigError("eps must be nonnegative")
    ws = _workspace(domain, u, family)
    return K.BoundaryKernel(domain, ws.omega_tilde_entries(seg, eps),
                            kind="omega_tilde", signed=eps > 0,
                            meta={"segment": (seg.m, seg.M), "eps": eps,
                                  "family": family})


def pi_product(domain: DiscreteDomain, u: HarmonicField, seg: Segment,
               partition: Partition, eps: float,
               family: str = "power") -> K.BoundaryKernel:
    """Right-to-left product of the perturbed kernels of a partition."""
    parent = partition.parent
    if abs(parent.m - seg.m) > 1e-9 or abs(parent.M - seg.M) > 1e-9:
        raise ConfigError("partition does not cover the requested segment")
    ws = _workspace(domain, u, family)
    return K.BoundaryKernel(domain, ws.pi_entries(partition, eps), kind="pi",
                            signed=eps > 0,
                            meta={"segment": (seg.m, seg.M), "eps": eps,
                                  "K": len(partition.segments), "family": family})


def omega_limit(domain: DiscreteDomain, u: HarmonicField, seg: Segment,
                eps: float, tol: float = OMEGA_TOL, n_max: int = N_MAX,
                n_start: int | None = None,
                family: str = "power") -> K.BoundaryKernel:
    """Dyadic-refinement limit of the partition products on a segment.

    The kernel's ``meta`` records the per-level sup differences and the
    observed decay ratios (the construction predicts halving).
    """
    ws = _workspace(domain, u, family)
    entries, history, scale = ws.omega_entries(seg, eps, tol, n_max, n_start)
    diffs = [d for _, d in history]
    ratios = [b / a for a, b in zip(diffs[:-1], diffs[1:]) if a > 0]
    return K.BoundaryKernel(domain, entries, kind="omega", signed=eps > 0,
                            meta={"segment": (seg.m, seg.M), "eps": eps,
                                  "history": history, "decay_ratios": ratios,
                                  "scale": scale, "family": family})


def check_omega_properties(omega: K.BoundaryKernel, omega_t: K.BoundaryKernel,
                           seg: Segment, eps: float,
                           u: HarmonicField | None = None,
                           refined: K.BoundaryKernel | None = None) -> dict:
    """Report normalization, semigroup, positivity and closeness margins.

    ``refined``, when given, is the same omega built on a mesh-halved domain;
    its adjacent-row continuity ratio is then included.  Report-only: every
    entry carries a margin and a pass flag, nothing raises.
    """
    if omega.domain is not omega_t.domain:
        raise ConfigError("kernels must share a domain")
    d = omega.domain
    report = {}

    norm = float(np.abs(omega.row_integrals() - 1.0).max())
    report["normalization"] = {"margin": norm, "passed": norm <= 1e-3}

    if u is not None:
        mid = 0.5 * (seg.m + seg.M)
        left, right = seg.split(mid)
        ws = _workspace(d, u, omega.meta.get("family", "power"))
        ol, _, _ = ws.omega_entries(left, eps)
        orr, _, _ = ws.omega_entries(right, eps)
        comp = ws.compose_entries(orr, ol)
        rel = float(np.abs(comp - omega.entries).max() / max(np.abs(omega.entries).max(), 1e-300))
        report["semigroup"] = {"margin": rel, "passed": rel <= 0.02,
                               "split_at": mid}

    min_entry = float(omega.entries.min())
    pos = {"min_entry": min_entry, "passed": min_entry >= 0.0, "chain": None}
    if min_entry < 0 and u is not None and seg.length > seg.m:
        # compose doubling blocks, each within the aspect range that stays positive
        ws = _workspace(d, u, omega.meta.get("family", "power"))
        mins = []
        a = seg.m
        while True:
            b = min(2 * a, seg.M)
            if seg.M - b < b - 1e-12 and b < seg.M:
                b = seg.M
            ent, _, _ = ws.omega_entries(Segment(a, b), eps)
            mins.append(float(ent.min()))
            if b >= seg.M - 1e-12:
                break
            a = b
        pos["chain"] = mins
        pos["passed"] = all(m >= 0 for m in mins)
    report["positivity"] = pos

    gap = float(np.abs(omega.entries - omega_t.entries).max())
    k_m_sup = omega.meta.get("scale")
    if k_m_sup is None:
        k_m_sup = float(np.abs(K.mass_rows(d, seg.m, "power") / d.safe_weights).max())
    closeness = {
        "gap": gap,
        "passed": True,
        "required_constant": gap / max(eps ** 2 * seg.ratio ** 2 * k_m_sup, 1e-300)
        if eps > 0 else 0.0,
        "applicable": seg.length <= seg.m + 1e-12,
    }
    report["closeness"] = closeness

    adj = float(np.abs(np.diff(omega.entries, axis=0)).max())
    cont = {"adjacent_row_sup": adj, "cauchy_ratio": None, "passed": True}
    if refined is not None:
        # adjacent nodes of the refined mesh sit half as far apart, so the
        # row modulus of a continuous kernel must shrink accordingly
        adj2 = float(np.abs(np.diff(refined.entries, axis=0)).max())
        cont["cauchy_ratio"] = adj2 / max(adj, 1e-300)
        cont["passed"] = cont["cauchy_ratio"] <= 0.6
    report["continuity"] = cont
    return report


# ---------------------------------------------------------------------------
# the omega_[y, 1] ladder
# ---------------------------------------------------------------------------


class OmegaLadder:
    """Prefix family Omega_{[y, 1]} assembled from elementary segments.

    The segment semigroup lets the family be built once per (u, eps) from
    elementary dyadic limits between consecutive ladder points and reused by
    the differential-equation check, the measure transforms, and the probe.
    """

    def __init__(self, domain: DiscreteDomain, u: HarmonicField, eps: float,
                 points, family: str = "power", tol: float = OMEGA_TOL):
        pts = sorted({round(float(p), 12) for p in points} | {1.0})
        if pts[0] < 2 * domain.h - 1e-12:
            raise ResolutionError("ladder foot below the 2h floor")
        if pts[-1] > 1.0 + 1e-12:
            raise ConfigError("ladder points must lie in (0, 1]")
        self.domain = domain
        self.u = u
        self.eps = eps
        self.points = pts
        self.ws = _workspace(domain, u, family)
        self._omega_at = {}
        cur = np.diag(1.0 / domain.safe_weights)  # Omega over the empty segment [1, 1]
        self._omega_at[1.0] = cur
        for a, b in zip(pts[-2::-1], pts[::-1]):
            ent, _, _ = self.ws.omega_entries(Segment(a, b), eps, tol)
            cur = self.ws.compose_entries(cur, ent)
            self._omega_at[a] = cur

    def omega_y(self, y: float) -> K.BoundaryKernel:
        key = round(float(y), 12)
        if key not in self._omega_at:
            raise ConfigError(f"{y} is not a ladder point {self.points}")
        return K.BoundaryKernel(self.domain, self._omega_at[key], kind="omega",
                                signed=self.eps > 0,
                                meta={"segment": (key, 1.0), "eps": self.eps})

    def apply(self, y: float, f):
        return self._omega_at[round(float(y), 12)] @ (self.domain.hm_weights * f)

    def adjoint_density(self, y: float, kappa_masses):
        """Density of the transformed measure Omega_y^*(kappa) against w."""
        return self._omega_at[round(float(y), 12)].T @ kappa_masses


# ---------------------------------------------------------------------------
# property checkers
# ---------------------------------------------------------------------------


def omega_rho_bounds(domain: DiscreteDomain, u: HarmonicField, rho: float,
                     eps: float, tol: float = OMEGA_TOL) -> dict:
    """Two-sided comparison of omega_[rho,1] with k_{1-rho}.

    Builds omega_rho by the doubling chain rho, 2 rho, 4 rho, ..., 1 and
    returns the smallest c_plus and largest c_minus with

        c_minus rho^(c_minus eps) k <= omega_rho <= c_plus rho^(-c_plus eps) k.
    """
    if not (0 < rho < 0.5):
        raise ConfigError("rho must lie in (0, 1/2)")
    pts = [rho]
    while pts[-1] * 2 < 1.0 - 1e-12:
        pts.append(pts[-1] * 2)
    ladder = OmegaLadder(domain, u, eps, pts, tol=tol)
    om = ladder.omega_y(rho).entries
    kref = K.mass_rows(domain, 1.0 - rho, "power") / domain.safe_weights[None, :]
    floor = 1e-9 * kref.max()
    mask = kref > floor
    ratio = om[mask] / kref[mask]
    rmax, rmin = float(ratio.max()), float(ratio.min())

    if eps == 0.0:
        c_plus, c_minus = rmax, rmin
    else:
        # rho^(-c eps) >= 1 forces the root below rmax
        c_plus = brentq(lambda c: c * rho ** (-c * eps) - rmax,
                        min(1e-9, rmax / 2), rmax + 1.0)
        if rmin <= 0:
            c_minus = 0.0
        else:
            c_star = -1.0 / (eps * np.log(rho))
            g = lambda c: c * rho ** (c * eps) - rmin
            c_minus = c_star if g(c_star) < 0 else brentq(g, 1e-12, c_star)
    return {"rho": rho, "eps": eps, "c_plus": c_plus, "c_minus": c_minus,
            "sup_ratio": rmax, "inf_ratio": rmin}


def cross_boundary_data(domain: DiscreteDomain, y_shift: float, arc=(-1.0, 1.0)):
    """Boundary data harmonic across the graph: restriction of a positive
    harmonic function built on the domain enlarged downward by y_shift.

    Returns (psi, enlarged_field).
    """
    h = domain.h
    if abs(y_shift / h - round(y_shift / h)) > 1e-9:
        raise ConfigError("y_shift must be a multiple of the grid spacing")
    cfg = replace(domain.config, graph_offset=domain.config.graph_offset - y_shift,
                  far_field="zero")
    enlarged = DiscreteDomain(cfg)
    from .domain_field.grid import arc_indicator  # local import to avoid cycle

    data = arc_indicator(enlarged, arc[0], arc[1])
    v = harmonic_extension(enlarged, data)
    psi = v.rows(y_shift)
    return psi, v


def phi_property_check(domain: DiscreteDomain, u: HarmonicField, psi, seg: Segment,
                       y: float, eps: float, family: str = "power") -> dict:
    """Multiplicative stability of Omega_seg on data harmonic across the graph.

    Returns the normalized sup ratio |Omega(psi) - psi| / ((|seg|/y) psi)
    together with the sup-norm split used by the continuous-data variant.
    """
    if seg.M > y + 1e-12:
        raise ConfigError("segment must lie in (0, y]")
    if seg.length > seg.m + 1e-12:
        raise ConfigError("phi-property requires |seg| <= m(seg)")
    psi = np.asarray(psi, dtype=float)
    if np.any(psi <= 0):
        raise ConfigError("psi must be strictly positive on the mesh")
    ws = _workspace(domain, u, family)
    om, _, _ = ws.omega_entries(seg, eps)
    w = domain.hm_weights
    img = om @ (w * psi)
    keep = np.ones(domain.nx, dtype=bool)
    keep[domain.excluded_nodes] = False
    dev = np.abs(img - psi)[keep]
    ratio = float((dev / ((seg.length / y) * psi[keep])).max())

    kimg = ws.k_rows(seg.length) @ psi
    sup_all = float(np.abs(img - psi)[keep].max())
    sup_k = float(np.abs(kimg - psi)[keep].max())
    c2 = (sup_all - sup_k) / ((seg.length / seg.m) * float(np.abs(psi).max()))
    return {"ratio": ratio, "sup_deviation": sup_all, "sup_k_deviation": sup_k,
            "sup_variant_constant": c2, "segment": (seg.m, seg.M), "y": y,
            "eps": eps}


def ode_check(domain: DiscreteDomain, u: HarmonicField, phi: HarmonicField,
              eps: float, y_grid, family: str = "power",
              tol: float = OMEGA_TOL) -> dict:
    """Residual of d/dy Omega_y(phi_y) = eps Omega_y(B_y(phi_y)) on a y-grid.

    Central differences across the uniformly spaced grid are compared with
    the right-hand side at interior grid points.  Also evaluates the
    comparison bound Omega_eta(phi_y) <= (1 + C) Omega_y(phi_y) for eta < y.
    """
    ys = np.asarray(sorted(float(v) for v in y_grid))
    if len(ys) < 5:
        raise ConfigError("y-grid must contain at least 5 points")
    steps = np.diff(ys)
    if np.abs(steps - steps[0]).max() > 1e-9:
        raise ConfigError("y-grid must be uniformly spaced")
    ladder = OmegaLadder(domain, u, eps, ys, family=family, tol=tol)
    keep = np.ones(domain.nx, dtype=bool)
    keep[domain.excluded_nodes] = False

    f = {}
    rhs = {}
    for y in ys:
        phi_y = phi.rows(y)
        f[y] = ladder.apply(y, phi_y)
        rhs[y] = eps * ladder.apply(y, K.apply_b(domain, u, y, phi_y, family))
    abs_res = 0.0
    rhs_sup = max(float(np.abs(rhs[y])[keep].max()) for y in ys)
    for lo, mid, hi in zip(ys[:-2], ys[1:-1], ys[2:]):
        lhs = (f[hi] - f[lo]) / (hi - lo)
        abs_res = max(abs_res, float(np.abs(lhs - rhs[mid])[keep].max()))
    rel_res = abs_res / max(rhs_sup, 1e-300)

    # comparison bound at a few (eta, y) pairs
    comp_c = 0.0
    for i_eta in range(0, len(ys) - 1, max(1, len(ys) // 4)):
        eta = ys[i_eta]
        for y in ys[i_eta + 1::max(1, len(ys) // 4)]:
            phi_y = phi.rows(y)
            upper = ladder.apply(eta, phi_y)
            lower = ladder.apply(y, phi_y)
            ok = keep & (lower > 1e-12 * np.abs(lower).max())
            comp_c = max(comp_c, float((upper[ok] / lower[ok]).max()) - 1.0)

    return {"eps": eps, "abs_residual": abs_res, "rel_residual": rel_res,
            "rhs_sup": rhs_sup, "comparison_constant": comp_c,
            "y_grid": [float(v) for v in ys]}


def find_positive_epsilon(domain: DiscreteDomain, u: HarmonicField,
                          segments=None, hi: float = 0.5, iters: int = 6,
                          tol: float = OMEGA_TOL) -> float:
    """Bisect the largest eps keeping the limit kernels entrywise nonnegative
    on test segments with m <= |seg| <= 3m."""
    if segments is None:
        f = 2 * domain.h
        segments = [Segment(max(0.1, f), max(0.1, f) * 3),
                    Segment(max(0.15, f), max(0.15, f) * 2)]
    ws = _workspace(domain, u)

    def positive(eps):
        try:
            return all(ws.omega_entries(s, eps, tol)[0].min() >= 0 for s in segments)
        except ConvergenceError:
            return False

    lo_e, hi_e = 0.0, hi
    if positive(hi_e):
        return hi_e
    for _ in range(iters):
        mid = 0.5 * (lo_e + hi_e)
        if positive(mid):
            lo_e = mid
        else:
            hi_e = mid
    return lo_e
