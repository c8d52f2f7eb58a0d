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
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import lambertw

from . import kernels as K
from .domain_field.grid import DiscreteDomain, HarmonicField, harmonic_extension
from .errors import ConfigError, ConvergenceError, ResolutionError

DEFAULT_EPS = 0.05
OMEGA_TOL = 1e-3
N_MAX = 12       # deepest dyadic level of omega_limit, read at call time


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

    Every b_seg is a weighted sum of node kernels b_y on the kink cells of
    ``DiscreteDomain.height_rule``, so ``_b`` keeps, per height cell k, its
    four node kernels in exit-mass form, b_y W, stacked (4, nx, nx); a cell
    is built once and serves every segment that touches it.

    The factors and their products stay in exit-mass form, where composition
    is a plain matrix product: a factor is the masses of k_{|seg|} - eps b_seg.
    A partition's product turns into densities once, at its end.

    The workspace lives in ``u``'s own cache and holds ``u`` weakly, so a
    dropped ``u`` frees its workspace at once, without the cyclic collector.
    """

    def __init__(self, domain: DiscreteDomain, u: HarmonicField):
        self.domain = domain
        self._u = weakref.ref(u)
        self._b = {}
        self._omega = {}

    @property
    def u(self) -> HarmonicField:
        return self._u()

    def k_rows(self, y: float):
        return K.mass_rows(self.domain, y, "power")

    def b_entries(self, seg: Segment):
        """b_seg W, in a fresh array; a segment below the 2h floor raises."""
        if seg.m < 2 * self.domain.h - 1e-12:
            raise ResolutionError(f"segment lower endpoint {seg.m} below the 2h floor")
        return K.cell_sum(self.domain.height_rule(seg.m, seg.M), self._cell_kernels)

    def _cell_kernels(self, k: int):
        if k not in self._b:
            self._b[k] = K.cell_kernels(self.domain, self.u, k, "power")
        return self._b[k]

    def omega_tilde_entries(self, seg: Segment, eps: float):
        """Masses of k_{|seg|} - eps b_seg, in a fresh array (the power rows,
        a band level or a fraction-table entry, are never written)."""
        k = self.k_rows(seg.length)
        if eps == 0.0:
            return k.copy()
        out = self.b_entries(seg)
        out *= -eps
        out += k
        return out

    def pi_entries(self, partition: Partition, eps: float):
        """Densities of the partition's product of factors."""
        segs = partition.segments  # increasing order; the first factor acts first
        out = self.omega_tilde_entries(segs[0], eps)
        for seg in segs[1:]:
            out = self.omega_tilde_entries(seg, eps) @ out
        return K._mass_to_kernel(self.domain, out)

    def omega_entries(self, seg: Segment, eps: float, tol: float = OMEGA_TOL):
        key = (round(seg.m, 12), round(seg.M, 12), round(eps, 12), tol)
        if key not in self._omega:
            # from the key: a cached limit is the same whichever call filled it
            self._omega[key] = self._dyadic_limit(Segment(*key[:2]), key[2], tol)
        return self._omega[key]

    def _dyadic_limit(self, seg, eps, tol):
        if seg.m < 2 * self.domain.h - 1e-12:
            raise ResolutionError(
                f"segment [{seg.m}, {seg.M}] below the 2h floor of the grid"
            )
        scale = float(np.abs(K.build_k(self.domain, seg.m, "power").entries).max())
        n_start = max(0, int(np.ceil(np.log2(1.0 / seg.length))) + 1)
        n_max = max(N_MAX, n_start + 1)
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


def _workspace(domain: DiscreteDomain, u: HarmonicField) -> OmegaWorkspace:
    if domain is not u.domain:
        raise ConfigError("u must be a field on the given domain")
    ws = getattr(u, "_omega_workspace", None)
    if ws is None:
        ws = u._omega_workspace = OmegaWorkspace(domain, u)
    return ws


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def omega_tilde(domain: DiscreteDomain, u: HarmonicField, seg: Segment,
                eps: float) -> K.BoundaryKernel:
    """Perturbed kernel k_{|seg|} - eps * b_seg."""
    if not (0 <= eps):
        raise ConfigError("eps must be nonnegative")
    ws = _workspace(domain, u)
    entries = K._mass_to_kernel(domain, ws.omega_tilde_entries(seg, eps))
    return K.BoundaryKernel(domain, entries, kind="omega_tilde",
                            meta={"segment": (seg.m, seg.M), "eps": eps})


def pi_product(domain: DiscreteDomain, u: HarmonicField, seg: Segment,
               partition: Partition, eps: float) -> K.BoundaryKernel:
    """Right-to-left product of the perturbed kernels of a partition."""
    parent = partition.parent
    if abs(parent.m - seg.m) > 1e-9 or abs(parent.M - seg.M) > 1e-9:
        raise ConfigError("partition does not cover the requested segment")
    ws = _workspace(domain, u)
    return K.BoundaryKernel(domain, ws.pi_entries(partition, eps), kind="pi",
                            meta={"segment": (seg.m, seg.M), "eps": eps,
                                  "K": len(partition.segments)})


def omega_limit(domain: DiscreteDomain, u: HarmonicField, seg: Segment,
                eps: float, tol: float = OMEGA_TOL) -> K.BoundaryKernel:
    """Dyadic-refinement limit of the partition products on a segment.

    The kernel's ``meta`` records the per-level sup differences and the
    observed decay ratios (the construction predicts halving).
    """
    ws = _workspace(domain, u)
    entries, history, scale = ws.omega_entries(seg, eps, tol)
    diffs = [d for _, d in history]
    ratios = [b / a for a, b in zip(diffs[:-1], diffs[1:]) if a > 0]
    return K.BoundaryKernel(domain, entries, kind="omega",
                            meta={"segment": (seg.m, seg.M), "eps": eps,
                                  "history": history, "decay_ratios": ratios,
                                  "scale": scale})


# ---------------------------------------------------------------------------
# the omega_[y, 1] ladder
# ---------------------------------------------------------------------------


class OmegaLadder:
    """Prefix family Omega_{[y, 1]} at a set of ladder points, built once per
    (u, eps) and read by ``ode_check`` and ``omega_rho_bounds``.

    Omega_[y,1] W is the matrix whose rows the adjoint sweep carries down
    from the identity masses, so one ``adjoint_sweep`` of that stack returns
    the whole family; ``steps`` is its step count.
    """

    def __init__(self, domain: DiscreteDomain, u: HarmonicField, eps: float, points):
        pts = sorted({round(float(p), 12) for p in points} | {1.0})
        self.domain = domain
        self.eps = eps
        self.points = pts
        gammas, self.steps = adjoint_sweep(domain, u, eps, np.eye(domain.nx), pts)
        self._omega_at = dict(zip(pts, gammas))

    def _key(self, y):
        key = round(float(y), 12)
        if key not in self._omega_at:
            raise ConfigError(f"{y} is not a ladder point {self.points}")
        return key

    def omega_y(self, y: float) -> K.BoundaryKernel:
        key = self._key(y)
        return K.BoundaryKernel(self.domain, self._omega_at[key], kind="omega",
                                meta={"segment": (key, 1.0), "eps": self.eps})

    def apply(self, y: float, f):
        return self._omega_at[self._key(y)] @ (self.domain.hm_weights * f)


# ---------------------------------------------------------------------------
# the adjoint sweep: kappa^T Omega_[y,1] without the matrices
# ---------------------------------------------------------------------------

FINE_CELLS = 8  # the h/2 cells below 4h, where the sweep takes two steps per cell


def _snap(t):
    """A height in h/2 cells, snapped to a multiple of 1/2 within 1e-9."""
    r = round(2 * t) / 2
    return r if abs(t - r) < 1e-9 else t


def _sweep_cuts(domain, ys, substeps):
    """Step ends of the sweep in h/2 cells, from 1 down to the foot of ys:
    every kink, every point of ys and the cell midpoints below 4h, each step
    then cut into ``substeps`` equal parts."""
    half = domain.h / 2
    top = _snap(1.0 / half)
    seq = [_snap(y / half) for y in ys]
    foot = min(seq)
    pts = set(range(int(np.ceil(foot)), int(np.floor(top)) + 1))
    pts |= {k + 0.5 for k in range(int(np.floor(foot)), FINE_CELLS)}
    pts = sorted({t for t in pts | set(seq) | {top} if foot <= t <= top}, reverse=True)
    cuts = [pts[0]]
    for a, b in zip(pts[:-1], pts[1:]):
        cuts.extend(np.linspace(a, b, substeps + 1)[1:])
    return cuts, seq


def adjoint_sweep(domain: DiscreteDomain, u: HarmonicField, eps: float,
                  kappa_masses, ys, substeps: int = 1):
    """Densities gamma_y of the adjoint images of kappa under Omega_[y,1], at
    every height of ys, from one downward sweep of a row vector, or of a
    stack of rows (``kappa_masses`` on its last axis).

    The masses rho_y = kappa^T (Omega_[y,1] W) of the transformed measure
    solve rho' = -rho A(y) down from rho_1 = kappa, where in mass form
    A(y) = log(G)/h - eps b_y W and b_y W = G^(y/h) c_y W, whose dead rows
    (vanishing gradient of u) are zero.
    The k-part is taken exactly, as rho G^theta (``row_power``); the eps-part
    by Lawson's fourth-order Runge-Kutta, an exponential integrator, with one
    step per h/2 cell and two below 4h, cut at every point of ys.
    ``substeps`` cuts every step further, for the step-halving estimate.
    At eps = 0 there is no eps-part, and a step is the k-part alone.
    The eps-part of a row reads c_y through the matrix-free
    ``DiscreteDomain.stencil_vecmat``, O(nx^2) per stage from a few band
    levels; a stack of nx rows forms the coupling -eps b_y W once per height,
    and each of its stages is then one product.

    Returns (gammas, steps): gammas[i] is the density at ys[i] against the
    pole measure (``kernels._mass_to_kernel`` of rho).
    """
    ys = [float(y) for y in ys]
    if not ys:
        raise ResolutionError(f"no sweep heights: none of the requested heights lies "
                              f"above the 2h floor {2 * domain.h}")
    if min(ys) < 2 * domain.h - 1e-12:
        raise ResolutionError(f"sweep foot {min(ys)} below the 2h floor")
    if max(ys) > 1.0 + 1e-12:
        raise ConfigError("sweep heights must lie in (0, 1]")
    half = domain.h / 2
    stack = np.ndim(kappa_masses) > 1

    def coupling(t):
        """v -> -eps (v G^(y/h)) c_y at y = t h/2.  A row takes the
        matrix-free stencil product; a stack of rows reads the coupling
        matrix, formed once for every stage at that height."""
        y = t * half
        if stack:
            m = domain.row_power(None, t / 2) @ K.c_masses(domain, u, y)
            m *= -eps
            return lambda v: v @ m
        sx, sy, _ = u.sigma_rows(2 * y)  # zero on dead rows

        def n(v):
            q = domain.row_power(v, t / 2)
            return -eps * domain.stencil_vecmat(y, q * sx, q * sy)
        return n

    cuts, seq = _sweep_cuts(domain, ys, substeps)
    r = np.array(kappa_masses, dtype=float)
    rho = {cuts[0]: r} if cuts[0] in seq else {}  # kept at the points of ys only
    n_top = coupling(cuts[0]) if eps else None
    for ta, tb in zip(cuts[:-1], cuts[1:]):
        d = (ta - tb) * half
        theta = (ta - tb) / 4  # G^theta carries rho down half a step
        if eps:
            n_mid, n_bot = coupling((ta + tb) / 2), coupling(tb)
            rp, k1p = domain.row_power(np.stack([r, n_top(r)]), theta)
            k2 = n_mid(rp + d / 2 * k1p)
            k3 = n_mid(rp + d / 2 * k2)
            k4 = n_bot(domain.row_power(rp + d * k3, theta))
            r = domain.row_power(rp + d / 6 * k1p + d / 3 * (k2 + k3), theta) + d / 6 * k4
            n_top = n_bot
        else:
            r = domain.row_power(r, 2 * theta)
        if tb in seq:
            rho[tb] = r
    return K._mass_to_kernel(domain, np.stack([rho[t] for t in seq])), len(cuts) - 1


# ---------------------------------------------------------------------------
# property checkers
# ---------------------------------------------------------------------------


def omega_rho_bounds(ladder: OmegaLadder, rho: float) -> dict:
    """Two-sided comparison of omega_[rho,1], read from a ladder that has rho
    among its points, with k_{1-rho}.

    Returns the smallest c_plus and largest c_minus with

        c_minus rho^(c_minus eps) k <= omega_rho <= c_plus rho^(-c_plus eps) k

    at the ladder's eps, and the ladder's sweep step count as ``steps``.
    """
    if not (0 < rho < 0.5):
        raise ConfigError("rho must lie in (0, 1/2)")
    eps = ladder.eps
    om = ladder.omega_y(rho).entries
    kref = K.build_k(ladder.domain, 1.0 - rho, "power").entries
    floor = 1e-9 * kref.max()
    mask = kref > floor
    ratio = om[mask] / kref[mask]
    rmax, rmin = float(ratio.max()), float(ratio.min())

    if eps == 0.0:
        c_plus, c_minus = rmax, rmin
    else:
        # with a = -eps ln rho > 0 the conditions read c e^(a c) = rmax and
        # c e^(-a c) = rmin: Lambert W's principal branch solves both.  The
        # second's left side peaks at c = 1/a, where rmin above the peak
        # 1/(a e) leaves no root and 1/a is the best constant
        a = -eps * float(np.log(rho))
        c_plus = float(lambertw(a * rmax).real) / a
        if rmin <= 0:
            c_minus = 0.0
        elif -a * rmin <= -np.exp(-1.0):
            c_minus = 1.0 / a
        else:
            c_minus = -float(lambertw(-a * rmin).real) / a
    return {"rho": rho, "eps": eps, "c_plus": c_plus, "c_minus": c_minus,
            "sup_ratio": rmax, "inf_ratio": rmin, "steps": ladder.steps}


def cross_boundary_data(domain: DiscreteDomain, y_shift: float, arc=(-1.0, 1.0)):
    """Boundary data harmonic across the graph: restriction of a positive
    harmonic function built on the domain enlarged downward by y_shift.

    Returns (psi, enlarged_field).
    """
    h = domain.h
    if abs(y_shift / h - round(y_shift / h)) > 1e-9:
        raise ConfigError("y_shift must be a multiple of the grid spacing")
    cfg = replace(domain.config, graph_offset=domain.config.graph_offset - y_shift)
    enlarged = DiscreteDomain(cfg)
    from .domain_field.grid import arc_indicator  # local import to avoid cycle

    data = arc_indicator(enlarged, arc[0], arc[1])
    v = harmonic_extension(enlarged, data)
    psi = v.rows(y_shift)
    return psi, v


def phi_property_check(domain: DiscreteDomain, u: HarmonicField, psi, seg: Segment,
                       y: float, eps: float) -> dict:
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
    ws = _workspace(domain, u)
    om, _, _ = ws.omega_entries(seg, eps)
    w = domain.hm_weights
    img = om @ (w * psi)
    dev = np.abs(img - psi)
    ratio = float((dev / ((seg.length / y) * psi)).max())

    kimg = ws.k_rows(seg.length) @ psi
    sup_all = float(dev.max())
    sup_k = float(np.abs(kimg - psi).max())
    c2 = (sup_all - sup_k) / ((seg.length / seg.m) * float(np.abs(psi).max()))
    return {"ratio": ratio, "sup_deviation": sup_all, "sup_k_deviation": sup_k,
            "sup_variant_constant": c2, "segment": (seg.m, seg.M), "y": y,
            "eps": eps}


def ode_check(ladder: OmegaLadder, u: HarmonicField, phi: HarmonicField,
              y_grid) -> dict:
    """Residual of d/dy Omega_y(phi_y) = eps Omega_y(B_y(phi_y)) on a y-grid
    of the ladder's points, at the ladder's eps.

    Central differences across the uniformly spaced grid are compared with
    the right-hand side at interior grid points.  Also evaluates the
    comparison bound Omega_eta(phi_y) <= (1 + C) Omega_y(phi_y) for eta < y.
    ``steps`` is the ladder's sweep step count.
    """
    ys = np.asarray(sorted(float(v) for v in y_grid))
    if len(ys) < 5:
        raise ConfigError("y-grid must contain at least 5 points")
    steps = np.diff(ys)
    if np.abs(steps - steps[0]).max() > 1e-9:
        raise ConfigError("y-grid must be uniformly spaced")
    domain, eps = ladder.domain, ladder.eps

    f = {}
    rhs = {}
    for y in ys:
        phi_y = phi.rows(y)
        f[y] = ladder.apply(y, phi_y)
        rhs[y] = (eps * ladder.apply(y, K.apply_b(domain, u, y, phi_y, "power"))
                  if eps else np.zeros(domain.nx))
    abs_res = 0.0
    rhs_sup = max(float(np.abs(rhs[y]).max()) for y in ys)
    for lo, mid, hi in zip(ys[:-2], ys[1:-1], ys[2:]):
        lhs = (f[hi] - f[lo]) / (hi - lo)
        abs_res = max(abs_res, float(np.abs(lhs - rhs[mid]).max()))
    rel_res = abs_res / max(rhs_sup, 1e-300)

    # comparison bound at a few (eta, y) pairs
    comp_c = 0.0
    for i_eta in range(0, len(ys) - 1, max(1, len(ys) // 4)):
        eta = ys[i_eta]
        for y in ys[i_eta + 1::max(1, len(ys) // 4)]:
            phi_y = phi.rows(y)
            upper = ladder.apply(eta, phi_y)
            lower = ladder.apply(y, phi_y)
            ok = lower > 1e-12 * np.abs(lower).max()
            comp_c = max(comp_c, float((upper[ok] / lower[ok]).max()) - 1.0)

    return {"eps": eps, "abs_residual": abs_res, "rel_residual": rel_res,
            "rhs_sup": rhs_sup, "comparison_constant": comp_c,
            "y_grid": [float(v) for v in ys], "steps": ladder.steps}


def find_positive_epsilon(domain: DiscreteDomain, u: HarmonicField,
                          iters: int = 6) -> float:
    """Bisect the largest eps in [0, 0.5] keeping the limit kernels
    entrywise nonnegative on test segments with m <= |seg| <= 3m."""
    f = 2 * domain.h
    segments = [Segment(max(0.1, f), max(0.1, f) * 3),
                Segment(max(0.15, f), max(0.15, f) * 2)]
    ws = _workspace(domain, u)

    def positive(eps):
        try:
            return all(ws.omega_entries(s, eps)[0].min() >= 0 for s in segments)
        except ConvergenceError:
            return False

    lo_e, hi_e = 0.0, 0.5
    if positive(hi_e):
        return hi_e
    for _ in range(iters):
        mid = 0.5 * (lo_e + hi_e)
        if positive(mid):
            lo_e = mid
        else:
            hi_e = mid
    return lo_e
