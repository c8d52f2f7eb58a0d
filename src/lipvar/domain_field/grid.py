"""Grid discretization of the near half-space and all harmonic machinery.

The domain is the region above a compactly supported Lipschitz profile,
truncated to a box.  A uniform 5-point Laplacian acts on the grid points
strictly above the (snapped) graph; the graph nodes carry Dirichlet data.
The artificial sides and top admit two closures:

``reflect``
    Mirror ghosts.  All exit mass lands on the physical boundary, so the
    discrete harmonic measure is a probability on the graph mesh exactly,
    and operator identities (row sums, extension of constants) hold to
    machine precision.  This closure backs the kernel algebra.

``absorb``
    Zero Dirichlet data one ghost step beyond sides and top.  The mass
    captured there is tracked and reported separately; this closure backs
    the diagnostic harmonic measure and the Green's function.

A third, flat-only closure (``halfplane``) imposes exact half-plane values
on the ghost slots and is used by the closed-form oracle tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import ConfigError, ConvergenceError, ResolutionError
from . import halfplane
from .geometry import LipschitzGraph

NEGLIGIBLE_MASS = 1e-12  # nodes below this fraction of total weight are excluded
_SOLVE_CHUNK = 64


@dataclass(frozen=True)
class DomainConfig:
    """Geometry and discretization parameters of one truncated domain."""

    graph: LipschitzGraph
    box_halfwidth: float
    box_height: float
    grid_spacing: float
    pole: tuple = (0.0, 1.0)
    wos_seed: int = 0
    far_field: str = "zero"     # "zero" | "halfplane"
    graph_offset: float = 0.0   # vertical shift of the boundary (enlarged domains)
    band_height: float = 3.2    # height of the cached kernel-row band

    @classmethod
    def from_dict(cls, d: dict) -> "DomainConfig":
        graph = LipschitzGraph(
            tuple(tuple(p) for p in d.get("phi_breakpoints", ())),
            float(d.get("support_radius", 1.0)),
        )
        return cls(
            graph=graph,
            box_halfwidth=float(d["box_halfwidth"]),
            box_height=float(d["box_height"]),
            grid_spacing=float(d["grid_spacing"]),
            pole=tuple(float(v) for v in d.get("pole", (0.0, 1.0))),
            wos_seed=int(d.get("wos_seed", 0)),
            far_field=str(d.get("far_field", "zero")),
            graph_offset=float(d.get("graph_offset", 0.0)),
            band_height=float(d.get("band_height", 3.2)),
        )

    def to_dict(self) -> dict:
        return {
            "phi_breakpoints": [list(p) for p in self.graph.breakpoints],
            "support_radius": self.graph.support_radius,
            "box_halfwidth": self.box_halfwidth,
            "box_height": self.box_height,
            "grid_spacing": self.grid_spacing,
            "pole": list(self.pole),
            "wos_seed": self.wos_seed,
            "far_field": self.far_field,
            "graph_offset": self.graph_offset,
            "band_height": self.band_height,
        }


class DiscreteDomain:
    """Truncated grid discretization with cached solvers and kernel tables."""

    def __init__(self, config: DomainConfig):
        self.config = config
        self.graph = config.graph
        self.h = float(config.grid_spacing)
        self._validate()
        W, H, h = config.box_halfwidth, config.box_height, self.h

        self.nx = int(round(2 * W / h)) + 1
        self.xs = -W + h * np.arange(self.nx)
        phi = self.graph(self.xs) + config.graph_offset
        jb_h = np.round(phi / h).astype(int)  # graph rows in units of h
        if np.max(np.abs(jb_h * h - phi)) > 1e-9:
            warnings.warn("graph ordinates snapped to the grid by more than 1e-9")
        self.j0 = int(min(0, jb_h.min()))     # bottom grid row (units of h)
        self.ny = int(round(H / h)) - self.j0 + 1
        self.jb = jb_h - self.j0              # boundary row index per column
        if np.any(self.jb >= self.ny - 1):
            raise ConfigError("graph reaches the top of the box")
        self.s_y = jb_h * h                   # boundary node ordinates

        # interior enumeration: column-major, rows jb[i]+1 .. ny-1
        counts = self.ny - 1 - self.jb
        self.offsets = np.concatenate([[0], np.cumsum(counts)])
        self.n_interior = int(self.offsets[-1])

        self.arc_weights = self._arc_weights()
        self._mirror_w = np.where(np.arange(self.nx) == 0, 1, np.arange(self.nx) - 1)
        self._mirror_e = np.where(
            np.arange(self.nx) == self.nx - 1, self.nx - 2, np.arange(self.nx) + 1
        )
        self._dj_w = self.jb - self.jb[self._mirror_w]
        self._dj_e = self.jb - self.jb[self._mirror_e]

        self._lu = {}
        self._coupling = {}
        self._kernel_band = None
        self._band_rows = None
        self._weights = None
        self._eig = None
        self._powers = {}

    # -- construction checks ---------------------------------------------------

    def _validate(self):
        cfg = self.config
        W, H, h = cfg.box_halfwidth, cfg.box_height, self.h
        if h <= 0:
            raise ConfigError("grid_spacing must be positive")
        if W < self.graph.support_radius + 2.0 - 1e-12:
            raise ConfigError(
                "box too small: halfwidth must exceed the profile support by >= 2"
            )
        bx = [p[0] for p in self.graph.breakpoints]
        if len(bx) >= 2:
            gap = np.min(np.diff(bx))
            if h > gap + 1e-12:
                raise ConfigError(
                    f"grid_spacing {h} exceeds the smallest breakpoint gap {gap}"
                )
        px, py = cfg.pole
        if not (-W < px < W) or not (py < H):
            raise ConfigError("pole must lie inside the truncated box")
        if py - float(self.graph(np.array([px]))[0]) - cfg.graph_offset < 1.0 - 1e-9:
            raise ConfigError("pole must sit at vertical distance >= 1 above the graph")
        if abs(cfg.graph_offset / h - round(cfg.graph_offset / h)) > 1e-9:
            raise ConfigError("graph_offset must be a multiple of the grid spacing")
        if cfg.far_field == "halfplane" and self.graph.breakpoints:
            raise ConfigError("halfplane far field requires the flat profile")
        if cfg.far_field not in ("zero", "halfplane"):
            raise ConfigError(f"unknown far_field {cfg.far_field!r}")

    def _arc_weights(self):
        """Arc-length cell weights along the true graph polyline."""
        edges = np.concatenate([[self.xs[0] - self.h / 2],
                                0.5 * (self.xs[1:] + self.xs[:-1]),
                                [self.xs[-1] + self.h / 2]])
        bx = [p[0] for p in self.graph.breakpoints]
        knots = np.unique(np.concatenate([edges, bx])) if bx else edges
        phi = self.graph(knots)
        seg = np.hypot(np.diff(knots), np.diff(phi))
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        s_at = np.interp(edges, knots, cum)
        return np.diff(s_at)

    # -- index helpers -----------------------------------------------------------

    def index(self, i, j):
        """Interior index of grid node (column i, row j); vectorized."""
        return self.offsets[i] + (j - self.jb[i] - 1)

    def is_interior(self, i, j):
        return (self.jb[i] < j) & (j <= self.ny - 1)

    def snap_point(self, point):
        """Nearest grid node (i, j) to a physical point."""
        x, y = point
        i = int(round((x + self.config.box_halfwidth) / self.h))
        j = int(round(y / self.h)) - self.j0
        if not (0 <= i < self.nx) or not (0 <= j < self.ny):
            raise ConfigError(f"point {point} outside the grid")
        return i, j

    def node_xy(self):
        """Coordinates of the boundary nodes, (nx, 2)."""
        return np.column_stack([self.xs, self.s_y])

    # -- assembly and solves -----------------------------------------------------

    def _assemble(self, mode):
        """5-point system A u = B s_data (+ X box_data for absorbing modes)."""
        nx, ny, jb = self.nx, self.ny, self.jb
        rows, cols, vals = [], [], []
        brows, bcols, bvals = [], [], []
        xrows, xcols, xvals = [], [], []
        n_box = 2 * ny + nx  # ghost slots: left rows, right rows, top columns
        reflecting = mode == "reflect"

        for i in range(nx):
            ii_w, ii_e = (1, nx - 2) if reflecting else (None, None)
            for j in range(jb[i] + 1, ny):
                p = self.offsets[i] + (j - jb[i] - 1)
                rows.append(p); cols.append(p); vals.append(4.0)
                nbrs = ((i - 1, j, 0, j), (i + 1, j, 1, j),
                        (i, j - 1, None, None), (i, j + 1, 2, i))
                for (ni, nj, side, slot) in nbrs:
                    if ni < 0 or ni >= nx or nj >= ny:
                        if reflecting:
                            mi = ii_w if ni < 0 else (ii_e if ni >= nx else i)
                            mj = nj if nj < ny else ny - 2
                            if mj > jb[mi]:
                                rows.append(p); cols.append(self.offsets[mi] + (mj - jb[mi] - 1))
                                vals.append(-1.0)
                            else:
                                brows.append(p); bcols.append(mi); bvals.append(1.0)
                        else:
                            base = 0 if side == 0 else (ny if side == 1 else 2 * ny)
                            xrows.append(p); xcols.append(base + slot); xvals.append(1.0)
                        continue
                    if nj > jb[ni]:
                        rows.append(p); cols.append(self.offsets[ni] + (nj - jb[ni] - 1))
                        vals.append(-1.0)
                    else:
                        # graph node, or a wall node under a steep snapped step;
                        # both carry the column's boundary data
                        brows.append(p); bcols.append(ni); bvals.append(1.0)

        n = self.n_interior
        A = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        B = sp.csr_matrix((bvals, (brows, bcols)), shape=(n, nx))
        X = sp.csr_matrix((xvals, (xrows, xcols)), shape=(n, n_box))
        return A, B, X

    def _solver(self, mode):
        if mode not in self._lu:
            A, B, X = self._assemble(mode)
            self._lu[mode] = spla.splu(A.tocsc())
            self._coupling[mode] = (B, X)
        return self._lu[mode], self._coupling[mode]

    def box_slot_points(self):
        """Physical coordinates of the ghost slots (left, right, top)."""
        W, h = self.config.box_halfwidth, self.h
        ys = (self.j0 + np.arange(self.ny)) * h
        left = np.column_stack([np.full(self.ny, -W - h), ys])
        right = np.column_stack([np.full(self.ny, W + h), ys])
        top = np.column_stack([self.xs, np.full(self.nx, self.config.box_height + h)])
        return np.vstack([left, right, top])

    def solve_dirichlet(self, s_data, mode="reflect", box_data=None):
        """Interior values for boundary data on the graph mesh."""
        lu, (B, X) = self._solver(mode)
        rhs = B @ np.asarray(s_data, dtype=float)
        if box_data is not None:
            rhs = rhs + X @ np.asarray(box_data, dtype=float)
        return lu.solve(rhs)

    # -- kernel table --------------------------------------------------------------

    @property
    def band_rows(self):
        if self._band_rows is None:
            want = int(round(self.config.band_height / self.h))
            head = int(self.ny - 1 - self.jb.max())
            self._band_rows = min(want, head)
        return self._band_rows

    def kernel_table(self):
        """Per-node exit masses at all band points above each boundary node.

        Row band[m, i, :] is the discrete harmonic measure (masses over the
        graph mesh) seen from the point m*h above boundary node i, under the
        domain's kernel closure.  band[0] is the identity: the measure from a
        boundary node is the point mass at that node.
        """
        if self._kernel_band is not None:
            return self._kernel_band
        mode = "reflect" if self.config.far_field == "zero" else "absorb"
        lu, (B, X) = self._solver(mode)
        nb = self.band_rows
        band = np.empty((nb + 1, self.nx, self.nx))
        band[0] = np.eye(self.nx)
        gather = np.empty((nb, self.nx), dtype=np.int64)
        for m in range(1, nb + 1):
            gather[m - 1] = self.index(np.arange(self.nx), self.jb + m)
        oracle = None
        if self.config.far_field == "halfplane":
            edges = np.concatenate([self.xs - self.h / 2, [self.xs[-1] + self.h / 2]])
            oracle = halfplane.cell_masses(self.box_slot_points(), edges)
        pi, pj = self.snap_point(self.config.pole)
        if not self.is_interior(pi, pj):
            raise ConfigError("pole snapped onto the boundary")
        pidx = self.index(pi, pj)
        w = np.empty(self.nx)
        for lo in range(0, self.nx, _SOLVE_CHUNK):
            hi = min(lo + _SOLVE_CHUNK, self.nx)
            rhs = B[:, lo:hi].toarray()
            if oracle is not None:
                rhs += X @ oracle[:, lo:hi]
            sol = lu.solve(rhs)
            band[1:, :, lo:hi] = sol[gather, :]
            w[lo:hi] = sol[pidx, :]
        self._kernel_band = band
        self._weights = w
        return band

    @property
    def hm_weights(self):
        """Masses of the kernel-closure harmonic measure at the pole."""
        if self._weights is None:
            self.kernel_table()
        return self._weights

    @property
    def safe_weights(self):
        """Pole masses with nonpositive entries replaced by 1.

        The divisor that turns exit masses into densities against the pole
        measure; the nodes it guards are excluded from kernel supports.
        """
        w = self.hm_weights
        return np.where(w > 0, w, 1.0)

    @property
    def excluded_nodes(self):
        """Boundary nodes of negligible pole mass, excluded from kernel supports."""
        w = self.hm_weights
        return np.flatnonzero(w < NEGLIGIBLE_MASS * w.sum())

    def mass_rows(self, y):
        """Exit-mass rows at x_i + y above each boundary node (linear in y)."""
        band = self.kernel_table()
        t = y / self.h
        if t < -1e-12 or t > self.band_rows + 1e-9:
            raise ResolutionError(
                f"height {y} outside the cached kernel band "
                f"(<= {self.band_rows * self.h}); raise band_height"
            )
        m = int(np.floor(t + 1e-12))
        frac = t - m
        if frac < 1e-12 or m >= self.band_rows:
            return band[m]
        return (1 - frac) * band[m] + frac * band[m + 1]

    def stencil_rows(self, y):
        """Mass rows at the four stencil neighbours of x_i + y.

        Returns (east, west, north, south) row matrices used to differentiate
        the Martin kernel in its first argument by central differences.
        """
        band = self.kernel_table()
        t = y / self.h
        m = int(np.floor(t + 1e-12))
        frac = t - m
        cols = np.arange(self.nx)

        def horizontal(mm):
            je = mm + self._dj_e
            jw = mm + self._dj_w
            if je.min() < 0 or jw.min() < 0 or je.max() > self.band_rows or jw.max() > self.band_rows:
                raise ResolutionError(f"stencil at height {y} leaves the kernel band")
            return band[je, self._mirror_e, :], band[jw, self._mirror_w, :]

        def vertical(mm):
            if mm < 1 or mm + 1 > self.band_rows:
                raise ResolutionError(f"vertical stencil at height {y} below resolution")
            return band[mm + 1], band[mm - 1]

        E, Wst = horizontal(m)
        N, S = vertical(m)
        if frac >= 1e-12:
            E1, W1 = horizontal(m + 1)
            N1, S1 = vertical(m + 1)
            E = (1 - frac) * E + frac * E1
            Wst = (1 - frac) * Wst + frac * W1
            N = (1 - frac) * N + frac * N1
            S = (1 - frac) * S + frac * S1
        return E, Wst, N, S

    # -- semigroup-exact one-step powers -------------------------------------------

    def _eigensystem(self):
        if self._eig is None:
            G = self.kernel_table()[1]
            vals, V = sla.eig(G)
            Vinv = sla.inv(V)
            recon = np.abs((V * vals) @ Vinv - G).max()
            if recon > 1e-4:
                raise ConvergenceError(
                    f"one-step operator eigendecomposition inaccurate ({recon:.2e})"
                )
            if recon > 1e-6:
                # rough eigenbases (reentrant profiles) fall back to Schur-Pade powers
                self._eig = "schur"
            else:
                vals = np.where(np.abs(vals) < 1e-14, 0.0, vals)
                eig = (vals, V, Vinv)
                if not any(np.any(a.imag) for a in eig) and np.all(vals.real >= 0):
                    # real spectrum in [0, inf): every fractional power is real
                    eig = tuple(a.real for a in eig)
                self._eig = eig
        return self._eig

    def power_rows(self, y):
        """G^(y/h) where G is the one-grid-step exit operator.

        Fractional powers through the eigendecomposition give a family that
        satisfies the composition semigroup exactly (to rounding); the whole
        omega construction is built on it.  Note fractional powers of a
        Markov matrix may carry small negative lobes; positivity findings
        always refer to the assembled kernels, not to these factors.
        """
        key = round(float(y), 12)
        if key in self._powers:
            return self._powers[key]
        if key == 0.0:
            out = np.eye(self.nx)
        else:
            eig = self._eigensystem()
            s = y / self.h
            if eig == "schur":
                if abs(s - round(s)) < 1e-12:
                    out = np.linalg.matrix_power(self.kernel_table()[1], int(round(s)))
                else:
                    out = np.real(sla.fractional_matrix_power(self.kernel_table()[1], s))
            else:
                vals, V, Vinv = eig
                out = ((V * vals ** s) @ Vinv).real
        if len(self._powers) > 160:
            self._powers.clear()
        self._powers[key] = out
        return out

    def power_sum(self, terms):
        """Sum of w_q G^(y_q/h) X_q over an iterable of (y_q, w_q, X_q).

        Terms are consumed one at a time, so no more than one X_q is held.
        On the eigen path each X_q is moved into the eigenbasis, scaled by
        w_q lambda^(y_q/h) and accumulated there; the sum goes back through
        V once.  The Schur path sums ``power_rows`` products.
        """
        eig = self._eigensystem()
        acc = 0.0
        if eig == "schur":
            for y, wq, X in terms:
                term = self.power_rows(y) @ X
                term *= wq
                acc += term
            return acc
        vals, V, Vinv = eig
        for y, wq, X in terms:
            term = Vinv @ X
            term *= (wq * vals ** (y / self.h))[:, None]
            acc += term
        return (V @ acc).real


# ---------------------------------------------------------------------------
# fields and measures
# ---------------------------------------------------------------------------


class HarmonicField:
    """Discrete harmonic extension of boundary data on a domain."""

    def __init__(self, domain: DiscreteDomain, boundary_data, values, mode="reflect"):
        self.domain = domain
        self.boundary_data = np.asarray(boundary_data, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.mode = mode
        self._band = None
        self._cache = {}

    def _value_grid(self, i, j):
        """Field value at grid node(s), boundary data where j == jb."""
        i = np.asarray(i); j = np.asarray(j)
        interior = j > self.domain.jb[i]
        out = np.where(
            interior,
            self.values[np.where(interior, self.domain.index(i, j), 0)],
            self.boundary_data[i],
        )
        return out

    def band(self):
        """Values at x_i + m*h for m = 0..band_rows, shape (band_rows+1, nx)."""
        if self._band is None:
            d = self.domain
            nb = d.band_rows
            F = np.empty((nb + 1, d.nx))
            F[0] = self.boundary_data
            cols = np.arange(d.nx)
            for m in range(1, nb + 1):
                F[m] = self.values[d.index(cols, d.jb + m)]
            self._band = F
        return self._band

    def rows(self, y):
        """Values at x_i + y over all boundary base points (linear in y)."""
        F = self.band()
        t = y / self.domain.h
        m = int(np.floor(t + 1e-12))
        frac = t - m
        if m < 0 or m + (frac > 1e-12) > self.domain.band_rows:
            raise ResolutionError(f"field band does not reach height {y}")
        if frac < 1e-12:
            return F[m]
        return (1 - frac) * F[m] + frac * F[m + 1]

    def at(self, point):
        """Bilinear field value at an arbitrary point of the closed domain."""
        d = self.domain
        x, y = point
        fi = (x + d.config.box_halfwidth) / d.h
        fj = y / d.h - d.j0
        i0 = int(np.clip(np.floor(fi), 0, d.nx - 2))
        j0 = int(np.clip(np.floor(fj), 0, d.ny - 2))
        tx, ty = fi - i0, fj - j0
        v = 0.0
        for (ii, jj, wgt) in (
            (i0, j0, (1 - tx) * (1 - ty)),
            (i0 + 1, j0, tx * (1 - ty)),
            (i0, j0 + 1, (1 - tx) * ty),
            (i0 + 1, j0 + 1, tx * ty),
        ):
            jj_e = max(jj, d.jb[ii])  # below-graph corners clamp to the boundary
            v += wgt * float(self._value_grid(ii, jj_e))
        return v

    def grad_rows(self, y):
        """Central-difference gradient at x_i + y; returns (gx, gy) vectors."""
        key = ("grad", round(float(y), 12))
        if key in self._cache:
            return self._cache[key]
        d = self.domain
        F = self.band()
        t = y / d.h
        m = int(np.floor(t + 1e-12))
        frac = t - m

        def level(mm):
            je = mm + d._dj_e
            jw = mm + d._dj_w
            if min(je.min(), jw.min()) < 0 or max(je.max(), jw.max()) > d.band_rows:
                raise ResolutionError(f"gradient stencil at height {y} leaves the band")
            if mm < 1 or mm + 1 > d.band_rows:
                raise ResolutionError(f"gradient stencil at height {y} below resolution")
            gx = (F[je, d._mirror_e] - F[jw, d._mirror_w]) / (2 * d.h)
            gy = (F[mm + 1] - F[mm - 1]) / (2 * d.h)
            return gx, gy

        gx, gy = level(m)
        if frac >= 1e-12:
            gx1, gy1 = level(m + 1)
            gx = (1 - frac) * gx + frac * gx1
            gy = (1 - frac) * gy + frac * gy1
        self._cache[key] = (gx, gy)
        return gx, gy

    def sigma_rows(self, y, zero_tol=1e-12):
        """Unit gradient directions at x_i + y; zero vectors below tolerance."""
        gx, gy = self.grad_rows(y)
        norm = np.hypot(gx, gy)
        live = norm > zero_tol
        sx = np.where(live, gx / np.maximum(norm, 1e-300), 0.0)
        sy = np.where(live, gy / np.maximum(norm, 1e-300), 0.0)
        return sx, sy, norm

    def mean_value_residual(self):
        """Max defect of the 4-neighbour mean at strictly interior nodes."""
        d = self.domain
        worst = 0.0
        for i in range(1, d.nx - 1):
            js = np.arange(d.jb[i] + 2, d.ny - 1)
            js = js[(js > d.jb[i - 1]) & (js > d.jb[i + 1])]
            if len(js) == 0:
                continue
            c = self.values[d.index(np.full(len(js), i), js)]
            s = self.values[d.index(np.full(len(js), i), js - 1)]
            n = self.values[d.index(np.full(len(js), i), js + 1)]
            w = self.values[d.index(np.full(len(js), i - 1), js)]
            e = self.values[d.index(np.full(len(js), i + 1), js)]
            worst = max(worst, np.abs(c - 0.25 * (s + n + w + e)).max())
        return worst


@dataclass
class BoundaryMeasure:
    """Nonnegative masses on the boundary mesh, with tracked box leakage."""

    domain: DiscreteDomain
    s_masses: np.ndarray
    box_side_mass: float = 0.0
    box_top_mass: float = 0.0
    stderr: np.ndarray | None = None

    @property
    def s_total(self) -> float:
        return float(self.s_masses.sum())

    @property
    def total(self) -> float:
        return self.s_total + self.box_side_mass + self.box_top_mass

    def arc_mass(self, a: float, b: float) -> float:
        """Mass of the boundary arc with abscissae in [a, b].

        Node cells are split proportionally when an endpoint falls inside,
        so grid-aligned endpoints contribute half their node mass.
        """
        d = self.domain
        lo = np.maximum(d.xs - d.h / 2, a)
        hi = np.minimum(d.xs + d.h / 2, b)
        frac = np.clip((hi - lo) / d.h, 0.0, 1.0)
        return float(np.dot(frac, self.s_masses))

    def density(self):
        """Masses per unit arc length."""
        return self.s_masses / self.domain.arc_weights


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def build_domain(config: DomainConfig) -> DiscreteDomain:
    """Discretize the configured near half-space; rejects invalid setups."""
    return DiscreteDomain(config)


def harmonic_measure(domain: DiscreteDomain, pole) -> BoundaryMeasure:
    """Exit distribution from a pole under the absorbing (zero-data) closure.

    The masses over the graph mesh plus the reported side/top masses sum to
    one; box mass is excluded from the arc masses.  On ``halfplane`` oracle
    domains the ghost-slot mass is redistributed through the closed-form far
    field instead of being absorbed.
    """
    i, j = domain.snap_point(pole)
    if not domain.is_interior(i, j):
        raise ConfigError(f"pole {pole} is on or outside the boundary")
    lu, (B, X) = domain._solver("absorb")
    e = np.zeros(domain.n_interior)
    e[domain.index(i, j)] = 1.0
    g = lu.solve(e)  # absorbing system is symmetric
    s = B.T @ g
    box = X.T @ g
    if domain.config.far_field == "halfplane":
        edges = np.concatenate([domain.xs - domain.h / 2, [domain.xs[-1] + domain.h / 2]])
        oracle = halfplane.cell_masses(domain.box_slot_points(), edges)
        s = s + oracle.T @ box
        box = box * (1.0 - oracle.sum(axis=1))
    side = float(box[: 2 * domain.ny].sum())
    top = float(box[2 * domain.ny:].sum())
    return BoundaryMeasure(domain, s, side, top)


def kernel_measure(domain: DiscreteDomain, pole) -> BoundaryMeasure:
    """Exit distribution from a pole under the kernel (reflecting) closure."""
    i, j = domain.snap_point(pole)
    if not domain.is_interior(i, j):
        raise ConfigError(f"pole {pole} is on or outside the boundary")
    joff = j - domain.jb[i]
    if joff <= domain.band_rows:
        band = domain.kernel_table()
        return BoundaryMeasure(domain, band[joff, i, :].copy())
    lu, (B, X) = domain._solver("reflect")
    e = np.zeros(domain.n_interior)
    e[domain.index(i, j)] = 1.0
    g = lu.solve(e, trans="T")
    return BoundaryMeasure(domain, B.T @ g)


def harmonic_extension(domain: DiscreteDomain, boundary_fn) -> HarmonicField:
    """Discrete Dirichlet extension of boundary data on the graph mesh."""
    data = np.asarray(boundary_fn, dtype=float)
    if data.shape != (domain.nx,):
        raise ConfigError(f"boundary data must have shape ({domain.nx},)")
    if not np.all(np.isfinite(data)):
        raise ConfigError("boundary data must be finite")
    if domain.config.far_field == "halfplane":
        edges = np.concatenate([domain.xs - domain.h / 2, [domain.xs[-1] + domain.h / 2]])
        box_vals = halfplane.cell_masses(domain.box_slot_points(), edges) @ data
        values = domain.solve_dirichlet(data, mode="absorb", box_data=box_vals)
        return HarmonicField(domain, data, values, mode="halfplane")
    values = domain.solve_dirichlet(data, mode="reflect")
    return HarmonicField(domain, data, values, mode="reflect")


def arc_indicator(domain: DiscreteDomain, a: float, b: float):
    """Indicator data of the boundary arc [a, b] with half-weight endpoints."""
    d = domain
    lo = np.maximum(d.xs - d.h / 2, a)
    hi = np.minimum(d.xs + d.h / 2, b)
    return np.clip((hi - lo) / d.h, 0.0, 1.0)


def greens_function(domain: DiscreteDomain, source) -> HarmonicField:
    """Green's function with pole at an interior source, zero on the boundary.

    Returned as a field whose boundary data vanish; near the source it
    behaves like -log|z - w|/(2 pi) plus a bounded correction.
    """
    i, j = domain.snap_point(source)
    if not domain.is_interior(i, j):
        raise ConfigError(f"source {source} is not an interior point")
    lu, _ = domain._solver("absorb")
    e = np.zeros(domain.n_interior)
    e[domain.index(i, j)] = 1.0
    g = lu.solve(e)
    return HarmonicField(domain, np.zeros(domain.nx), g, mode="absorb")


def gradient(fieldv: HarmonicField, point):
    """Central-difference gradient of a field at an interior point."""
    d = fieldv.domain
    x, y = point
    dist = d.graph.distance(np.array([[x, y]]), offset=d.config.graph_offset)[0]
    if dist < 2 * d.h - 1e-9:
        raise ResolutionError(
            f"point {point} closer than 2h to the boundary; gradient stencil invalid"
        )
    hx = d.h
    gx = (fieldv.at((x + hx, y)) - fieldv.at((x - hx, y))) / (2 * hx)
    gy = (fieldv.at((x, y + hx)) - fieldv.at((x, y - hx))) / (2 * hx)
    return np.array([gx, gy])
