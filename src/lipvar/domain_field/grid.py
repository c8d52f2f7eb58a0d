"""Grid discretization of the near half-space and all harmonic machinery.

The domain is the region above a compactly supported Lipschitz profile,
truncated to a box.  A uniform 5-point Laplacian acts on the grid points
strictly above the (snapped) graph; the graph nodes carry Dirichlet data.
The artificial sides and top admit two closures:

``reflect``
    Mirror ghosts at the sides; above the top row the grid goes on for
    ever, every column interior, and the top row couples to that region
    through its decaying modes (``_StripSolver``).  All exit mass lands on
    the physical boundary, so the discrete harmonic measure is a
    probability on the graph mesh exactly, and operator identities (row
    sums, extension of constants) hold to machine precision.  The closure
    is invariant under upward shifts, as the region above a graph is.  This
    closure backs the kernel algebra.

``absorb``
    Zero Dirichlet data one ghost step beyond sides and top.  The mass
    captured there is tracked and reported separately; this closure backs
    the diagnostic harmonic measure and the Green's function.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from functools import partial

import numpy as np
import scipy.fft as sfft
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import splu

from ..errors import ConfigError, ConvergenceError, ResolutionError
from .geometry import LipschitzGraph

NEGLIGIBLE_MASS = 1e-12  # nodes below this fraction of total weight are excluded
_SOLVE_CHUNK = 32
BAND_HEIGHT = 3.2        # top of a field's cached band (kernels stop at 1)

# four Gauss-Legendre nodes on [-1, 1]; row p of the inverse Vandermonde
# matrix holds the t^p coefficients of the nodes' Lagrange polynomials
_GAUSS_T = np.polynomial.legendre.leggauss(4)[0]
_GAUSS_LAGRANGE = np.linalg.inv(np.vander(_GAUSS_T, 4, increasing=True))


@dataclass(frozen=True)
class DomainConfig:
    """Geometry and discretization parameters of one truncated domain."""

    graph: LipschitzGraph
    box_halfwidth: float
    box_height: float
    grid_spacing: float
    pole: tuple = (0.0, 1.0)
    wos_seed: int = 0
    graph_offset: float = 0.0   # vertical shift of the boundary (enlarged domains)

    @classmethod
    def from_dict(cls, d: dict) -> "DomainConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"domain must be an object of domain keys, not {d!r}")
        known = ({f.name for f in fields(cls) if f.name != "graph"}
                 | {"phi_breakpoints", "support_radius"})
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigError(f"unknown domain config key(s): {', '.join(unknown)}")

        def number(key, value):
            try:
                x = float(value)
            except (TypeError, ValueError, OverflowError):
                x = np.nan
            if not np.isfinite(x):
                raise ConfigError(f"domain {key} must be a finite number, not {value!r}")
            return x

        def count(key, value):
            whole = (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
                     or isinstance(value, float) and value.is_integer())
            if not (whole and value >= 0):
                raise ConfigError(f"domain {key} must be a non-negative integer, not {value!r}")
            return int(value)

        def pair(key, value):
            if not (isinstance(value, (list, tuple)) and len(value) == 2):
                raise ConfigError(f"domain {key} must be two finite numbers, not {value!r}")
            return tuple(number(key, v) for v in value)

        breakpoints = d.get("phi_breakpoints", ())
        if not isinstance(breakpoints, (list, tuple)):
            raise ConfigError(f"domain phi_breakpoints must be a list, not {breakpoints!r}")
        graph = LipschitzGraph(
            tuple(pair("phi_breakpoints", p) for p in breakpoints),
            number("support_radius", d.get("support_radius", 1.0)),
        )
        h = number("grid_spacing", d["grid_spacing"])
        if h <= 0:
            raise ConfigError(f"domain grid_spacing must be positive, not {h!r}")
        return cls(
            graph=graph,
            box_halfwidth=number("box_halfwidth", d["box_halfwidth"]),
            box_height=number("box_height", d["box_height"]),
            grid_spacing=h,
            pole=pair("pole", d.get("pole", (0.0, 1.0))),
            wos_seed=count("wos_seed", d.get("wos_seed", 0)),
            graph_offset=number("graph_offset", d.get("graph_offset", 0.0)),
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
            "graph_offset": self.graph_offset,
        }


class DiscreteDomain:
    """Truncated grid discretization with cached solvers and kernel tables."""

    def __init__(self, config: DomainConfig):
        self.config = config
        self.graph = config.graph
        self.h = float(config.grid_spacing)
        self._validate()
        W, H, h = config.box_halfwidth, config.box_height, self.h

        self.nx = self._nodes(2 * W)
        self.xs = -W + h * np.arange(self.nx)
        phi = self.graph(self.xs) + config.graph_offset
        jb_h = np.round(phi / h).astype(int)  # graph rows in units of h
        if np.max(np.abs(jb_h * h - phi)) > 1e-9:
            warnings.warn("graph ordinates snapped to the grid by more than 1e-9")
        self.j0 = int(min(0, jb_h.min()))     # bottom grid row (units of h)
        self.ny = self._nodes(H) - self.j0
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
        # The central-difference stencil as scatter keys into a window of
        # band levels flattened with their columns.  The east, west, north
        # and south terms of row i sit at level offsets (dj_e, dj_w, +1, -1)
        # from the row's level, on columns (mirror_e, mirror_w, i, i), with
        # signs (+, -, +, -); key = (offset - lowest offset) nx + column.
        # A height moves only the window and the weights of its two levels.
        offsets = np.stack([self._dj_e, self._dj_w, np.ones(self.nx, int),
                            -np.ones(self.nx, int)])
        columns = np.stack([self._mirror_e, self._mirror_w,
                            np.arange(self.nx), np.arange(self.nx)])
        self._stencil_reach = (int(offsets.min()), int(offsets.max()))
        self._stencil_keys = (offsets - self._stencil_reach[0]) * self.nx + columns

        # Top levels of the two bands, capped at the box head.  The kernel
        # layer reads heights y <= 1 (the pole sits at 1); the central
        # stencil at y = 1 reaches one level up and, on the mirrored
        # columns, the boundary step further.  A field band reaches
        # BAND_HEIGHT, where the dominance check reads u at 3y.
        head = int(self.ny - 1 - self.jb.max())
        step = int(max(np.abs(self._dj_e).max(), np.abs(self._dj_w).max()))
        self.band_rows = min(int(np.ceil(1.0 / h - 1e-9)) + 1 + step, head)
        self.field_rows = min(int(round(BAND_HEIGHT / h)), head)
        # Whether kernel band level n is G^n, and so whether powers of G
        # exist (``row_power``): with no column step above one grid row.
        self._step = step
        self._band_powers = step <= 1
        # Top row of the boundary strip, the part of the grid each closure
        # factors: the lowest row above every graph node, so the strip holds
        # every graph coupling and nothing more.  The box above it (no rows
        # when the graph reaches the grid's second row from the top), where
        # most kernel band levels and the pole sit, is solved in closed form
        # (``_StripSolver``).
        self.strip_top = int(self.jb.max()) + 1

        self._strips = {}
        self._kernel_band = None
        self._weights = None
        self._log = None
        self._fractions = {}

    # -- construction checks ---------------------------------------------------

    def _validate(self):
        cfg = self.config
        W, H, h = cfg.box_halfwidth, cfg.box_height, self.h
        if not h > 0:
            raise ConfigError(f"grid_spacing must be positive, not {h}")
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

    def _nodes(self, length):
        """Grid nodes on a span of the given length, ends included; a count
        past numpy's index type (a tiny ``grid_spacing``) is a ConfigError."""
        steps = length / self.h
        if not steps < np.iinfo(np.intp).max:
            raise ConfigError(f"grid_spacing {self.h} gives more grid nodes "
                              "than numpy can index")
        return int(round(steps)) + 1

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

    def _assemble(self, mode, nodes=None):
        """5-point system A u = B s_data, with X the coupling to the ghost
        slots of the absorbing closure, whose exit masses it gives.

        Under ``reflect`` the top row's coupling to the semi-infinite region
        above the grid is dense, N = Q diag(s*) Q⁻¹, and is not assembled
        here: the strip solver adds it (``_StripSolver.box_coupling``).
        Given ``nodes`` (sorted interior indices), only their rows are built:
        the matrices keep the full system's shape, hold its rows at ``nodes``
        and are empty elsewhere.  ``None`` builds every row.
        """
        nx, ny, jb, n = self.nx, self.ny, self.jb, self.n_interior
        if nodes is None:
            p = np.arange(n)
            i = np.repeat(np.arange(nx), ny - 1 - jb)
        else:
            p = np.asarray(nodes)
            i = np.searchsorted(self.offsets, p, side="right") - 1
        j = p - self.offsets[i] + jb[i] + 1
        rows, cols = [p], [p]        # A: 4 on the diagonal, -1 per neighbour
        brows, bcols = [], []        # B: 1 per graph or wall neighbour
        xrows, xcols = [p[:0]], [p[:0]]  # X: 1 per ghost slot (absorbing modes)
        n_box = 2 * ny + nx  # ghost slots: left rows, right rows, top columns

        # west, east, south, north, each with the ghost slot it falls on
        # outside the box (the south neighbour never leaves it)
        for ni, nj, slot in ((i - 1, j, j), (i + 1, j, ny + j),
                             (i, j - 1, j), (i, j + 1, 2 * ny + i)):
            if mode == "reflect":
                # mirror ghosts at the sides: columns 1 and nx - 2; nothing
                # above the top row (the semi-infinite top)
                ni = np.where(ni < 0, 1, np.where(ni >= nx, nx - 2, ni))
                keep = nj < ny
            else:
                keep = (ni >= 0) & (ni < nx) & (nj < ny)
                xrows.append(p[~keep]); xcols.append(slot[~keep])
            q, ni, nj = p[keep], ni[keep], nj[keep]
            # a neighbour on or below the graph (a graph node, or a wall
            # node under a steep snapped step) carries its column's data
            inner = nj > jb[ni]
            rows.append(q[inner]); cols.append(self.index(ni[inner], nj[inner]))
            brows.append(q[~inner]); bcols.append(ni[~inner])

        cat = np.concatenate
        brows, xrows = cat(brows), cat(xrows)
        vals = np.full(sum(map(len, rows)), -1.0)
        vals[:len(p)] = 4.0
        A = sp.csr_matrix((vals, (cat(rows), cat(cols))), shape=(n, n))
        B = sp.csr_matrix((np.ones(len(brows)), (brows, cat(bcols))), shape=(n, nx))
        X = sp.csr_matrix((np.ones(len(xrows)), (xrows, cat(xcols))), shape=(n, n_box))
        return A, B, X

    def _strip_solver(self, mode):
        """The closure's one factorization, built by the first solve that needs it."""
        if mode not in self._strips:
            self._strips[mode] = _StripSolver(self, mode)
        return self._strips[mode]

    def solve_dirichlet(self, s_data, mode="reflect"):
        """Interior values for boundary data on the graph mesh."""
        c = self._strip_solver(mode)
        return c.solve(c.B @ np.asarray(s_data, dtype=float))

    # -- kernel table --------------------------------------------------------------

    def kernel_table(self):
        """Per-node exit masses at the band levels above each boundary node.

        Row band[m, i, :] is the discrete harmonic measure (masses over the
        graph mesh) seen from the point m*h above boundary node i, under the
        reflecting kernel closure, for m = 0..band_rows.  band[0] is the
        identity: the measure from a boundary node is the point mass at that
        node.

        The nx right-hand sides are solved on the boundary strip, in chunks
        of columns.  Levels at or below the strip's top row are read from
        the strip; the others from the bottom rows of the box above it, the
        only box rows built.  The band is filled by runs of columns that
        share a graph row: a run's strip levels are one (columns × levels)
        block of each chunk's strip solve, copied into the band per chunk.
        The box levels follow the solves, one box row at a time: the
        strip's top row under all nx right-hand sides is kept as one (base
        columns, nx) array and transformed once, in place, to the side
        modes along its base-column axis; box row r is one transform of
        lift_r ⊙ modes back along that axis, written as whole band rows
        into every run that reaches it.  The pole masses (``hm_weights``) are
        the kernel measure at the pole: a band row, or one ``adjoint`` solve.
        """
        if self._kernel_band is not None:
            return self._kernel_band
        if not self.is_interior(*self.snap_point(self.config.pole)):
            raise ConfigError("pole snapped onto the boundary")
        nx, nb, jb, jt = self.nx, self.band_rows, self.jb, self.strip_top
        c = self._strip_solver("reflect")
        B = c.B[c.strip]  # B vanishes on the box
        rows = max(int(jb.max()) + nb - jt, 0)  # box rows the band reaches
        # per run [a, b) of graph row jw: its strip block starts at
        # local(a, jw + 1) and holds jt - jw levels per column, of which the
        # band takes the first k; box rows 0 .. nb - k - 1 give the others
        ends = np.append(np.flatnonzero(np.diff(jb)) + 1, nx)
        runs = [(a, b, c.local(a, jb[a] + 1), jt - jb[a], min(nb, jt - jb[a]))
                for a, b in zip(np.append(0, ends[:-1]), ends)]
        band = np.empty((nb + 1, nx, nx))
        band[0] = np.eye(nx)
        top = np.empty((nx, nx))  # top[i, j]: top-row value at column i, data at node j
        for lo in range(0, nx, _SOLVE_CHUNK):
            hi = min(lo + _SOLVE_CHUNK, nx)
            sol = c.solve_strip(B[:, lo:hi].toarray())
            top[:, lo:hi] = sol[c.top]
            for a, b, start, depth, k in runs:
                block = sol[start:start + (b - a) * depth].reshape(b - a, depth, -1)
                band[1:k + 1, a:b, lo:hi] = block[:, :k].transpose(1, 0, 2)
            del sol, block  # freed before the next chunk's solve
        # the box levels, one box row at a time
        modes = c._trig(top, axis=0, overwrite_x=True)
        row = np.empty_like(top)
        for r in range(rows):
            np.multiply(c.lift[r, :, None], modes, out=row)
            values = c._trig(row, axis=0, overwrite_x=True)
            for a, b, _, _, k in runs:
                if r < nb - k:
                    band[k + 1 + r, a:b] = values[a:b]
        self._kernel_band = band
        self._weights = kernel_measure(self, self.config.pole).s_masses
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
        measure, applied by ``kernels._mass_to_kernel`` alone; the nodes it
        guards are excluded from kernel supports.
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
        return self._band_at(self.kernel_table(), y)

    def mass_matvec(self, y, f):
        """``mass_rows(y) @ f`` as one product per band level, with no blended
        (nx, nx) matrix.

        y may also be an array of heights in one grid level, such as the
        nodes of a height cell, with one column of f per height.
        """
        band = self.kernel_table()
        m, frac = self._band_span(band, y)
        out = band[m] @ f
        if np.any(frac):
            out = (1 - frac) * out + frac * (band[m + 1] @ f)
        return out

    def stencil_rows(self, y):
        """Central differences of the mass rows at x_i + y, for the Martin
        kernel's gradient in its first argument.

        Returns ``(dx, dy)``: (east - west) / 2h and (north - south) / 2h,
        each an (nx, nx) row matrix, linear in y between grid levels.  Only
        ``kernels.c_masses`` reads them, for the whole c_y of ``build_c``,
        the Omega cells and the adjoint sweep of a stack of rows; vector
        consumers take ``stencil_vecmat`` or ``stencil_matvec``, which never
        form them.
        """
        return self._band_stencil(self.kernel_table(), y)

    def stencil_vecmat(self, y, ax, ay):
        """``ax @ dx + ay @ dy`` for the ``stencil_rows(y)`` pair, matrix-free.

        The rows' weights scatter onto the keys of the stencil window (one
        ``bincount``), and one product with the window's band levels, a view
        of the band, sums them.
        """
        flat, w0, w1 = self._stencil_window(self.kernel_table(), y)
        wts = np.concatenate([ax, -ax, ay, -ay])
        keys = self._stencil_keys.ravel()
        if w1:
            keys = np.concatenate([keys, keys + self.nx])
            wts = np.concatenate([w0 * wts, w1 * wts])
        else:
            wts = w0 * wts
        return np.bincount(keys, weights=wts, minlength=len(flat)) @ flat

    def stencil_matvec(self, y, f):
        """``(dx @ f, dy @ f)`` for the ``stencil_rows(y)`` pair, matrix-free:
        one product of the stencil window's band levels with f, gathered at
        the stencil's keys.  Heights in one grid level take one column of f
        each, as in ``mass_matvec``, and share the window's product."""
        flat, w0, w1 = self._stencil_window(self.kernel_table(), y)
        return self._stencil_gather(flat @ f, w0, w1)

    # -- band readers: one height rule for the kernel band and field bands ------

    def _band_level(self, y):
        """Grid level m below height y and the blend fraction (0 on a level).

        For an array of heights in one level: that level and an array of
        fractions; heights in different levels raise.
        """
        if np.ndim(y):
            levels = [self._band_level(v) for v in y]
            m = levels[0][0]
            if any(lv != m for lv, _ in levels):
                raise ResolutionError(f"heights {y} span more than one grid level")
            return m, np.array([frac for _, frac in levels])
        t = y / self.h
        m = int(np.floor(t + 1e-12))
        frac = t - m
        return m, (frac if frac >= 1e-12 else 0.0)

    def _band_span(self, band, y):
        """``_band_level(y)`` for a band indexed (level, ...); heights off the
        band raise."""
        m, frac = self._band_level(y)
        top = len(band) - 1
        if m < 0 or m + np.any(frac) > top:
            raise ResolutionError(
                f"height {y} outside the cached band (<= {top * self.h})"
            )
        return m, frac

    def _band_at(self, band, y):
        """Level y of a band indexed (level, column, ...), linear in y.

        Serves the kernel band (band_rows+1, nx, nx) and a field band
        (field_rows+1, nx) alike; heights off the given band raise.
        """
        m, frac = self._band_span(band, y)
        if frac == 0:
            return band[m]
        return (1 - frac) * band[m] + frac * band[m + 1]

    def _stencil_window(self, band, y):
        """The band levels the central stencil at height y reads, flattened
        with their columns (a view of the band), and the weights
        (1 - frac) / 2h and frac / 2h of the stencil's two levels.

        The window starts at the stencil's lowest level; the second level's
        keys are the first's plus nx.  A stencil that leaves the band raises.
        """
        m, frac = self._band_level(y)
        lo = m + self._stencil_reach[0]
        hi = m + self._stencil_reach[1] + 1 + np.any(frac)
        if lo < 0 or hi > len(band):
            raise ResolutionError(f"stencil at height {y} leaves the band")
        flat = band[lo:hi].reshape((hi - lo) * self.nx, *band.shape[2:])
        return flat, (1 - frac) / (2 * self.h), frac / (2 * self.h)

    def _stencil_gather(self, flat, w0, w1):
        """(d/dx, d/dy) from a stencil window's rows: the keys' differences,
        weighted by the two level weights."""
        nx = self.nx

        def level(keys):
            e, w, n, s = keys  # the north and south keys are runs: slices
            return flat[e] - flat[w], flat[n[0]:n[0] + nx] - flat[s[0]:s[0] + nx]

        dx, dy = level(self._stencil_keys)
        dx *= w0
        dy *= w0
        if np.any(w1):
            dx1, dy1 = level(self._stencil_keys + self.nx)
            dx1 *= w1
            dy1 *= w1
            dx += dx1
            dy += dy1
        return dx, dy

    def _band_stencil(self, band, y):
        """Central differences (d/dx, d/dy) of a band at height y, linear in y.

        Serves the kernel band (``stencil_rows``) and a field band
        (``HarmonicField.grad_rows``) through the stencil's keys.  The
        horizontal neighbours of column i sit on the mirrored columns at the
        same height above the graph, so their band level shifts by the
        boundary step between the columns.
        """
        return self._stencil_gather(*self._stencil_window(band, y))

    # -- semigroup-exact one-step powers -------------------------------------------

    def _log_generator(self):
        """L = log G (principal branch), computed once per domain.

        ``logm`` is inverse scaling and squaring (Al-Mohy & Higham 2012); the
        check that expm(L) reproduces G to 1e-12 of max|G| is the one guard on
        every fractional power, and a G it fails raises ConvergenceError.
        """
        if self._log is None:
            G = self.kernel_table()[1]
            L = sla.logm(G)
            err = np.abs(sla.expm(L) - G).max()
            if err > 1e-12 * np.abs(G).max():
                raise ConvergenceError(
                    f"one-step operator logarithm inaccurate ({err:.2e})"
                )
            self._log = L
        return self._log

    def power_rows(self, y):
        """G^(y/h) where G is the one-grid-step exit operator, from
        ``row_power``: the rows depend on y only through that split of y/h.

        Fractional powers are functions of G, so the family satisfies the
        composition semigroup exactly (to rounding); the whole omega
        construction is built on it.  A grid level is a view of the kernel
        band and a pure fraction the fraction table's own array, so the rows
        are read, never written.  Note fractional powers of a Markov matrix
        may carry small negative lobes; positivity findings always refer to
        the assembled kernels, not to these factors.
        """
        return self.row_power(None, y / self.h)

    def row_power(self, v, s):
        """v · G^s for rows v, or G^s itself when v is None.

        The one place where powers of G exist; v is a row vector or a stack
        of rows.  s = n + f, an s within 1e-9 of an integer counting as that
        integer.  G^n is kernel band level n, a view of the band: under the
        kernel closure, semi-infinite above, the region above level
        n - 1 is the region above the graph shifted up, as in the continuum,
        and where no column step exceeds one grid row a 5-point walk changes
        its level above the graph by at most one per move, so a walk from
        level n passes level n - 1 before it exits.  expm(f log G) comes
        from a per-domain table keyed by f rounded to 12 digits, and built
        from that key.

        Where band levels are not G^n there are no powers: s > 0 raises
        ConfigError on a grid with a column step above one row, and an n off
        the band raises ResolutionError.
        """
        n = int(np.floor(s + 1e-9))
        f = round(s - n, 12)
        if (n or f > 1e-9) and not self._band_powers:
            raise ConfigError(f"no powers of G on this grid: under a column step of "
                              f"{self._step} grid rows, band level n "
                              "is not G^n (the omega and variation layers need column "
                              "steps of at most one row)")
        if not 0 <= n <= self.band_rows:
            raise ResolutionError(f"power {s} of G outside the kernel band "
                                  f"(levels 0..{self.band_rows})")
        if v is None:
            out = self.kernel_table()[n] if n else None
        else:
            out = v @ self.kernel_table()[n] if n else np.array(v, dtype=float)
        if f > 1e-9:
            if f not in self._fractions:
                self._fractions[f] = np.real(sla.expm(f * self._log_generator()))
            out = self._fractions[f] if out is None else out @ self._fractions[f]
        return np.eye(self.nx) if out is None else out

    # -- the kink-cell height rule ------------------------------------------------

    def height_rule(self, a, b):
        """Quadrature of a height integrand over [a, b]: ``[(k, weights)]``.

        Height integrands here (band rows linear between grid levels, fields
        read at twice the height) are smooth between kinks at the multiples
        of h/2, so [a, b] is cut there.  Cell k = [k h/2, (k+1) h/2] always
        carries its four Gauss-Legendre nodes (``cell_nodes``); a cell the
        interval covers in part weights them by the integrals of their cubic
        Lagrange polynomials over the covered part.  Whole cells get the
        Gauss weights, and the rule is additive under any split of [a, b].
        """
        half = self.h / 2
        lo, hi = a / half, b / half  # in cells; ends within 1e-9 snap to a kink
        lo, hi = (round(t) if abs(t - round(t)) < 1e-9 else t for t in (lo, hi))
        p = np.arange(1, 5)
        rule = []
        for k in range(int(np.floor(lo)), int(np.ceil(hi))):
            t0, t1 = max(2 * (lo - k) - 1, -1.0), min(2 * (hi - k) - 1, 1.0)
            moments = (t1 ** p - t0 ** p) / p
            rule.append((k, (half / 2) * (moments @ _GAUSS_LAGRANGE)))
        return rule

    def cell_nodes(self, k):
        """Heights of the four Gauss-Legendre nodes of height cell k."""
        return (k + (1 + _GAUSS_T) / 2) * self.h / 2


class _Wing:
    """A wing of the boundary strip, solved in closed form.

    A wing is a run of at least two columns at one end of the grid whose
    graph nodes all sit on the end column's row jw, taken with their m =
    jt − 1 − jw rows under the strip's top row jt.  Every wing node is
    interior and sees the constant-coefficient operator K_x ⊗ I + I ⊗ T_y:
    T_y is Dirichlet below (the graph) and above (the top row), K_x is
    Dirichlet on the inner side (the core, or the graph where it rises) and
    mirrored or absorbing at the wall.  The orthonormal DST-I P diagonalises
    T_y (eigenvalues μ_k = 2 − 2 cos(π (k+1)/(m+1))), and every mode's
    tridiagonal K_x + μ_k, diagonally dominant, is eliminated once without
    pivoting, for a sweep over the columns that takes all modes and
    right-hand sides at once.

    Nodes run column by column from the wall inwards, each column from the
    bottom.  Wings of one shape (both ends of a symmetric graph) share the
    operator and are swept together: ``nodes`` is (copies, a, m), and modes
    are held as (a, m, copies × r) arrays.  A wing couples to the rest of
    the strip only through its rim Γ, its top row and, below that, its inner
    column; ``zg`` is the Γ × Γ block of one wing's inverse.
    """

    def __init__(self, nodes, mirror):
        self.c, self.a, self.m = c, a, m = nodes.shape
        self.nodes = nodes
        self.gamma = np.concatenate([nodes[:, :, -1], nodes[:, -1, :-1]], axis=1).ravel()
        k = np.arange(1, m + 1)
        # the sine's argument reduced to one period before it is scaled by π
        kl = np.outer(k, k) % (2 * (m + 1))
        self.P = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * kl / (m + 1))
        d = 4.0 - 2.0 * np.cos(np.pi * k / (m + 1))
        # K_x is -1 off its diagonal, save up[0] = -2 under the mirrored wall
        # (the wall column meets its mirrored neighbour twice).  Elimination
        # keeps the pivots 1/d'_i and the ratios up_i/d'_i; the lower
        # diagonal of -1 gives d'_i = d + ratio_{i-1}, and the sweep adds
        # the previous column.
        up = np.full(a - 1, -1.0)
        if mirror:
            up[0] = -2.0
        inv, ratio = np.empty((a, m)), np.empty((a - 1, m))
        inv[0] = 1.0 / d
        for i in range(a - 1):
            ratio[i] = up[i] * inv[i]
            inv[i + 1] = 1.0 / (d + ratio[i])
        self._inv, self._ratio = inv[:, :, None], ratio[:, :, None]
        self.zg = self._rim(self.solve(self._rim_modes(np.eye(a + m - 1))))

    def modes(self, fs):
        """Modes of the wings' part of fs (strip nodes, r); None when it is zero."""
        f = fs[self.nodes]
        nz = np.flatnonzero(f.any(axis=(0, 1, 3)))  # typically the bottom row alone
        if not len(nz):
            return None
        return self.P[:, nz] @ f[:, :, nz].transpose(1, 2, 0, 3).reshape(self.a, len(nz), -1)

    def rim_modes(self, b):
        """Modes of data b (copies × |Γ|, r) on the rims."""
        r = b.shape[1]
        return self._rim_modes(b.reshape(self.c, -1, r).transpose(1, 0, 2).reshape(-1, self.c * r))

    def _rim_modes(self, b):
        g = self.P[:, -1, None] * b[:self.a, None]
        g[-1] += self.P[:, :-1] @ b[self.a:]
        return g

    def solve(self, g):
        """(K_x + μ_k)⁻¹ on every mode of g, in place.

        The sweep runs on column views made once: with few right-hand sides
        its cost is the Python loop, not the arithmetic."""
        cols = list(g)
        cols[0] *= self._inv[0]
        for prev, col, inv in zip(cols, cols[1:], self._inv[1:]):
            col += prev
            col *= inv
        for col, nxt, ratio in zip(cols[-2::-1], cols[:0:-1], self._ratio[::-1]):
            col -= ratio * nxt
        return g

    def rim(self, g):
        """Values (copies × |Γ|, r) on the rims of modes g."""
        v = self._rim(g)
        return v.reshape(len(v), self.c, -1).transpose(1, 0, 2).reshape(-1, g.shape[2] // self.c)

    def _rim(self, g):
        return np.concatenate([np.tensordot(g, self.P[-1], (1, 0)), self.P[:-1] @ g[-1]])

    def scatter(self, x, g):
        """Write the nodal values of modes g into x (strip nodes, r)."""
        x[self.nodes] = (self.P @ g).reshape(self.a, self.m, self.c, -1).transpose(2, 0, 1, 3)


class _StripSolver:
    """One factorization of a closure's system A x = f serves every solve.

    A solve is exact block elimination at the strip's top row jt
    (``DiscreteDomain.strip_top``), the lowest row above every graph node.
    The box above it (rows jt+1 .. ny-1, every column interior, possibly
    none) carries the constant-coefficient operator K_x ⊗ I + I ⊗ T_y.  The
    closed-form modes Q of the side operator K_x (cosines between mirrored
    sides, sines between absorbing ones; eigenvalues λ_k) diagonalise it,
    and each mode's tridiagonal T_y + λ_k is eliminated from the box top
    down with pivots s_r = 1 / (d_k − s_{r+1}), d_k = 2 + λ_k.  Under the
    absorbing closure the top row sees zero data above it (s_top = 1/d_k).
    The reflecting closure is semi-infinite above: the grid goes on above
    its top row, and each mode's bounded column solution there decays by
    the root s* = (d_k − √(d_k² − 4))/2 of s² − d_k s + 1 = 0 per row (1 for
    the constant mode), the fixed point of the pivot recurrence, so every
    pivot is s*, whatever the box height, and the box's rows are the
    semi-infinite region's.  With no box rows the strip's top row couples
    to that region directly, by the same N as below.  Q and Q⁻¹ are
    never formed: they are type-1 trigonometric transforms along the box's
    column axis, O(nx log nx) per row: the last axis of (rows, m, nx)
    arrays, or the first of the kernel band's (nx, nx) rows.  With M = nx − 1,
    e = (½, 1, …, 1, ½) and d = 1/e, Q x = ½ DCT-I(d ⊙ x) and
    Q⁻¹ v = (1/M) e ⊙ DCT-I(v) between mirrored sides, and Q x = ½ DST-I(x)
    and Q⁻¹ = DST-I / (nx + 1) between absorbing ones.  The strip's top row
    T sees the box as −N, where N = Q diag(s_0) Q⁻¹ is the box's solve of
    unit bottom-row data: a Toeplitz ± Hankel matrix in the cosine
    coefficients of s_0, which one DCT-I gives (``box_coupling``).

    Below T, the flat ends of the graph leave two rectangles, the wings W
    (``_Wing``), solved in closed form.  Where the graph rises, the wings
    hold most of the strip.  Eliminating W, whose inverse Z meets the rest
    only on its rim Γ, leaves the core C (the lower rows between the wings,
    which hold the graph's rise) and T with A'_XY = A_XY − A_XΓ Z_ΓΓ A_ΓY.
    C takes one sparse LU of A'_CC, and T, since N is dense, the dense
    nx × nx Schur complement S = A'_TT − N − A'_TC A'_CC⁻¹ A'_CT, built in
    column chunks and factored by ``lu_factor``.  A solve then

    1. solves the box part of f (skipped when it is zero) and adds its
       bottom row to the top row's right-hand side;
    2. solves the wing part of f and moves its values on Γ onto the
       right-hand sides of C and T;
    3. solves C and T: y = A'_CC⁻¹ f_C, x_T = S⁻¹ (f_T − A'_TC y) and
       x_C = A'_CC⁻¹ (f_C − A'_CT x_T);
    4. adds the wings' solve of their Γ data from x_T and x_C to step 2;
    5. rebuilds the box from the step-1 values plus the modal propagation
       of the top row: all of it (``box_values``), only its walls
       (``box_walls``, for the exit rows), or, for the kernel band, only its
       bottom rows, one row at a time over all right-hand sides
       (``DiscreteDomain.kernel_table``).

    Of the closure's system only the strip's rows and the box's wall nodes
    (side columns and top row) are assembled: the factors read A on the
    strip alone, B vanishes on the box and X reaches it only on its walls,
    so ``B`` and ``X`` are the whole system's.

    Transposed solves need no factors of their own.  A mirrored neighbour
    couples twice, so under the reflecting closure D A is symmetric for the
    diagonal D (``sym``) that is ½ on the end columns and 1 elsewhere (the
    top's coupling N is D-symmetric too; D is the identity under the
    absorbing closure); thus Aᵀ = D A D⁻¹ and ``adjoint`` is D A⁻¹ D⁻¹.
    """

    def __init__(self, domain, mode):
        nx, ny, jb, jt = domain.nx, domain.ny, domain.jb, domain.strip_top
        self.rows = ny - 1 - jt
        # each column keeps its first jt - jb nodes in the strip
        self._base = domain.offsets[:-1] - jb - 1 - self.rows * np.arange(nx)
        i = np.repeat(np.arange(nx), ny - 1 - jb)
        j = np.arange(domain.n_interior) - domain.offsets[i] + jb[i] + 1
        in_box = j > jt
        self.strip, self.box = np.flatnonzero(~in_box), np.flatnonzero(in_box)
        # the rows read: the strip's, and X's on the box walls
        wall = (i == 0) | (i == nx - 1) | (j == ny - 1)
        A, self.B, self.X = domain._assemble(mode, np.flatnonzero(~in_box | wall))
        self._walls = np.flatnonzero(wall[in_box])  # the box's walls, in box order
        self.sym = np.ones(domain.n_interior)
        if mode == "reflect":
            o = domain.offsets  # column i holds o[i] .. o[i+1] - 1
            self.sym[:o[1]] = 0.5
            self.sym[o[-2]:] = 0.5
        self.top = T = self.local(np.arange(nx), jt)
        shapes = {}
        for cols in (np.arange(nx), np.arange(nx)[::-1]):
            run = cols[:int(np.argmax(jb[cols] != jb[cols[0]]))]
            jw = int(jb[cols[0]])
            if len(run) >= 2 and jt - 1 > jw:
                nodes = self.local(run[:, None], np.arange(jw + 1, jt))
                shapes.setdefault(nodes.shape, []).append(nodes)
        self.wings = [_Wing(np.stack(n), mode == "reflect") for n in shapes.values()]
        W = np.concatenate([w.nodes.ravel() for w in self.wings] + [np.zeros(0, dtype=int)])
        self.core = C = np.setdiff1d(np.arange(len(self.strip)), np.concatenate([T, W]))
        A = A[self.strip][:, self.strip].tocsr()
        A_CC, A_CT, A_TC = A[C][:, C], A[C][:, T], A[T][:, C]
        S = A[T][:, T].toarray()
        if self.wings:
            G = np.concatenate([w.gamma for w in self.wings])
            Z = sp.block_diag([w.zg for w in self.wings for _ in range(w.c)], format="csr")
            self._CG, self._TG = A[C][:, G], A[T][:, G]
            self._GC, self._GT = A[G][:, C], A[G][:, T]
            A_CC = A_CC - self._CG @ Z @ self._GC
            A_CT = A_CT - self._CG @ Z @ self._GT
            A_TC = A_TC - self._TG @ Z @ self._GC
            S -= (self._TG @ Z @ self._GT).toarray()
        self._TC, self._CT = A_TC.tocsr(), A_CT.tocsc()
        # minimum-degree ordering on A^T + A: about half the fill of the
        # default COLAMD on these grids
        self.lu = splu(A_CC.tocsc(), permc_spec="MMD_AT_PLUS_A")
        if self.rows or mode == "reflect":
            self._modes(nx, mode)
            S -= self.box_coupling()
        for lo in range(0, nx, _SOLVE_CHUNK):
            hi = min(lo + _SOLVE_CHUNK, nx)
            S[:, lo:hi] -= self._TC @ self.lu.solve(self._CT[:, lo:hi].toarray())
        self.schur = lu_factor(S, overwrite_a=True)

    def _modes(self, nx, mode):
        """The side modes' transforms and each mode's pivots s (rows, nx) up
        the box, with s0, the pivots of the box's bottom row: under the
        reflecting closure every pivot is the decaying root s*, whatever
        the number of rows (none included), and under the absorbing one the
        recurrence runs down from zero data above the top row."""
        k = np.arange(nx)
        self._mirrored = mode == "reflect"
        if self._mirrored:
            M = nx - 1
            e = np.where((k == 0) | (k == M), 0.5, 1.0)
            self._trig = partial(sfft.dct, type=1)
            self._q, self._p = 0.5 / e, e / M
            first = 2.0 * e
            # s* = (d − √(d² − 4))/2 = exp(−2 asinh sin(πk/2M)) for
            # d = 2 + 4 sin²(πk/2M), in the form free of cancellation
            self.s0 = np.exp(-2.0 * np.arcsinh(np.sin(np.pi * k / (2 * M))))
            s = np.broadcast_to(self.s0, (self.rows, nx))
        else:
            self._trig = partial(sfft.dst, type=1)
            self._q, self._p = 0.5, 1.0 / (nx + 1)
            first = 2.0 * np.sin(np.pi * (k + 1) / (nx + 1))
            d = 2.0 + (2.0 - 2.0 * np.cos(np.pi * (k + 1) / (nx + 1)))  # 2 + λ_k
            s = np.empty((self.rows, nx))  # s[r] = [(T_y + λ)⁻¹ on rows r..top]₀₀
            t = 0.0  # zero data above the top row
            for r in range(self.rows - 1, -1, -1):
                s[r] = t = 1.0 / (d - t)
            self.s0 = s[0]
        self.s = s
        # the transform's first and last values as linear forms in its
        # input, each weight of the last the first's times (-1)^k
        # (``box_walls``)
        self._ends = np.column_stack([first, first * (-1.0) ** k])
        # The modal propagation of the strip's top row v into the box,
        # x_0 = s_0 v and x_r = s_r x_{r-1}, with the constants of Q and Q⁻¹
        # folded in.
        self.lift = np.cumprod(s, axis=0) * (self._q * self._p)

    def _modal(self, u):
        """Q⁻¹ along the last axis of nodal values u."""
        return self._p * self._trig(u)

    def _nodal(self, x):
        """Q along the last axis of modes x."""
        return self._trig(self._q * x)

    def box_coupling(self):
        """N = Q diag(s_0) Q⁻¹, the box's bottom row under unit bottom-row
        data (under the reflecting closure, the semi-infinite region's, with
        s_0 = s*), from one transform of s_0: Toeplitz ± Hankel in the modes'
        cosine coefficients, each extended evenly over its period."""
        nx = len(self.s0)
        if self._mirrored:
            c = sfft.dct(self.s0, type=1) / (2 * (nx - 1))
            full = np.concatenate([c, c[-2::-1]])  # c_0 .. c_2M
            return (sla.toeplitz(c) + sla.hankel(c, full[nx - 1:])) * (self._p * (nx - 1))
        a = sfft.dct(np.concatenate([[0.0], self.s0, [0.0]]), type=1) / (2 * (nx + 1))
        full = np.concatenate([a, a[-2::-1]])  # a_0 .. a_2L
        return sla.toeplitz(a[:nx]) - sla.hankel(full[2:nx + 2], full[nx + 1:2 * nx + 1])

    def local(self, i, j):
        """Strip index of grid node (column i, row j <= jt); vectorized."""
        return self._base[i] + j

    def box_modes(self, fb):
        """Modes (rows, m, nx) of the box part fb (box nodes, m) of a
        right-hand side, eliminated from the box top down; None when fb is
        zero.  Only the rows that hold data are transformed (a point source
        fills one)."""
        if not fb.any():
            return None
        fb = fb.reshape(len(self.s0), self.rows, -1).transpose(1, 2, 0)
        nz = np.flatnonzero(fb.any(axis=(1, 2)))
        g = np.zeros(fb.shape)
        g[nz] = self._modal(fb[nz])
        for r in range(nz[-1] - 1, -1, -1):
            g[r] += self.s[r + 1] * g[r + 1]
        return g

    def solve_strip(self, fs, modes=None):
        """Strip values (strip nodes, m) for the strip part fs of a
        right-hand side and the ``box_modes`` of its box part."""
        if modes is not None:
            fs[self.top] += self._nodal(self.s0 * modes[0]).T
        fc, ft = fs[self.core], fs[self.top]
        if self.wings:
            g = [w.modes(fs) for w in self.wings]
            g = [None if x is None else w.solve(x) for w, x in zip(self.wings, g)]
            rim = np.concatenate([np.zeros((len(w.gamma), fs.shape[1])) if x is None
                                  else w.rim(x) for w, x in zip(self.wings, g)])
            fc, ft = fc - self._CG @ rim, ft - self._TG @ rim  # the wings' values on Γ, moved
        x = np.empty_like(fs)
        x[self.top] = xt = lu_solve(self.schur, ft - self._TC @ self.lu.solve(fc))
        x[self.core] = xc = self.lu.solve(fc - self._CT @ xt)
        if self.wings:
            data = self._GT @ xt + self._GC @ xc  # what x_T and x_C put on Γ
            lo = 0
            for w, x0 in zip(self.wings, g):
                hi = lo + len(w.gamma)
                xw = -w.solve(w.rim_modes(data[lo:hi]))
                w.scatter(x, xw if x0 is None else xw + x0)
                lo = hi
        return x

    def _box_modal(self, modes, v):
        """Modes (rows, m, nx) of the box, Q's constants folded in:
        lift ⊙ Q⁻¹ vᵀ + the upward substitution of the ``box_modes`` of a
        right-hand side (None: zero), for strip top-row values v (nx, m)."""
        x = self.lift[:, None] * self._trig(v.T)
        if modes is not None:
            y = 0.0  # substitute upwards
            for r in range(self.rows):
                y = self.s[r] * (modes[r] + y)
                x[r] += self._q * y
        return x

    def box_values(self, modes, v):
        """Box values in box order (box nodes, m), column-major: Q of
        ``_box_modal``, both transforms on the contiguous last axis."""
        x = self._trig(self._box_modal(modes, v), overwrite_x=True)
        return x.transpose(2, 0, 1).reshape(-1, x.shape[1])

    def box_walls(self, modes, v):
        """``box_values`` on the box's walls alone (side columns and top
        row, the only box nodes X reaches), in box order: the side columns
        as each row's modes against Q's end rows, the top row by one
        transform."""
        x = self._box_modal(modes, v)
        side = x @ self._ends
        return np.concatenate([side[:, :, 0], self._trig(x[-1])[:, 1:-1].T, side[:, :, 1]])

    def solve(self, f, walls=False):
        """x (n,) with A x = f; with ``walls``, of the box only its walls
        (``box_walls``), zero inside it."""
        f2 = np.asarray(f, dtype=float)[:, None]
        modes = self.box_modes(f2[self.box])
        x = np.zeros_like(f2)
        x[self.strip] = xs = self.solve_strip(f2[self.strip], modes)
        if self.rows and walls:
            x[self.box[self._walls]] = self.box_walls(modes, xs[self.top])
        elif self.rows:
            x[self.box] = self.box_values(modes, xs[self.top])
        return x[:, 0]

    def adjoint(self, f, walls=False):
        """x (n,) with Aᵀ x = f, as D A⁻¹ D⁻¹ f (``solve``'s ``walls``)."""
        return self.sym * self.solve(f / self.sym, walls)


# ---------------------------------------------------------------------------
# fields and measures
# ---------------------------------------------------------------------------


class HarmonicField:
    """Discrete harmonic extension of boundary data on a domain."""

    def __init__(self, domain: DiscreteDomain, boundary_data, values):
        self.domain = domain
        self.boundary_data = np.asarray(boundary_data, dtype=float)
        self.values = np.asarray(values, dtype=float)
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
        """Values at x_i + m*h for m = 0..field_rows, shape (field_rows+1, nx)."""
        if self._band is None:
            d = self.domain
            nb = d.field_rows
            F = np.empty((nb + 1, d.nx))
            F[0] = self.boundary_data
            F[1:] = self.values[d.index(np.arange(d.nx), d.jb + np.arange(1, nb + 1)[:, None])]
            self._band = F
        return self._band

    def rows(self, y):
        """Values at x_i + y over all boundary base points (linear in y)."""
        return self.domain._band_at(self.band(), y)

    def at(self, point):
        """Bilinear field value at a point of the closed domain; a point off
        the grid's rectangle, [-W, W] x [j0 h, box_height], is a ConfigError."""
        d = self.domain
        x, y = point
        fi = (x + d.config.box_halfwidth) / d.h
        fj = y / d.h - d.j0
        if not (-1e-9 <= fi <= d.nx - 1 + 1e-9 and -1e-9 <= fj <= d.ny - 1 + 1e-9):
            raise ConfigError(f"point {(x, y)} outside the grid")
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
        gx, gy = self.domain._band_stencil(self.band(), key[1])
        self._cache[key] = (gx, gy)
        return gx, gy

    def sigma_rows(self, y):
        """Unit gradient directions at x_i + y; zero vectors where |∇u| <= 1e-12."""
        gx, gy = self.grad_rows(y)
        norm = np.hypot(gx, gy)
        live = norm > 1e-12
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
        return float(arc_indicator(self.domain, a, b) @ self.s_masses)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def build_domain(config: DomainConfig) -> DiscreteDomain:
    """Discretize the configured near half-space; rejects invalid setups."""
    return DiscreteDomain(config)


def harmonic_measure(domain: DiscreteDomain, pole) -> BoundaryMeasure:
    """Exit distribution from a pole under the absorbing (zero-data) closure.

    The masses over the graph mesh plus the reported side/top masses sum to
    one; box mass is excluded from the arc masses.
    """
    i, j = domain.snap_point(pole)
    if not domain.is_interior(i, j):
        raise ConfigError(f"pole {pole} is on or outside the boundary")
    s, box = _exit_row(domain, "absorb", i, j)
    side = float(box[: 2 * domain.ny].sum())
    top = float(box[2 * domain.ny:].sum())
    return BoundaryMeasure(domain, s, side, top)


def kernel_measure(domain: DiscreteDomain, pole) -> BoundaryMeasure:
    """Exit distribution from a pole under the reflecting kernel closure.

    Within the kernel band it is a band row; above it, one ``adjoint`` solve
    of the same closure gives the row.
    """
    i, j = domain.snap_point(pole)
    if not domain.is_interior(i, j):
        raise ConfigError(f"pole {pole} is on or outside the boundary")
    joff = j - domain.jb[i]
    if joff <= domain.band_rows:
        return BoundaryMeasure(domain, domain.kernel_table()[joff, i, :].copy())
    return BoundaryMeasure(domain, _exit_row(domain, "reflect", i, j)[0])


def _exit_row(domain: DiscreteDomain, mode, i, j):
    """Exit masses from interior node (i, j) under a closure: ``(graph,
    ghost slots)``, row (i, j) of A⁻¹ [B X] by one ``adjoint`` solve, which
    builds of the box only its walls: B vanishes on the box, and X reaches
    it there alone."""
    c = domain._strip_solver(mode)
    e = np.zeros(domain.n_interior)
    e[domain.index(i, j)] = 1.0
    g = c.adjoint(e, walls=True)
    return c.B.T @ g, c.X.T @ g


def harmonic_extension(domain: DiscreteDomain, boundary_fn) -> HarmonicField:
    """Discrete Dirichlet extension of boundary data (nx,) on the graph mesh."""
    data = np.asarray(boundary_fn, dtype=float)
    if data.shape != (domain.nx,):
        raise ConfigError(f"boundary data must have shape ({domain.nx},)")
    if not np.all(np.isfinite(data)):
        raise ConfigError("boundary data must be finite")
    return HarmonicField(domain, data, domain.solve_dirichlet(data))


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
    e = np.zeros(domain.n_interior)
    e[domain.index(i, j)] = 1.0
    g = domain._strip_solver("absorb").solve(e)
    return HarmonicField(domain, np.zeros(domain.nx), g)


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
