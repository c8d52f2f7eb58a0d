"""Piecewise-linear boundary profiles with compact support.

A profile is the graph of a function that vanishes outside a support
interval and is Lipschitz in between.  The domain of interest is the
region strictly above the graph; everything else in the package measures
distances to, or meshes, this polyline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError

# Length of the synthetic flat rays used to close the polyline at +-infinity.
_RAY = 1.0e9
# Segments per block of ``LipschitzGraph.nearest``: its (block × points)
# temporaries stay small on a profile of many breakpoints.
_SEGMENT_BLOCK = 8


@dataclass(frozen=True)
class LipschitzGraph:
    """Graph of a compactly supported piecewise-linear Lipschitz function.

    Parameters
    ----------
    breakpoints : tuple of (x, y)
        Vertices of the polyline, strictly increasing in x, all inside
        [-support_radius, support_radius].  The first and last ordinate must
        vanish so the profile continues flatly.  An empty tuple is the flat
        profile.
    support_radius : float
        Radius outside which the profile is identically zero.
    """

    breakpoints: tuple = ()
    support_radius: float = 1.0
    lipschitz_constant: float = field(init=False, default=0.0)

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if self.support_radius < 0:
            raise ConfigError("support_radius must be nonnegative")
        lip = 0.0
        if pts:
            xs = np.array([p[0] for p in pts])
            ys = np.array([p[1] for p in pts])
            if np.any(np.diff(xs) <= 0):
                raise ConfigError("breakpoints must be strictly increasing in x")
            if abs(ys[0]) > 1e-12 or abs(ys[-1]) > 1e-12:
                raise ConfigError("first and last breakpoint must lie on y=0")
            if xs[0] < -self.support_radius - 1e-12 or xs[-1] > self.support_radius + 1e-12:
                raise ConfigError("breakpoints must lie inside the support radius")
            lip = float(np.max(np.abs(np.diff(ys) / np.diff(xs))))
        object.__setattr__(self, "lipschitz_constant", lip)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def flat(cls) -> "LipschitzGraph":
        return cls((), 0.0)

    @classmethod
    def sawtooth(cls, amplitude: float = 0.5, n_teeth: int = 2,
                 support_radius: float = 1.0, phase: int = 0) -> "LipschitzGraph":
        """Triangle-wave profile with slopes +-amplitude/(half tooth width).

        ``phase=1`` flips the teeth downward (half-period shift of the wave).
        """
        half = support_radius / n_teeth
        xs = np.linspace(-support_radius, support_radius, 2 * n_teeth + 1)
        ys = np.zeros_like(xs)
        ys[1::2] = amplitude if phase == 0 else -amplitude
        return cls(tuple(zip(xs, ys)), support_radius)

    # -- evaluation ------------------------------------------------------------

    def __call__(self, x):
        """Profile ordinate(s) at abscissa(e) x."""
        x = np.asarray(x, dtype=float)
        if not self.breakpoints:
            return np.zeros_like(x)
        bx = np.array([p[0] for p in self.breakpoints])
        by = np.array([p[1] for p in self.breakpoints])
        out = np.interp(x, bx, by, left=0.0, right=0.0)
        return out

    @property
    def cone_constant(self) -> float:
        """Lower bound c with dist(x + y*e2, graph) >= c*y: 1/sqrt(1+L^2)."""
        return 1.0 / np.hypot(1.0, self.lipschitz_constant)

    def segments(self, offset: float = 0.0):
        """Polyline segments including flat closing rays, shifted by offset."""
        pts = [(-_RAY, offset)]
        if self.breakpoints:
            if self.breakpoints[0][0] > -self.support_radius:
                pts.append((-self.support_radius, offset))
            pts += [(x, y + offset) for x, y in self.breakpoints]
            if self.breakpoints[-1][0] < self.support_radius:
                pts.append((self.support_radius, offset))
        pts.append((_RAY, offset))
        a = np.array(pts[:-1], dtype=float)
        b = np.array(pts[1:], dtype=float)
        return a, b

    def distance(self, points, offset: float = 0.0):
        """Exact Euclidean distance from points (n,2) to the graph polyline."""
        return self.nearest(points, offset)[0]

    def project(self, points, offset: float = 0.0):
        """Nearest boundary point for each input point: returns (n,2) array."""
        return self.nearest(points, offset)[1]

    def nearest(self, points, offset: float = 0.0):
        """Distance from points (n,2) to the polyline and the nearest point
        on it, ``(dist (n,), proj (n,2))``, in one pass over (segments ×
        points) arrays, the segments taken in blocks of ``_SEGMENT_BLOCK``.

        Segments are compared by the norm itself, not its square, and a tie
        keeps the first segment's point.  Each point's result depends on that
        point alone."""
        px, py = np.atleast_2d(np.asarray(points, dtype=float)).T[:, None]  # (1, n)
        a, b = self.segments(offset)
        ax, ay = a.T[:, :, None]  # (segments, 1)
        dx, dy = (b - a).T[:, :, None]
        norm = np.maximum(dx * dx + dy * dy, 1e-300)
        n = px.shape[1]
        cols = np.arange(n)
        dist = np.full(n, np.inf)
        proj = np.empty((n, 2))
        for lo in range(0, len(a), _SEGMENT_BLOCK):
            s = slice(lo, lo + _SEGMENT_BLOCK)
            # the loop's arithmetic, in place: t, then the segment point q,
            # then the distance d
            t = px - ax[s]
            t *= dx[s]
            d = py - ay[s]
            d *= dy[s]
            t += d
            t /= norm[s]
            np.clip(t, 0.0, 1.0, out=t)
            qx = t * dx[s]
            qx += ax[s]
            qy = np.multiply(t, dy[s], out=t)
            qy += ay[s]
            d = np.subtract(px, qx, out=d)
            d *= d
            e = py - qy
            e *= e
            d += e
            np.sqrt(d, out=d)
            k = np.argmin(d, axis=0)  # the first of tied segments
            dk = d[k, cols]
            closer = dk < dist
            dist[closer] = dk[closer]
            proj[closer, 0] = qx[k, cols][closer]
            proj[closer, 1] = qy[k, cols][closer]
        return dist, proj
