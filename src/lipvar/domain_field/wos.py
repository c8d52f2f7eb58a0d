"""Walk-on-spheres sampler of harmonic measure on the unbounded graph domain.

The sampler never sees the truncation box: spheres are sized by the exact
distance to the graph polyline (with its infinite flat extension), so the
exit statistics are an independent oracle for the grid solver.  Walks stop
inside a thin shell of width h/2 around the boundary and project to the
nearest boundary point, whose mass is binned to the nearest mesh node.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .grid import BoundaryMeasure, DiscreteDomain

_BATCH = 20000
_MAX_STEPS = 10000


def wos_harmonic_measure(domain: DiscreteDomain, pole, n_samples: int,
                         seed: int | None = None) -> BoundaryMeasure:
    """Monte Carlo harmonic measure from a pole, binned to boundary nodes.

    Deterministic for a fixed seed.  The returned measure carries
    ``capped_walks``, the walks force-projected at the step cap.  One
    ``nearest`` pass per step gives the live walks' distances and, for the
    walks that stop, their exit points.
    """
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    if seed is None:
        seed = domain.config.wos_seed
    graph = domain.graph
    offset = domain.config.graph_offset
    px, py = float(pole[0]), float(pole[1])
    if py <= float(graph(np.array([px]))[0]) + offset:
        raise ConfigError("pole must lie strictly above the graph")

    delta = domain.h / 2
    rng = np.random.default_rng(seed)
    counts = np.zeros(domain.nx, dtype=np.int64)
    W = domain.config.box_halfwidth
    capped = 0

    def bin_exits(exits):
        cols = np.clip(np.round((exits[:, 0] + W) / domain.h), 0,
                       domain.nx - 1).astype(np.int64)
        np.add.at(counts, cols, 1)

    remaining = int(n_samples)
    while remaining > 0:
        m = min(_BATCH, remaining)
        remaining -= m
        # the live walks, compacted in their starting order: each step's
        # draws go to them in that order
        pts = np.tile(np.array([px, py]), (m, 1))
        for _ in range(_MAX_STEPS):
            d, exits = graph.nearest(pts, offset=offset)
            stop = d < delta
            if np.any(stop):
                bin_exits(exits[stop])
                pts, d = pts[~stop], d[~stop]
            if not len(pts):
                break
            theta = rng.uniform(0.0, 2 * np.pi, size=d.shape)
            pts += np.column_stack([d * np.cos(theta), d * np.sin(theta)])
        else:
            # force-project stragglers; counted so callers can see the cap hit
            capped += len(pts)
            bin_exits(graph.project(pts, offset=offset))

    out = BoundaryMeasure(domain, counts / float(n_samples))
    out.capped_walks = capped
    return out
