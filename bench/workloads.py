"""The three benchmark workloads.

Each workload has a set-up (state shared by its ops), a seeded input draw
per op, the op itself (the timed call sequence into lipvar), and a check of
the op's outputs that runs outside the timed span.  Inputs depend only on
(seed, op index), so two runs with the same seed see the same ops.
"""

from __future__ import annotations

import numpy as np

from lipvar import kernels as K
from lipvar import omega as O
from lipvar import variation_measure as VM
from lipvar.domain_field import grid, wos
from lipvar.domain_field.geometry import LipschitzGraph


def _rng(seed, k):
    return np.random.default_rng([seed, k])


def _arc(rng):
    """Seeded arc of the reference function u: the README's [-1, 1], +-0.1."""
    return float(rng.uniform(-1.1, -0.9)), float(rng.uniform(0.9, 1.1))


def _ref_u(domain, arc):
    return grid.harmonic_extension(domain, grid.arc_indicator(domain, *arc))


def power_path(domain) -> str:
    """Which branch of ``power_rows`` a domain took (reads private state)."""
    eig = getattr(domain, "_eig", None)
    return "none" if eig is None else ("schur" if isinstance(eig, str) else "eigen")


def _desk_domain(graph):
    """h = 0.05, box 8 x 8, pole (0, 1): the ROADMAP reference grid."""
    cfg = grid.DomainConfig(graph, box_halfwidth=8.0, box_height=8.0,
                            grid_spacing=0.05, pole=(0.0, 1.0))
    d = grid.build_domain(cfg)
    _ref_u(d, (-1.0, 1.0))   # first reflect solve: assembly and LU
    d.kernel_table()          # the dense kernel band
    d.power_rows(1.0)         # first power call: eigensystem (or Schur check)
    return d


def _rel_sup(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def _r(x):
    return float(f"{x:.9g}")


class OmegaFlat:
    """Dyadic limit omega_seg on the flat reference grid, at eps and eps/2."""

    name = "omega_flat"

    def setup(self):
        return _desk_domain(LipschitzGraph.flat())

    # The ROADMAP reference segment.  The dyadic depth, and so the cost
    # (doubling per level), depends on the segment and on eps: over
    # m in [0.1, 0.45], |seg| in {0.05, 0.1}, eps in [0.02, 0.08] one op takes
    # 3.6-44 s.  On [0.3, 0.4] every eps in [0.05, 0.06] settles at level 10,
    # and eps/2 at level 9, with a margin of 1.4x or more on the stopping test.
    segment = (0.3, 0.4)

    def draw(self, seed, k):
        rng = _rng(seed, k)
        return {"arc": _arc(rng), "segment": self.segment,
                "eps": float(rng.uniform(0.05, 0.06))}

    def op(self, d, inp):
        u = _ref_u(d, inp["arc"])
        seg = O.Segment(*inp["segment"])
        full = O.omega_limit(d, u, seg, inp["eps"], tol=1e-5)
        half = O.omega_limit(d, u, seg, inp["eps"] / 2, tol=1e-5)
        return u, full, half

    def check(self, d, inp, out):
        u, full, half = out
        errors, summary = [], {}
        for tag, om in (("eps", full), ("eps_half", half)):
            norm = float(np.abs(om.row_integrals() - 1.0).max())
            if not np.all(np.isfinite(om.entries)):
                errors.append(f"{tag}: non-finite omega entries")
            if not norm <= 1e-3:
                errors.append(f"{tag}: |Omega(1)-1| = {norm:.3e} > 1e-3")
            summary[f"{tag}.norm"] = _r(norm)
            summary[f"{tag}.levels"] = len(om.meta["history"]) + 1
            summary[f"{tag}.sum"] = _r(float(om.entries.sum()))
        # split additivity of the height-integrated b kernel (as `verify omega`)
        a, b = inp["segment"]
        mid = 0.5 * (a + b)
        whole = K.build_b_segment(d, u, (a, b), family="power").entries
        split = (K.build_b_segment(d, u, (a, mid), family="power").entries
                 + K.build_b_segment(d, u, (mid, b), family="power").entries)
        gap = _rel_sup(split, whole)
        if not gap <= 1e-3:
            errors.append(f"b split additivity {gap:.3e} > 1e-3")
        summary["b_additivity"] = _r(gap)
        return errors, summary


class ProbeSaw:
    """`lipvar probe` on the README sawtooth at box 8 (Schur-Pade power path)."""

    name = "probe_saw"
    z1 = (0.0, 2.0)

    def setup(self):
        return _desk_domain(LipschitzGraph.sawtooth(0.5, 2, 1.0, 0))

    # eps and the arc set the dyadic depth of the ladder's limits: with a
    # seeded eps in [0.04, 0.06] and arc, one op took 29-36 s.  A run holds
    # one op, so they are fixed at the README config's values; the seed
    # draws the balls.
    def draw(self, seed, k):
        rng = _rng(seed, k)
        inp = {"arc": (-1.0, 1.0), "eps": 0.05, "balls": []}
        for _ in range(3):
            x = -1.0 + 0.05 * int(rng.integers(0, 41))   # mesh node in [-1, 1]
            inp["balls"].append((round(x, 12), float(rng.uniform(0.25, 0.75))))
        return inp

    def _balls(self, d, inp):
        out = []
        for x, r in inp["balls"]:
            i = int(np.argmin(np.abs(d.xs - x)))
            out.append(VM.SurfaceBall((float(d.xs[i]), float(d.s_y[i])), r))
        return out

    def op(self, d, inp):
        u = _ref_u(d, inp["arc"])
        V = VM.vertical_variation(d, u)
        res = [VM.probe_ball(d, u, ball, z1=self.z1, eps=inp["eps"], variation=V)
               for ball in self._balls(d, inp)]
        return u, V, res

    def check(self, d, inp, out):
        u, V, res = out
        errors, summary = [], {"V_max": _r(float(V.values.max()))}
        for n, (ball, r) in enumerate(zip(self._balls(d, inp), res)):
            if not r.chain_ok:
                errors.append(f"ball {n}: chain not ok {r.chain}")
            if not ball.node_mask(d)[r.node_index]:
                errors.append(f"ball {n}: node {r.node_index} outside the ball")
            summary[f"ball{n}.node"] = r.node_index
            summary[f"ball{n}.ratio"] = _r(r.ratio)
        kappa = grid.kernel_measure(d, (self.z1[0], self.z1[1] - 1.0))
        _, diag = VM.nu_limit(d, u, kappa, inp["eps"])
        worst = max(abs(m - 1.0) for m in diag.total_masses)
        if not worst <= 1e-2:
            errors.append(f"gamma mass off by {worst:.3e} > 1e-2 along {diag.y_sequence}")
        summary["gamma_mass_dev"] = _r(worst)
        return errors, summary


class FieldBuild:
    """`lipvar solve` plus `verify field`'s oracle on a fresh fine domain."""

    name = "field_build"
    pole = (0.0, 1.5)
    wos_samples = 20000

    def setup(self):
        return None

    def draw(self, seed, k):
        rng = _rng(seed, k)
        return {"amplitude": float(rng.uniform(0.2, 0.5)),
                "teeth": int(rng.integers(1, 4)), "phase": int(rng.integers(0, 2)),
                "arc": _arc(rng), "wos_seed": int(rng.integers(0, 2 ** 31))}

    def op(self, _, inp):
        graph = LipschitzGraph.sawtooth(inp["amplitude"], inp["teeth"], 1.0, inp["phase"])
        cfg = grid.DomainConfig(graph, box_halfwidth=6.0, box_height=6.0,
                                grid_spacing=0.025, pole=self.pole)
        d = grid.build_domain(cfg)
        u = _ref_u(d, inp["arc"])
        d.kernel_table()
        m = grid.harmonic_measure(d, self.pole)
        g = grid.greens_function(d, self.pole)
        w = wos.wos_harmonic_measure(d, self.pole, self.wos_samples, inp["wos_seed"])
        return d, u, m, g, w

    def check(self, _, inp, out):
        d, u, m, g, w = out
        errors = []
        total = abs(m.total - 1.0)
        if not total <= 1e-6:
            errors.append(f"harmonic measure total off by {total:.3e} > 1e-6")
        if not m.s_masses.min() >= -1e-12:
            errors.append(f"negative mass {m.s_masses.min():.3e}")
        one = grid.harmonic_extension(d, np.ones(d.nx))
        ext = float(np.abs(one.values - 1.0).max())
        if not ext <= 1e-6:
            errors.append(f"extension of 1 off by {ext:.3e} > 1e-6")
        if not np.all(np.isfinite(g.values)):
            errors.append("non-finite Green's function")
        # WoS runs on the unbounded domain, the grid measure in an absorbing
        # box.  Domain monotonicity brackets every arc's true mass between the
        # box measure and the box measure plus all box mass; the WoS estimate
        # must sit in that bracket within 3 standard errors.
        box = m.box_side_mass + m.box_top_mass
        edges = np.linspace(-2.0, 2.0, 11)
        worst_sig, outside = 0.0, 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            p = w.arc_mass(a, b)
            se = max(np.sqrt(p * max(1 - p, 0.0) / self.wos_samples), 1e-4)
            q = m.arc_mass(a, b)
            worst_sig = max(worst_sig, abs(p - q) / se)
            outside = max(outside, (q - p) / se - 3.0, (p - q - box) / se - 3.0)
        if outside > 0:
            errors.append(f"WoS outside the box-mass bracket by {outside:.2f} SE")
        return errors, {"box_mass": _r(box), "ext_one": _r(ext),
                        "wos_sigma_vs_box_measure": _r(worst_sig),
                        "capped": int(w.capped_walks),
                        "hm_sum": _r(float(m.s_masses.sum()))}


WORKLOADS = {w.name: w for w in (OmegaFlat(), ProbeSaw(), FieldBuild())}
