"""Command-line front end: solve, verify, probe, sweep-epsilon, report.

Configurations are JSON; node tables are CSV; kernel caches are binary
blocks.  Reports never carry timestamps, so a fixed config and seed yield
byte-identical output.  Exit codes: 0 pass, 1 check failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import os


def _cap_threads():
    n = os.environ.get("LIPVAR_THREADS")
    if n:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, n)


_cap_threads()

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import reports
from .domain_field import halfplane
from .domain_field.grid import (
    DomainConfig,
    arc_indicator,
    build_domain,
    gradient,
    greens_function,
    harmonic_extension,
    harmonic_measure,
    kernel_measure,
)
from .domain_field.wos import wos_harmonic_measure
from . import kernels as K
from .errors import ConfigError, LipvarError
from .omega import (
    Segment,
    check_omega_properties,
    cross_boundary_data,
    dyadic_partition,
    find_positive_epsilon,
    ode_check,
    omega_limit,
    omega_rho_bounds,
    omega_tilde,
    phi_property_check,
    pi_product,
)
from .variation_measure import (
    SurfaceBall,
    measure_bounds_check,
    nu_limit,
    probe_ball,
    vertical_variation,
)

SUITES = ("field", "kernels", "omega", "variation", "all")


@dataclass
class RunConfig:
    domain: DomainConfig
    epsilon: float = 0.05
    u_arc: tuple = (-1.0, 1.0)
    segments: tuple = ((0.2, 0.4),)
    balls: tuple = ({"center": (0.0, 0.0), "radius": 0.5},)
    z1: tuple = (0.0, 2.0)
    y_sequence: tuple | None = None
    wos_samples: int = 20000

    @classmethod
    def load(cls, path: str, grid_h: float | None = None,
             seed: int | None = None) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError(
                f"malformed JSON in {path} at line {e.lineno} column {e.colno}: {e.msg}"
            )
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        try:
            dom = DomainConfig.from_dict(raw["domain"])
        except KeyError as e:
            raise ConfigError(f"config missing required key: {e}")
        if grid_h is not None:
            dom = replace(dom, grid_spacing=grid_h)
        if seed is not None:
            dom = replace(dom, wos_seed=seed)
        eps = float(raw.get("epsilon", 0.05))
        if not (0.0 <= eps <= 0.5):
            raise ConfigError("epsilon must lie in [0, 0.5]")
        return cls(
            domain=dom,
            epsilon=eps,
            u_arc=tuple(raw.get("u_arc", (-1.0, 1.0))),
            segments=tuple(tuple(s) for s in raw.get("segments", ((0.2, 0.4),))),
            balls=tuple(raw.get("balls", ({"center": (0.0, 0.0), "radius": 0.5},))),
            z1=tuple(raw.get("z1", (0.0, 2.0))),
            y_sequence=tuple(raw["y_sequence"]) if "y_sequence" in raw else None,
            wos_samples=int(raw.get("wos_samples", 20000)),
        )


def _cache_dir(out: Path, cfg: RunConfig) -> tuple:
    h = reports.content_hash(cfg.domain.to_dict())
    return out / "cache" / h, h


def _build(cfg: RunConfig):
    domain = build_domain(cfg.domain)
    u = harmonic_extension(domain, arc_indicator(domain, *cfg.u_arc))
    return domain, u


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(cfg: RunConfig, out: Path, use_cache: bool = True) -> int:
    cache, h = _cache_dir(out, cfg)
    manifest = cache / "manifest.json"
    if manifest.exists():
        recorded = json.loads(manifest.read_text())
        if recorded.get("hash") != h:
            print(f"error: inconsistent cached hash in {manifest}", file=sys.stderr)
            return 2
        if use_cache:
            print(f"cache hit: {cache}")
            return 0
    cache.mkdir(parents=True, exist_ok=True)

    domain, u = _build(cfg)
    m = harmonic_measure(domain, cfg.domain.pole)
    reports.write_node_table(cache / "mesh.csv", domain,
                             {"arc_weight": domain.arc_weights})
    reports.write_node_table(cache / "hm_weights.csv", domain,
                             {"mass": domain.hm_weights})
    reports.write_node_table(cache / "harmonic_measure.csv", domain,
                             {"mass": m.s_masses})
    reports.write_node_table(cache / "u_boundary_band.csv", domain,
                             {f"u_y{k}": u.band()[k] for k in
                              range(0, domain.band_rows + 1, max(1, domain.band_rows // 8))})
    g = greens_function(domain, cfg.domain.pole)
    heights = [0.5, 1.0, 1.5, 2.0, 3.0]
    px, py = cfg.domain.pole
    rows = [[y, g.at((px, py + y))] for y in heights if py + y < cfg.domain.box_height]
    reports.write_csv(cache / "green_samples.csv", ["dy", "g"], rows)

    if not cfg.domain.graph.breakpoints:
        dens = halfplane.poisson_density(cfg.domain.pole, domain.xs) * domain.arc_weights
        reports.write_node_table(cache / "halfplane_oracle.csv", domain,
                                 {"solver_mass": domain.hm_weights,
                                  "halfplane_mass": dens,
                                  "abs_error": np.abs(domain.hm_weights - dens)})
    y_ref = max(0.2, 4 * domain.h)
    kref = K.build_k(domain, y_ref)
    reports.write_kernel_binary(cache / "k_reference.lvkb", kref)
    if domain.nx <= 200:
        reports.write_kernel_csv(cache / "k_reference.csv", kref)
    reports.write_json(manifest, {
        "hash": h,
        "domain": cfg.domain.to_dict(),
        "box_mass": {"sides": m.box_side_mass, "top": m.box_top_mass},
    })
    print(f"solved: artifacts in {cache}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _check(name, bound, margin, passed, **extra):
    rec = {"name": name, "bound": bound, "margin": float(margin),
           "passed": bool(passed)}
    rec.update(extra)
    return rec


def _suite_field(cfg: RunConfig, domain, u, rng):
    out = []
    m = harmonic_measure(domain, cfg.domain.pole)
    out.append(_check("measure_total", "|total-1| <= 1e-6",
                      abs(m.total - 1), abs(m.total - 1) <= 1e-6))
    out.append(_check("measure_nonnegative", "min mass >= -1e-12",
                      -min(m.s_masses.min(), 0.0), m.s_masses.min() >= -1e-12,
                      box_sides=m.box_side_mass, box_top=m.box_top_mass))
    one = harmonic_extension(domain, np.ones(domain.nx))
    d1 = np.abs(one.values - 1).max()
    out.append(_check("extension_of_one", "|ext(1)-1| <= 1e-6", d1, d1 <= 1e-6))
    mvr = u.mean_value_residual()
    out.append(_check("mean_value", "residual <= 1e-9", mvr, mvr <= 1e-9))
    lo, hi = u.values.min(), u.values.max()
    out.append(_check("max_principle", "0 <= u <= 1",
                      max(-lo, hi - 1, 0.0), lo >= -1e-12 and hi <= 1 + 1e-12))
    # distance comparability at random shifted points
    c_bound = domain.graph.cone_constant
    worst = 0.0
    ok = True
    for _ in range(100):
        i = rng.integers(0, domain.nx)
        y = rng.uniform(domain.h, 2.0)
        p = np.array([[domain.xs[i], domain.s_y[i] + y]])
        dist = domain.graph.distance(p, offset=cfg.domain.graph_offset)[0]
        ok &= dist <= y + 1e-9 and dist >= c_bound * y - 1e-9
        worst = max(worst, c_bound * y - dist, dist - y)
    out.append(_check("distance_comparability", "y >= dist >= y/sqrt(1+L^2)",
                      worst, ok, cone_constant=c_bound))
    # Green symmetry at random interior grid nodes (the discrete statement)
    pts = []
    while len(pts) < 6:
        i = rng.integers(1, domain.nx - 1)
        j = rng.integers(domain.jb[i] + 3, domain.ny - 1)
        pts.append((i, int(j)))
    gap = 0.0
    for a, b in zip(pts[::2], pts[1::2]):
        ga = greens_function(domain, (domain.xs[a[0]], (domain.j0 + a[1]) * domain.h))
        gb = greens_function(domain, (domain.xs[b[0]], (domain.j0 + b[1]) * domain.h))
        gap = max(gap, abs(ga.values[domain.index(*b)] - gb.values[domain.index(*a)]))
    out.append(_check("green_symmetry", "|g(x,w)-g(w,x)| <= 1e-3", gap, gap <= 1e-3))
    # Harnack gradient bound on the positive field u; vertical offsets are
    # scaled so the slant distance to the polyline clears the stencil floor
    worst_c = 0.0
    y_floor = (2 * domain.h + 0.05) / domain.graph.cone_constant
    for _ in range(100):
        x = rng.uniform(-2, 2)
        y = rng.uniform(y_floor, max(2.0, y_floor + 0.5))
        p = (x, float(domain.graph(np.array([x]))[0]) + cfg.domain.graph_offset + y)
        dist = domain.graph.distance(np.array([p]), offset=cfg.domain.graph_offset)[0]
        if dist < 2 * domain.h + 1e-9:
            continue
        gv = np.linalg.norm(gradient(u, p))
        val = u.at(p)
        if val > 1e-9:
            worst_c = max(worst_c, gv * dist / val)
    out.append(_check("harnack_gradient", "|grad u| dist/u <= 4",
                      worst_c, worst_c <= 4.0))
    # walk-on-spheres oracle equivalence on coarse arcs
    wm = wos_harmonic_measure(domain, cfg.domain.pole, cfg.wos_samples)
    dm = harmonic_measure(domain, cfg.domain.pole)
    edges = np.linspace(-2.0, 2.0, 11)
    worst_sig = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        se = max(np.sqrt(wm.arc_mass(a, b) * max(1 - wm.arc_mass(a, b), 0.0)
                         / cfg.wos_samples), 1e-4)
        worst_sig = max(worst_sig, abs(wm.arc_mass(a, b) - dm.arc_mass(a, b)) / se)
    out.append(_check("wos_oracle", "coarse arcs within 3 standard errors",
                      worst_sig, worst_sig <= 3.0, n_samples=cfg.wos_samples))
    return out


def _suite_kernels(cfg: RunConfig, domain, u, rng):
    out = []
    hs = domain.h
    ys = [y for y in (0.1, 0.5, 1.0) if y >= 2 * hs]
    worst = max(np.abs(K.build_k(domain, y).row_integrals() - 1).max() for y in ys)
    out.append(_check("k_row_integrals", "|K_y(1)-1| <= 1e-3", worst, worst <= 1e-3))
    worst = max(np.abs(K.build_c(domain, u, y).row_integrals()).max() for y in ys)
    out.append(_check("c_row_integrals", "|C_y(1)| <= 1e-3", worst, worst <= 1e-3))
    worst = max(np.abs(K.build_b(domain, u, y).row_integrals()).max() for y in ys)
    out.append(_check("b_row_integrals", "|B_y(1)| <= 1e-3", worst, worst <= 1e-3))

    y1, y2 = max(0.1, 2 * hs), max(0.2, 4 * hs)
    k12 = K.compose(K.build_k(domain, y1), K.build_k(domain, y2))
    k3 = K.build_k(domain, y1 + y2)
    rel = float(np.abs(k12.entries - k3.entries).max() / k3.entries.max())
    out.append(_check("semigroup", "rel sup error <= 2%", rel, rel <= 0.02,
                      heights=[y1, y2]))

    p = K.build_k(domain, y2)
    ident = K.identity_kernel(domain)
    gap = np.abs(K.compose(p, ident).entries - p.entries).max() / p.entries.max()
    out.append(_check("identity_compose", "p o id = p", gap, gap <= 1e-10))
    q = K.build_c(domain, u, y2)
    r = K.build_k(domain, y1)
    lhs = K.compose(K.compose(p, q), r).entries
    rhs = K.compose(p, K.compose(q, r)).entries
    gap = np.abs(lhs - rhs).max() / max(np.abs(lhs).max(), 1e-300)
    out.append(_check("associativity", "((p q) r) = (p (q r)) to 1e-10",
                      gap, gap <= 1e-10))

    cb = 0.0
    bb = 0.0
    for y in ys:
        kk = K.build_k(domain, y).entries
        mask = kk > 1e-9 * kk.max()
        cb = max(cb, (np.abs(K.build_c(domain, u, y).entries[mask]) * y / kk[mask]).max())
        bb = max(bb, (np.abs(K.build_b(domain, u, y).entries[mask]) * y / kk[mask]).max())
    out.append(_check("c_bound", "|c_y| y / k_y finite", cb, np.isfinite(cb)))
    out.append(_check("b_bound", "|b_y| y / k_y finite", bb, np.isfinite(bb)))

    # gradient identity at random heights and base nodes
    worst = 0.0
    for _ in range(50):
        y = rng.uniform(2 * hs, min(1.0, domain.band_rows * hs / 2 - hs))
        gy = K.apply_c(domain, u, y, u.rows(y))
        _, _, gn = u.sigma_rows(2 * y)
        core = np.abs(domain.xs) <= cfg.domain.box_halfwidth / 2
        live = core & (gn > 1e-3 * gn.max())
        worst = max(worst, float(np.abs(gy - gn)[live].max() / gn[live].max()))
    out.append(_check("gradient_identity", "C_y(u_y) = |grad u(x_2y)| within 2%",
                      worst, worst <= 0.02))

    pairs = [(a, b) for a in (0.1, 0.2, 0.4) for b in (0.2, 0.4, 0.8)
             if 2 * hs <= a <= b]
    fit = K.harnack_alpha(domain, pairs)
    hold = [(a, b) for a in (0.15, 0.3) for b in (0.3, 0.6) if 2 * hs <= a <= b]
    viol = K.harnack_violations(domain, fit, hold)
    flat = not cfg.domain.graph.breakpoints
    alpha_ok = fit.alpha <= 1.1 if flat else np.isfinite(fit.alpha)
    out.append(_check("harnack_alpha", "flat alpha <= 1.1; finite otherwise",
                      fit.alpha, alpha_ok, c=fit.c))
    out.append(_check("harnack_holdout", "held-out violations <= 1%",
                      viol, viol <= 0.01))
    return out


def _guarded(out, name, bound, fn):
    """Run one check builder; a construction failure records a failed check."""
    try:
        out.append(fn())
    except LipvarError as e:
        out.append(_check(name, bound, float("inf"), False, error=str(e)))


def _suite_omega(cfg: RunConfig, domain, u, rng):
    out = []
    eps = cfg.epsilon
    seg = Segment(*cfg.segments[0])
    ot = omega_tilde(domain, u, seg, eps)
    d = np.abs(ot.row_integrals() - 1).max()
    out.append(_check("tilde_normalization", "|Otilde(1)-1| <= 1e-3", d, d <= 1e-3))
    part = dyadic_partition(seg, 5)
    pi = pi_product(domain, u, seg, part, eps)
    d = np.abs(pi.row_integrals() - 1).max()
    ktol = len(part.segments) * 1e-3
    out.append(_check("pi_normalization", f"|Pi(1)-1| <= {ktol:.1e}", d, d <= ktol))

    def _decay():
        om = omega_limit(domain, u, seg, eps, tol=1e-5, n_max=12)
        ratios = [r for (n, _), r in
                  zip(om.meta["history"][1:], om.meta["decay_ratios"]) if n >= 3]
        worst = max(ratios) if ratios else 0.0
        return _check("dyadic_decay", "ratio <= 0.6 per level for n >= 3",
                      worst, worst <= 0.6, history=om.meta["history"])

    _guarded(out, "dyadic_decay", "ratio <= 0.6 per level for n >= 3", _decay)

    try:
        om = omega_limit(domain, u, seg, eps)
        d = np.abs(om.row_integrals() - 1).max()
        out.append(_check("omega_normalization", "|Omega(1)-1| <= 1e-3", d, d <= 1e-3))
        rep = check_omega_properties(om, ot, seg, eps, u=u)
        out.append(_check("omega_semigroup", "split composition within 2%",
                          rep["semigroup"]["margin"], rep["semigroup"]["passed"]))
    except LipvarError as e:
        out.append(_check("omega_normalization", "|Omega(1)-1| <= 1e-3",
                          float("inf"), False, error=str(e)))
        om = None

    def _positivity():
        if seg.m - 1e-12 <= seg.length <= 3 * seg.m + 1e-12:
            pos_seg = seg
        else:
            pos_seg = Segment(seg.m, min(3 * seg.m, 1.0))
        om_pos = omega_limit(domain, u, pos_seg, eps)
        return _check("positivity", "min entry >= 0", -min(om_pos.entries.min(), 0),
                      om_pos.entries.min() >= 0, segment=[pos_seg.m, pos_seg.M])

    _guarded(out, "positivity", "min entry >= 0", _positivity)

    b_whole = K.build_b_segment(domain, u, seg, family="power").entries
    mid = 0.5 * (seg.m + seg.M)
    b_split = (K.build_b_segment(domain, u, Segment(seg.m, mid), family="power").entries
               + K.build_b_segment(domain, u, Segment(mid, seg.M), family="power").entries)
    gap = np.abs(b_whole - b_split).max() / max(np.abs(b_whole).max(), 1e-300)
    out.append(_check("b_additivity", "split additivity within 1e-3", gap, gap <= 1e-3))

    if eps > 0:
        def _closeness():
            om_t = omega_limit(domain, u, seg, eps, tol=1e-5)
            om_half = omega_limit(domain, u, seg, eps / 2, tol=1e-5)
            ot_half = omega_tilde(domain, u, seg, eps / 2)
            g1 = np.abs(om_t.entries - ot.entries).max()
            g2 = np.abs(om_half.entries - ot_half.entries).max()
            factor = g1 / max(g2, 1e-300)
            return _check("closeness_eps_factor",
                          "halving eps shrinks gap by 4 +- 50%",
                          factor, 2.0 <= factor <= 6.0)

        _guarded(out, "closeness_eps_factor",
                 "halving eps shrinks gap by 4 +- 50%", _closeness)

    y_shift = 0.5 if 0.5 >= 4 * domain.h else 4 * domain.h
    psi, _ = cross_boundary_data(domain, y_shift, arc=cfg.u_arc)
    phi_seg = Segment(y_shift / 2, y_shift)
    r1 = phi_property_check(domain, u, psi, phi_seg, y_shift, eps)
    ok = True
    r2 = None
    if phi_seg.m / 2 >= 2 * domain.h - 1e-12:
        r2 = phi_property_check(domain, u, psi,
                                Segment(phi_seg.m / 2, phi_seg.m), y_shift, eps)
        ok = max(r1["ratio"], r2["ratio"]) <= 2 * min(r1["ratio"], r2["ratio"]) + 1e-12
    out.append(_check("phi_property", "ratio stable within factor 2 under halving",
                      r1["ratio"], ok,
                      halved_ratio=None if r2 is None else r2["ratio"]))

    step = max(0.05, 2 * domain.h)
    grid = np.arange(2 * domain.h + step, 1.0 - step / 2, step)
    if len(grid) >= 5:
        res = ode_check(domain, u, u, eps, grid)
        res0 = ode_check(domain, u, u, 0.0, grid)
        out.append(_check("ode_residual", "relative residual <= 5e-2",
                          res["rel_residual"], res["rel_residual"] <= 5e-2))
        out.append(_check("ode_eps_zero", "absolute residual <= 1e-3",
                          res0["abs_residual"], res0["abs_residual"] <= 1e-3))
    rb = omega_rho_bounds(domain, u, 0.25, eps)
    out.append(_check("omega_rho", "two-sided constants finite and positive",
                      rb["c_plus"], rb["c_plus"] > 0 and rb["c_minus"] > 0,
                      c_minus=rb["c_minus"]))
    return out


def _suite_variation(cfg: RunConfig, domain, u, rng):
    out = []
    eps = cfg.epsilon
    V = vertical_variation(domain, u)
    ymin = V.y_min
    ytop = min(1.0, (domain.band_rows - 1) * domain.h / 3)
    ys = np.linspace(ymin, ytop, 41)
    grad_int = np.zeros(domain.nx)
    for y0, y1 in zip(ys[:-1], ys[1:]):
        ym = 0.5 * (y0 + y1)
        _, _, gn = u.sigma_rows(3 * ym)
        grad_int += (y1 - y0) * gn
    gap = float((grad_int - V.values).max())
    out.append(_check("variation_dominates", "V >= int |grad u(x_3y)| dy - 1e-2",
                      gap, gap <= 1e-2))
    neg = 0.0
    for y in np.linspace(ymin, 1.0, 9):
        neg = min(neg, float(K.apply_b(domain, u, y, u.rows(y)).min()))
    out.append(_check("integrand_nonnegative", "B_y(u_y) >= -1e-3", -neg, neg >= -1e-3))

    kappa = kernel_measure(domain, (cfg.z1[0], cfg.z1[1] - 1.0))
    nu, diag = nu_limit(domain, u, kappa, eps, cfg.y_sequence)
    mass_err = max(abs(mv - 1.0) for mv in diag.total_masses)
    out.append(_check("gamma_mass", "total mass 1 +- 1e-2 along the sequence",
                      mass_err, mass_err <= 1e-2, masses=diag.total_masses))
    if np.isfinite(diag.slope):
        out.append(_check("weak_convergence_slope", "log-log slope 1 +- 0.3",
                          diag.slope, abs(diag.slope - 1.0) <= 0.3))
    balls = [SurfaceBall(tuple(b["center"]), float(b["radius"])) for b in cfg.balls]
    rep = measure_bounds_check(domain, u, kappa, eps, nu, balls, variation=V)
    out.append(_check("variation_ratio", "R1 finite", rep["R1"],
                      np.isfinite(rep["R1"]) and rep["R1"] >= 0))
    pr = probe_ball(domain, u, balls[0], z1=cfg.z1, eps=eps,
                    y_sequence=cfg.y_sequence, variation=V)
    out.append(_check("probe_chain", "all chain links finite and ball mass > 1e-6",
                      pr.chain["nu_ball_mass"], pr.chain_ok, ratio=pr.ratio))
    return out


def cmd_verify(cfg: RunConfig, suite: str, out: Path) -> int:
    domain, u = _build(cfg)
    rng = np.random.default_rng(cfg.domain.wos_seed)
    checks = []
    suites = {"field": _suite_field, "kernels": _suite_kernels,
              "omega": _suite_omega, "variation": _suite_variation}
    names = list(suites) if suite == "all" else [suite]
    for name in names:
        checks.extend(suites[name](cfg, domain, u, rng))
    report = {"suite": suite, "checks": checks,
              "passed": all(c["passed"] for c in checks)}
    out.mkdir(parents=True, exist_ok=True)
    reports.write_json(out / f"verify_{suite}.json", report)
    for c in checks:
        print(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: "
              f"margin={c['margin']:.3e} ({c['bound']})")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# probe, sweep, report
# ---------------------------------------------------------------------------


def cmd_probe(cfg: RunConfig, out: Path) -> int:
    if not cfg.balls:
        print("error: no balls configured", file=sys.stderr)
        return 2
    domain, u = _build(cfg)
    V = vertical_variation(domain, u)
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    for n, entry in enumerate(cfg.balls):
        ball = SurfaceBall(tuple(entry["center"]), float(entry["radius"]))
        res = probe_ball(domain, u, ball, z1=cfg.z1, eps=cfg.epsilon,
                         y_sequence=cfg.y_sequence, variation=V)
        reports.write_json(out / f"probe_{n}.json", res.to_dict())
        mask = SurfaceBall(res.ball_center, res.ball_radius).node_mask(domain)
        reports.write_node_table(out / f"probe_{n}_V.csv", domain,
                                 {"V": np.where(mask, V.values, np.nan),
                                  "in_ball": mask.astype(float)})
        print(f"ball {n}: x*={res.node_xy} V={res.variation_at_node:.5f} "
              f"ratio={res.ratio:.5f} chain_ok={res.chain_ok}")
        if not res.chain_ok:
            status = 1
    return status


def cmd_sweep_epsilon(cfg: RunConfig, out: Path) -> int:
    domain, u = _build(cfg)
    seg = Segment(*cfg.segments[0])
    gaps = {}
    for eps in (0.02, 0.04, 0.08):
        om = omega_limit(domain, u, seg, eps)
        ot = omega_tilde(domain, u, seg, eps)
        gaps[eps] = float(np.abs(om.entries - ot.entries).max())
    eps_list = sorted(gaps)
    slope = float(np.polyfit(np.log(eps_list), np.log([gaps[e] for e in eps_list]), 1)[0])
    eps0 = find_positive_epsilon(domain, u)
    kappa = kernel_measure(domain, (cfg.z1[0], cfg.z1[1] - 1.0))
    balls = [SurfaceBall(tuple(b["center"]), float(b["radius"])) for b in cfg.balls]
    V = vertical_variation(domain, u)
    floors = {}
    for eps in (0.02, 0.05, 0.1):
        nu, _ = nu_limit(domain, u, kappa, eps, cfg.y_sequence)
        rep = measure_bounds_check(domain, u, kappa, eps, nu, balls, variation=V)
        floors[str(eps)] = rep
    out.mkdir(parents=True, exist_ok=True)
    reports.write_json(out / "epsilon_sweep.json", {
        "segment": [seg.m, seg.M],
        "gap_by_eps": {str(k): v for k, v in gaps.items()},
        "gap_loglog_slope": slope,
        "positive_epsilon_threshold": eps0,
        "measure_reports": floors,
    })
    print(f"gap slope={slope:.3f}  eps0={eps0:.4f}")
    return 0


def cmd_report(out: Path) -> int:
    merged = {}
    rows = []
    for p in sorted(out.glob("*.json")):
        merged[p.stem] = json.loads(p.read_text())
        for c in merged[p.stem].get("checks", []):
            rows.append([p.stem, c["name"], c["margin"], int(c["passed"])])
    if not merged:
        print(f"no reports found in {out}", file=sys.stderr)
        return 2
    reports.write_json(out / "report.json", merged)
    if rows:
        reports.write_csv(out / "checks.csv", ["suite", "check", "margin", "passed"], rows)
    print(f"collated {len(merged)} reports into {out / 'report.json'}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser():
    p = argparse.ArgumentParser(prog="lipvar",
                                description="harmonic-measure kernel toolkit")
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--out", default="lipvar_out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override wos_seed")
    p.add_argument("--grid-h", type=float, default=None, help="override grid spacing")
    p.add_argument("--no-cache", action="store_true", help="ignore cached artifacts")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("solve")
    v = sub.add_parser("verify")
    v.add_argument("suite", choices=SUITES)
    sub.add_parser("probe")
    sub.add_parser("sweep-epsilon")
    sub.add_parser("report")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out = Path(args.out)
    if args.command == "report":
        return cmd_report(out)
    if not args.config:
        print("error: --config is required for this command", file=sys.stderr)
        return 2
    try:
        cfg = RunConfig.load(args.config, grid_h=args.grid_h, seed=args.seed)
        if args.command == "solve":
            return cmd_solve(cfg, out, use_cache=not args.no_cache)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite, out)
        if args.command == "probe":
            return cmd_probe(cfg, out)
        if args.command == "sweep-epsilon":
            return cmd_sweep_epsilon(cfg, out)
    except LipvarError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
